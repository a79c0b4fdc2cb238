//! DiCo-Arin (paper §III-B and §IV-B).
//!
//! The simplified, virtualization-optimized protocol. As long as a
//! block's copies are confined to one area, DiCo-Arin behaves exactly
//! like DiCo (with an area-local sharing code of `nta` bits). The first
//! read from a *remote* area dissolves the ownership:
//!
//! * the former owner becomes a provider of its area and sends the data
//!   to the home L2 (`SbaTransition`), which becomes the ordering point
//!   and a provider itself;
//! * the block is now *shared between areas* (SBA): it is always present
//!   in the home L2, which keeps one `ProPo` per area — and **no**
//!   information about sharers;
//! * every new copy handed out makes its receiver a provider, so in-area
//!   reads keep resolving in two short hops;
//! * a forwarded request reaching the home refreshes the stale provider
//!   pointer of the forwarder's area (paper §IV-B), with a silent
//!   invalidation covering the message-crossing case;
//! * writes to (and L2 replacements of) SBA blocks use the paper's
//!   **three-way broadcast invalidation**: the home broadcasts
//!   `BcastInv` (every L1 invalidates, blocks the address and
//!   acknowledges the collector), and the collector broadcasts
//!   `BcastUnblock` once all acknowledgements are in, which also
//!   reverts the block to an area-confined state owned by the writer.

use crate::common::*;
use crate::family::{Family, HomeTx, L1State, L2Entry, NoPropos, PolicyTx, SharingPolicy};
use cmpsim_engine::{FxHashSet, Snap, SnapError, SnapReader, SnapWriter};

/// The DiCo-Arin protocol.
pub type Arin = Family<ArinPolicy>;

/// DiCo-Arin's sharing policy: an area-confined block keeps DiCo's
/// owner with an area sharing code; a shared-between-areas block lives
/// at the home, which keeps one ProPo per area and invalidates by
/// broadcast.
#[derive(Debug, Clone)]
pub struct ArinPolicy {
    /// Blocks locked by an in-flight broadcast invalidation.
    bcast_blocked: Vec<FxHashSet<Block>>,
}

cmpsim_engine::impl_snap!(ArinPolicy { bcast_blocked });

/// The home bank's role for a resident block.
#[derive(Debug, Clone)]
pub enum L2Role {
    /// The home holds the ownership of an area-confined block; the
    /// sharers (if any) all live in one area.
    Owner {
        /// Area sharing code.
        sharers: SharerSet,
        /// The area the sharers live in.
        area: Option<usize>,
    },
    /// Shared between areas: home is ordering point + provider; one
    /// ProPo per area, no sharer information.
    Sba {
        /// Provider pointer per area.
        propos: Propos,
    },
}

impl Snap for L2Role {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            L2Role::Owner { sharers, area } => {
                w.u8(0);
                sharers.save(w);
                area.save(w);
            }
            L2Role::Sba { propos } => {
                w.u8(1);
                propos.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => L2Role::Owner { sharers: Snap::load(r)?, area: Snap::load(r)? },
            1 => L2Role::Sba { propos: Snap::load(r)? },
            tag => return Err(SnapError::BadTag { what: "arin::L2Role", tag }),
        })
    }
}

/// Home transactions of the broadcast invalidation.
#[derive(Debug, Clone)]
pub enum ArinTx {
    /// SBA write in flight: busy until the writer's `BcastDone`.
    SbaWrite {
        /// The writer.
        writer: Tile,
    },
    /// Home entry eviction: the home collects the acks itself.
    SbaEvict {
        /// Acks still owed.
        acks_left: i64,
        /// Dirty with respect to memory.
        dirty: bool,
        /// Data version.
        version: u64,
    },
}

impl PolicyTx for ArinTx {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            ArinTx::SbaWrite { writer } => {
                w.u8(3);
                writer.save(w);
            }
            ArinTx::SbaEvict { acks_left, dirty, version } => {
                w.u8(4);
                acks_left.save(w);
                dirty.save(w);
                version.save(w);
            }
        }
    }

    fn load_tagged(tag: u8, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match tag {
            3 => ArinTx::SbaWrite { writer: Snap::load(r)? },
            4 => ArinTx::SbaEvict {
                acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            },
            tag => return Err(SnapError::BadTag { what: "arin::HomeTx", tag }),
        })
    }
}

impl SharingPolicy for ArinPolicy {
    const KIND: ProtocolKind = ProtocolKind::DiCoArin;
    const AREAS: bool = true;
    const STATE_FIRST: bool = true;

    type LinePropos = NoPropos;
    type Home = L2Role;
    type Tx = ArinTx;

    fn new(spec: &ChipSpec) -> Self {
        assert!(spec.num_areas() <= MAX_AREAS);
        Self { bcast_blocked: vec![FxHashSet::default(); spec.tiles()] }
    }

    /// First remote-area read: the ownership dissolves (paper §III-B).
    /// We become a provider; the data parks at the home, which becomes
    /// the SBA ordering point.
    fn owner_remote_read(f: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = f.spec.lat;
        let line = f.l1[tile].get_mut(block).expect("owner line");
        let (dirty, version) = (line.dirty(), line.version);
        line.state = L1State::Provider;
        line.sharers = SharerSet::EMPTY;
        f.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    make_provider: true,
                    ..DataInfo::shared(version, Supplier::OwnerL1)
                }),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            lat.l1_hit(),
        );
        let home = Node::L2(f.home(block));
        ctx.send(
            Msg {
                kind: MsgKind::SbaTransition {
                    dirty,
                    version,
                    former: tile,
                    reader: req.requestor,
                },
                block,
                src: Node::L1(tile),
                dst: home,
            },
            lat.l1_hit(),
        );
        f.tombstones.set(tile, block, home);
    }

    /// The SBA provider serves the in-area read; the new copy is a
    /// provider too (paper §IV-B optimization).
    fn provider_read(f: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let version = f.l1[tile].peek(block).expect("provider line").version;
        f.l1[tile].touch(block);
        f.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    make_provider: true,
                    ..DataInfo::shared(version, Supplier::ProviderL1)
                }),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            f.spec.lat.l1_hit(),
        );
    }

    fn home_serve(f: &mut Arin, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        match f.l2[home].peek(msg.block).expect("home entry").home {
            L2Role::Sba { propos } => serve_sba(f, ctx, home, msg.block, req, propos),
            L2Role::Owner { sharers, area } => {
                serve_as_l2_owner(f, ctx, home, msg.block, req, sharers, area)
            }
        }
    }

    fn evict_home(f: &mut Arin, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry<Self>) {
        match e.home {
            L2Role::Owner { sharers, area } => {
                // Like DiCo: invalidate the (single-area) sharers.
                let Some(area) = area.filter(|_| !sharers.is_empty()) else {
                    f.write_back_later(home, block, e.dirty, e.version);
                    return;
                };
                f.home_queues[home].set_busy(block);
                let tx = ArinTx::SbaEvict {
                    acks_left: sharers.len() as i64,
                    dirty: e.dirty,
                    version: e.version,
                };
                f.tx[home].insert(block, HomeTx::Policy(tx));
                let me = Node::L2(home);
                let inv = Msg {
                    kind: MsgKind::Inv { reply_to: me, version: e.version },
                    block,
                    src: me,
                    dst: me,
                };
                f.send_invs(ctx, inv, area, sharers, f.spec.lat.l2_tag);
            }
            L2Role::Sba { .. } => {
                // Shared between areas: the paper's broadcast eviction.
                f.stats.broadcast_invs.inc();
                f.home_queues[home].set_busy(block);
                let tx = ArinTx::SbaEvict {
                    acks_left: f.spec.tiles() as i64,
                    dirty: e.dirty,
                    version: e.version,
                };
                f.tx[home].insert(block, HomeTx::Policy(tx));
                let me = Node::L2(home);
                ctx.broadcast(
                    MsgKind::BcastInv { reply_to: me },
                    block,
                    me,
                    None,
                    f.spec.lat.l2_tag,
                );
            }
        }
    }

    fn home_from_wb(spec: &ChipSpec, src: Tile, sharers: SharerSet, _: &Propos) -> L2Role {
        let area = (!sharers.is_empty()).then(|| spec.area_of(src));
        L2Role::Owner { sharers, area }
    }

    fn home_ack(f: &mut Arin, ctx: &mut Ctx, home: Tile, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        let Some(HomeTx::Policy(ArinTx::SbaEvict { acks_left, dirty, version })) =
            f.tx[home].get_mut(&block)
        else {
            return Err(ProtoError::new(
                Self::KIND,
                msg.dst,
                block,
                format!(
                    "stray invalidation ack at home (no SbaEvict transaction; from {:?})",
                    msg.src
                ),
            ));
        };
        *acks_left -= 1;
        if *acks_left == 0 {
            let (dirty, version) = (*dirty, *version);
            f.retire_eviction(ctx, home, block, dirty, version);
            // Unblock everyone.
            ctx.broadcast(MsgKind::BcastUnblock, block, Node::L2(home), None, 0);
            f.release_home(ctx, home, block);
        }
        Ok(())
    }

    fn home_coverage(spec: &ChipSpec, home: &L2Role) -> Option<SharerSet> {
        match *home {
            L2Role::Owner { sharers, area: Some(a) } => {
                Some(sharers.iter().map(|i| spec.areas.tile_in_area(a, i)).collect())
            }
            L2Role::Owner { area: None, .. } => Some(SharerSet::EMPTY),
            // Tracked by broadcast, not by sharing codes.
            L2Role::Sba { .. } => None,
        }
    }

    /// Third step of the three-way invalidation: unblock all L1s and
    /// commit the new owner at the home.
    fn broadcast_write_done(f: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block) {
        ctx.broadcast(MsgKind::BcastUnblock, block, Node::L1(tile), Some(tile), 0);
        ctx.send(
            Msg {
                kind: MsgKind::BcastDone { new_owner: Some(tile) },
                block,
                src: Node::L1(tile),
                dst: Node::L2(f.home(block)),
            },
            0,
        );
    }

    fn handle_other(f: &mut Arin, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        match (msg.dst, msg.kind) {
            (Node::L1(_), MsgKind::BcastAck) => f.l1_ack(ctx, msg)?,
            (Node::L1(tile), MsgKind::InvSilent) => {
                f.stats.l1_tag.inc();
                if !f.is_owner(tile, block) {
                    f.l1[tile].remove(block);
                    if let Some(e) = f.mshr[tile].get_mut(block) {
                        if !e.write {
                            e.pending_inv = Some(u64::MAX);
                        }
                    }
                }
            }
            (Node::L1(tile), MsgKind::BcastInv { reply_to }) => {
                bcast_inv(f, ctx, tile, block, reply_to)
            }
            (Node::L1(tile), MsgKind::BcastUnblock) => {
                // Step 3: unblock and replay anything that queued
                // meanwhile. The replay must not wait for a local MSHR:
                // the queued requests do not depend on it, and holding
                // them can close a mutual-wait cycle with another tile
                // whose miss is sitting in *our* queue. Replayed
                // messages re-park or re-route as usual.
                f.policy.bcast_blocked[tile].remove(&block);
                if !f.l1_queues[tile].is_busy(block) && !f.co_pending[tile].contains(&block) {
                    for m in f.l1_queues[tile].release(block) {
                        ctx.replay(m);
                    }
                }
            }
            (Node::L2(home), MsgKind::SbaTransition { dirty, version, former, reader }) => {
                let mut propos: Propos = [None; MAX_AREAS];
                propos[f.spec.area_of(former)] = Some(former as u16);
                propos[f.spec.area_of(reader)] = Some(reader as u16);
                // The transition also satisfies a pending ownership
                // recall: the data (and the ordering point) are home now.
                let entry = L2Entry { dirty, version, home: L2Role::Sba { propos } };
                f.home_take_ownership(ctx, home, block, entry);
            }
            (Node::L2(home), MsgKind::BcastDone { new_owner }) => {
                let Some(HomeTx::Policy(ArinTx::SbaWrite { writer })) = f.tx[home].remove(&block)
                else {
                    panic!("BcastDone without SbaWrite");
                };
                debug_assert_eq!(new_owner, Some(writer));
                // The block is area-confined again, owned by the writer;
                // the home's stale SBA data is dropped.
                f.stats.l2c_access.inc();
                f.l2[home].remove(block);
                f.l2c_insert(ctx, home, block, writer);
                f.release_home(ctx, home, block);
                f.release_bounces(ctx, home, block);
            }
            (Node::L2(home), MsgKind::BcastAck) => Self::home_ack(f, ctx, home, msg)?,
            _ => return Err(ProtoError::unexpected(Self::KIND, &msg)),
        }
        Ok(())
    }

    fn blocked(&self, tile: Tile, block: Block) -> bool {
        self.bcast_blocked[tile].contains(&block)
    }

    fn quiescent(&self) -> bool {
        self.bcast_blocked.iter().all(|s| s.is_empty())
    }

    fn pending_summary(&self, tile: Tile, out: &mut String) {
        let mut blocked: Vec<Block> = self.bcast_blocked[tile].iter().copied().collect();
        blocked.sort_unstable();
        for b in blocked {
            out.push_str(&format!("tile {tile} bcast_blocked block {b:#x}\n"));
        }
    }
}

/// SBA block at the ordering point.
fn serve_sba(
    f: &mut Arin,
    ctx: &mut Ctx,
    home: Tile,
    block: Block,
    req: ReqInfo,
    mut propos: Propos,
) {
    let lat = f.spec.lat;
    let req_area = f.spec.area_of(req.requestor);
    if req.write {
        // Three-way broadcast invalidation (paper §IV-B1).
        f.stats.broadcast_invs.inc();
        let e = f.l2[home].peek(block).expect("SBA entry");
        let (dirty, version) = (e.dirty, e.version);
        f.home_queues[home].set_busy(block);
        f.tx[home].insert(block, HomeTx::Policy(ArinTx::SbaWrite { writer: req.requestor }));
        f.stats.l2_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: (f.spec.tiles() - 1) as u32,
                    sba_write: true,
                    dirty,
                    ..DataInfo::shared(version, Supplier::HomeL2)
                }),
                block,
                src: Node::L2(home),
                dst: Node::L1(req.requestor),
            },
            lat.l2_access(),
        );
        ctx.broadcast(
            MsgKind::BcastInv { reply_to: Node::L1(req.requestor) },
            block,
            Node::L2(home),
            Some(req.requestor),
            lat.l2_tag,
        );
        return;
    }
    // Read: the data is always here. Keep the provider pointers fresh
    // (paper §IV-B: a forwarded request whose forwarder matches the
    // stored provider replaces it with the requestor).
    match propos[req_area] {
        Some(p) if req.forwarder == Some(p as Tile) => {
            ctx.send(
                Msg {
                    kind: MsgKind::InvSilent,
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(p as Tile),
                },
                lat.l2_tag,
            );
            propos[req_area] = Some(req.requestor as u16);
        }
        // A provider exists: hand its identity to the requestor so its
        // future misses go there; data still served here (one serve, no
        // extra hop — the hint rides along).
        Some(p) if p as Tile != req.requestor => {}
        _ => propos[req_area] = Some(req.requestor as u16),
    }
    let hint = propos[req_area].map(|p| p as Tile).filter(|&p| p != req.requestor);
    let e = f.l2[home].peek_mut(block).expect("SBA entry");
    e.home = L2Role::Sba { propos };
    let version = e.version;
    f.stats.l2_data_read.inc();
    ctx.send(
        Msg {
            kind: MsgKind::Data(DataInfo {
                make_provider: true,
                provider_hint: hint,
                ..DataInfo::shared(version, Supplier::HomeL2)
            }),
            block,
            src: Node::L2(home),
            dst: Node::L1(req.requestor),
        },
        lat.l2_access(),
    );
    // No busy state: SBA reads are unordered with each other; only
    // writes serialize (through the broadcast).
}

/// The home holds the ownership of an area-confined block.
fn serve_as_l2_owner(
    f: &mut Arin,
    ctx: &mut Ctx,
    home: Tile,
    block: Block,
    req: ReqInfo,
    sharers: SharerSet,
    area: Option<usize>,
) {
    let lat = f.spec.lat;
    let req_area = f.spec.area_of(req.requestor);
    let req_idx = f.idx(req.requestor);
    if !req.write {
        if area.is_some_and(|a| a != req_area) && !sharers.is_empty() {
            // Copies confined to another area: the block becomes shared
            // between areas; the home is already a provider ("the L2
            // becomes a provider immediately"). The old area's sharers
            // become untracked (the later broadcast covers them).
            let mut propos = [None; MAX_AREAS];
            propos[req_area] = Some(req.requestor as u16);
            let e = f.l2[home].peek_mut(block).expect("home entry");
            e.home = L2Role::Sba { propos };
            let version = e.version;
            f.stats.l2_data_read.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        make_provider: true,
                        ..DataInfo::shared(version, Supplier::HomeL2)
                    }),
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(req.requestor),
                },
                lat.l2_access(),
            );
            return;
        }
        // Same area (or no copies): grant the ownership like DiCo.
        let others = sharers.without(req_idx);
        let e = f.l2[home].remove(block).expect("home entry");
        f.stats.l2_data_read.inc();
        let data = DataInfo {
            exclusive: others.is_empty(),
            ownership: true,
            sharers: others,
            dirty: e.dirty,
            ..DataInfo::shared(e.version, Supplier::HomeL2)
        };
        f.home_grant(ctx, home, block, req.requestor, data);
        return;
    }
    // Write: invalidate the (single-area) sharers, grant ownership.
    let others = if area == Some(req_area) { sharers.without(req_idx) } else { sharers };
    let targets = if area.is_some() { others } else { SharerSet::EMPTY };
    let e = f.l2[home].remove(block).expect("home entry");
    f.stats.l2_data_read.inc();
    let writer = Node::L1(req.requestor);
    let inv = Msg {
        kind: MsgKind::Inv { reply_to: writer, version: e.version },
        block,
        src: Node::L2(home),
        dst: writer,
    };
    f.send_invs(ctx, inv, area.unwrap_or(0), targets, lat.l2_tag);
    let data = DataInfo {
        exclusive: true,
        ownership: true,
        acks_sharers: targets.len(),
        dirty: e.dirty,
        ..DataInfo::shared(e.version, Supplier::HomeL2)
    };
    f.home_grant(ctx, home, block, req.requestor, data);
}

/// Step 1 of the three-way invalidation, at each L1.
fn bcast_inv(f: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
    f.stats.l1_tag.inc();
    f.l1[tile].remove(block);
    if let Some(e) = f.mshr[tile].get_mut(block) {
        if !e.write {
            e.pending_inv = Some(u64::MAX);
        }
    }
    f.policy.bcast_blocked[tile].insert(block);
    if let Node::L1(writer) = reply_to {
        f.learn(tile, block, writer);
    }
    ctx.send(
        Msg { kind: MsgKind::BcastAck, block, src: Node::L1(tile), dst: reply_to },
        f.spec.lat.l1_tag,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CopyState;
    use crate::harness::Harness;

    fn harness() -> Harness<Arin> {
        Harness::new(Arin::new(ChipSpec::small()))
    }

    #[test]
    fn area_confined_behaves_like_dico() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 (area 0) owns
        h.run_checked(1000);
        h.push_access(1, 100, false); // same area: plain sharer
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[1].get(&100).unwrap().state, CopyState::Shared));
        assert!(matches!(snap.l1[0].get(&100).unwrap().state, CopyState::Owner { .. }));
    }

    #[test]
    fn remote_read_dissolves_ownership() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner in area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // area 1 read -> SBA
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        // Both the former owner and the reader are providers now.
        assert!(matches!(snap.l1[0].get(&100).unwrap().state, CopyState::Provider));
        assert!(matches!(snap.l1[2].get(&100).unwrap().state, CopyState::Provider));
        // The data parked at the home L2.
        assert!(snap.l2.get(&100).map(|v| v.has_data).unwrap_or(false));
    }

    #[test]
    fn sba_reads_all_become_providers() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // SBA transition
        h.run_checked(2000);
        for t in [3usize, 8, 10, 13] {
            h.push_access(t, 100, false);
        }
        h.run_checked(8000);
        let snap = h.proto.snapshot();
        for t in [2usize, 3, 8, 10, 13] {
            assert!(
                matches!(snap.l1[t].get(&100).unwrap().state, CopyState::Provider),
                "tile {t} should be a provider"
            );
        }
    }

    #[test]
    fn sba_write_broadcasts_and_reconfines() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // SBA
        h.push_access(8, 100, false);
        h.run_checked(4000);
        h.push_access(10, 100, true); // write -> three-way broadcast
        h.run_checked(10_000);
        let snap = h.proto.snapshot();
        for t in [0usize, 2, 8] {
            assert!(!snap.l1[t].contains_key(&100), "tile {t} survived the broadcast");
        }
        assert!(matches!(
            snap.l1[10].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
        assert!(h.proto.stats().broadcast_invs.get() >= 1);
        // And the block is area-confined again: a same-area read is a
        // plain DiCo 2-hop serve.
        h.push_access(11, 100, false);
        h.run_checked(12_000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[11].get(&100).unwrap().state, CopyState::Shared));
    }

    #[test]
    fn provider_serves_in_area_read_two_hops() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // provider in area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // area 1: unpredicted -> home knows provider
        h.run_checked(3000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[3].get(&100).unwrap().state, CopyState::Provider));
    }

    #[test]
    fn ping_pong_writes_across_areas() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access([0, 2, 8, 10][i % 4], 64, true);
        }
        h.run_checked(80_000);
        assert_eq!(*h.proto.snapshot().authority.get(&64).unwrap(), 12);
    }

    #[test]
    fn read_write_interleave_with_sba() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.push_access(0, 100, false);
        h.run_checked(2000);
        h.push_access(10, 100, false); // SBA
        h.push_access(11, 100, false);
        h.run_checked(6000);
        h.push_access(0, 100, true); // broadcast write back to area 0
        h.run_checked(12_000);
        let snap = h.proto.snapshot();
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
        assert!(!snap.l1[10].contains_key(&100));
        assert!(!snap.l1[11].contains_key(&100));
    }
}
