//! DiCo-Providers (paper §III-A and §IV-A, Tables I and II).
//!
//! The chip is statically divided into areas. Coherence information is
//! kept **per area**:
//!
//! * the *owner* L1 keeps the sharing code of its own area (an
//!   `nta`-bit vector) plus one provider pointer (`ProPo`) per remote
//!   area;
//! * each *provider* keeps the sharing code of its own area and serves
//!   in-area reads, so misses to data shared between areas (deduplicated
//!   pages) resolve in two short hops without leaving the area;
//! * the home L2, when it holds the ownership, keeps only the ProPos —
//!   never sharers (those live at the providers).
//!
//! Request handling follows the paper's Table I verbatim; replacements
//! follow Table II (providership/ownership hand-off to a sharer of the
//! area, `Change_Provider` / `No_Provider` / `Change_Owner` registration
//! messages, ownership recall on L2C$ eviction with the former owner
//! staying on as its area's provider).
//!
//! Stale pointers are self-correcting rather than blocking: a request
//! forwarded to a cache that is no longer the supplier chases the
//! hand-off tombstone (point-to-point FIFO delivery guarantees the
//! hand-off arrives first) or returns to the node that forwarded it,
//! which recognises its own stale pointer through the `forwarder` field
//! and repairs it — the same mechanism the paper introduces for
//! DiCo-Arin's provider pointers.

use crate::common::*;
use crate::family::{
    propo_count, Family, HomeTx, L1Line, L1State, L2Entry, PolicyTx, SharingPolicy, Tombstones,
};
use cmpsim_engine::{Cycle, Snap, SnapError, SnapReader, SnapWriter};

/// The DiCo-Providers protocol.
pub type Providers = Family<ProvidersPolicy>;

/// DiCo-Providers' sharing policy: the owner keeps its area's sharing
/// code plus one ProPo per area, providers keep their areas' codes, and
/// the home L2 keeps only ProPos.
#[derive(Debug, Clone)]
pub struct ProvidersPolicy {
    /// Providership hand-off tombstones.
    ptombstones: Tombstones<Tile>,
}

cmpsim_engine::impl_snap!(ProvidersPolicy { ptombstones });

/// Eviction of a home-owned entry: invalidating through providers.
#[derive(Debug, Clone)]
pub enum ProvidersTx {
    /// The home collects the providers' `AckCount`s and the sharer acks
    /// they announce.
    EvictL2 {
        /// Sharer acks still owed.
        acks_left: i64,
        /// Provider acks still owed.
        provider_acks_left: i64,
        /// Dirty with respect to memory.
        dirty: bool,
        /// Data version.
        version: u64,
    },
}

impl PolicyTx for ProvidersTx {
    fn save(&self, w: &mut SnapWriter) {
        let ProvidersTx::EvictL2 { acks_left, provider_acks_left, dirty, version } = self;
        w.u8(3);
        acks_left.save(w);
        provider_acks_left.save(w);
        dirty.save(w);
        version.save(w);
    }

    fn load_tagged(tag: u8, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match tag {
            3 => Ok(ProvidersTx::EvictL2 {
                acks_left: Snap::load(r)?,
                provider_acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            }),
            tag => Err(SnapError::BadTag { what: "providers::HomeTx", tag }),
        }
    }
}

impl SharingPolicy for ProvidersPolicy {
    const KIND: ProtocolKind = ProtocolKind::DiCoProviders;
    const AREAS: bool = true;
    const HINT_FRESH_OWNER: bool = true;
    const PROVIDERS_TRACK: bool = true;

    type LinePropos = Propos;
    type Home = Propos;
    type Tx = ProvidersTx;

    fn new(spec: &ChipSpec) -> Self {
        assert!(spec.num_areas() <= MAX_AREAS, "too many areas for the ProPo array");
        Self { ptombstones: Tombstones::new(spec.tiles()) }
    }

    /// Table I: a read from another area goes to that area's provider,
    /// or makes the requestor its area's provider.
    fn owner_remote_read(f: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = f.spec.lat;
        let req_area = f.spec.area_of(req.requestor);
        let provider = f.l1[tile].peek(block).expect("owner line").propos[req_area];
        match provider {
            Some(p) if req.forwarder != Some(p as Tile) => {
                // Forward to the provider of the requestor's area.
                let fwd =
                    ReqInfo { forwarder: Some(tile), hops: req.hops.saturating_add(1), ..req };
                f.send_req(ctx, block, Node::L1(tile), Node::L1(p as Tile), fwd, lat.l1_tag);
            }
            _ => {
                // No provider (or our pointer just bounced): serve and
                // make the requestor the provider. A displaced pointer's
                // copy may still be live (message crossing): destroy it
                // silently so no untracked copy survives.
                if let Some(p) = provider {
                    ctx.send(
                        Msg {
                            kind: MsgKind::InvSilent,
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(p as Tile),
                        },
                        lat.l1_tag,
                    );
                }
                let line = f.l1[tile].get_mut(block).expect("owner line");
                line.propos[req_area] = Some(req.requestor as u16);
                if let L1State::Owner { exclusive, .. } = &mut line.state {
                    *exclusive = false;
                }
                let version = line.version;
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
            }
        }
    }

    /// Table I: the provider serves an in-area read and tracks the reader.
    fn provider_read(f: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let i = f.idx(req.requestor);
        let line = f.l1[tile].get_mut(block).expect("provider line");
        line.sharers.insert(i);
        let version = line.version;
        f.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo::shared(version, Supplier::ProviderL1)),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            f.spec.lat.l1_hit(),
        );
    }

    /// Table II: providership and sharing code go to a sharer of the
    /// area; with no sharers left the owner learns it (via the home).
    fn evict_provider(
        f: &mut Providers,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        line: L1Line<Self>,
    ) {
        f.stats.l1_repl_transactions.inc();
        let area = f.spec.area_of(tile);
        match line.sharers.first() {
            Some(i) => {
                let target = f.member(area, i);
                let rest = line.sharers.without(i);
                f.policy.ptombstones.set(tile, block, target);
                ctx.send(
                    Msg {
                        kind: MsgKind::ProvidershipTransfer {
                            sharers: rest,
                            remaining: rest,
                            former: tile,
                        },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L1(target),
                    },
                    f.spec.lat.l1_tag,
                );
            }
            None => {
                let home = f.home(block);
                ctx.send(
                    Msg {
                        kind: MsgKind::NoProvider { area: area as u16, former: tile },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L2(home),
                    },
                    f.spec.lat.l1_tag,
                );
            }
        }
    }

    /// The former owner stays on as the provider of its area (paper
    /// §IV-A1, L2C$ replacement); the home gets the ProPos.
    fn surrender(f: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block) {
        let area = f.spec.area_of(tile);
        let line = f.l1[tile].get_mut(block).expect("owner line");
        let (dirty, version) = (line.dirty(), line.version);
        let mut propos = line.propos;
        propos[area] = Some(tile as u16);
        line.state = L1State::Provider;
        line.propos = [None; MAX_AREAS];
        f.stats.l1_data_read.inc();
        let home = f.home(block);
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipToHome {
                    dirty,
                    version,
                    propos,
                    sharers: SharerSet::EMPTY,
                    former_stays_provider: true,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            f.spec.lat.l1_hit(),
        );
    }

    /// Table I, L2 rows: a read with a live provider in its area is
    /// forwarded there; otherwise the requestor becomes the owner.
    fn home_serve(f: &mut Providers, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let lat = f.spec.lat;
        let req_area = f.spec.area_of(req.requestor);
        if !req.write {
            let propo = f.l2[home].peek(block).expect("home entry").home[req_area];
            match propo {
                Some(p) if req.forwarder != Some(p as Tile) && p as Tile != req.requestor => {
                    let fwd = ReqInfo { via_home: true, hops: 0, ..req };
                    f.send_req(ctx, block, Node::L2(home), Node::L1(p as Tile), fwd, lat.l2_tag);
                    return;
                }
                Some(p) if req.forwarder == Some(p as Tile) => {
                    // The provider pointer is stale (or the messages
                    // crossed): repair it and destroy any surviving copy
                    // at the displaced provider.
                    f.l2[home].peek_mut(block).expect("home entry").home[req_area] = None;
                    ctx.send(
                        Msg {
                            kind: MsgKind::InvSilent,
                            block,
                            src: Node::L2(home),
                            dst: Node::L1(p as Tile),
                        },
                        lat.l2_tag,
                    );
                }
                _ => {}
            }
        }
        // Grant the ownership to the requestor (Table I: L2 owner, no
        // provider -> requestor becomes owner).
        let e = f.l2[home].remove(block).expect("home entry");
        f.stats.l2_data_read.inc();
        let propos = e.home;
        let n_prov = propo_count(&propos);
        if req.write {
            f.send_provider_invs(ctx, Node::L2(home), block, &propos, Node::L1(req.requestor));
        }
        let data = DataInfo {
            exclusive: n_prov == 0,
            ownership: true,
            propos: if req.write { [None; MAX_AREAS] } else { propos },
            acks_providers: if req.write { n_prov } else { 0 },
            dirty: e.dirty,
            ..DataInfo::shared(e.version, Supplier::HomeL2)
        };
        f.home_grant(ctx, home, block, req.requestor, data);
    }

    /// Evicting a home-owned entry invalidates through the providers
    /// (the home acts as owner and requestor at once, paper §IV-A).
    fn evict_home(f: &mut Providers, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry<Self>) {
        let n = propo_count(&e.home);
        if n == 0 {
            f.write_back_later(home, block, e.dirty, e.version);
            return;
        }
        f.home_queues[home].set_busy(block);
        let tx = ProvidersTx::EvictL2 {
            acks_left: 0,
            provider_acks_left: n as i64,
            dirty: e.dirty,
            version: e.version,
        };
        f.tx[home].insert(block, HomeTx::Policy(tx));
        f.send_provider_invs(ctx, Node::L2(home), block, &e.home, Node::L2(home));
    }

    fn home_from_wb(_: &ChipSpec, _: Tile, _: SharerSet, propos: &Propos) -> Propos {
        *propos
    }

    fn home_ack(f: &mut Providers, ctx: &mut Ctx, home: Tile, msg: Msg) -> Result<(), ProtoError> {
        home_eviction_ack(f, ctx, home, msg, None)
    }

    fn home_coverage(_: &ChipSpec, home: &Propos) -> Option<SharerSet> {
        Some(home.iter().flatten().map(|&p| p as Tile).collect())
    }

    fn handle_other(f: &mut Providers, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        match (msg.dst, msg.kind) {
            (Node::L1(tile), MsgKind::AckCount { sharers }) => {
                let Some(e) = f.mshr[tile].get_mut(block) else {
                    return Err(ProtoError::new(
                        Self::KIND,
                        msg.dst,
                        block,
                        format!("provider ack-count without MSHR entry (from {:?})", msg.src),
                    ));
                };
                e.provider_acks_needed -= 1;
                e.acks_needed += sharers as i64;
                f.try_complete(ctx, tile, block);
            }
            (Node::L1(tile), MsgKind::InvSilent) => inv_silent(f, ctx, tile, block),
            (Node::L1(tile), MsgKind::InvProvider { reply_to }) => {
                inv_provider(f, ctx, tile, block, reply_to)
            }
            (Node::L1(tile), MsgKind::ProvidershipTransfer { sharers, former, .. }) => {
                provider_transfer(f, ctx, tile, block, sharers, former);
            }
            // Informational only (see module docs): no blocking state.
            (Node::L1(_), MsgKind::ChangeProviderAck) => {}
            (Node::L1(tile), MsgKind::ChangeProvider { .. } | MsgKind::NoProvider { .. }) => {
                owner_provider_update(f, ctx, tile, msg);
            }
            (Node::L2(home), MsgKind::ChangeProvider { .. } | MsgKind::NoProvider { .. }) => {
                home_provider_update(f, ctx, home, msg);
            }
            (Node::L2(home), MsgKind::AckCount { sharers }) => {
                home_eviction_ack(f, ctx, home, msg, Some(sharers))?;
            }
            _ => return Err(ProtoError::unexpected(Self::KIND, &msg)),
        }
        Ok(())
    }
}

/// An ack (`None`) or a provider's `AckCount` reaches a home evicting
/// the block.
fn home_eviction_ack(
    f: &mut Providers,
    ctx: &mut Ctx,
    home: Tile,
    msg: Msg,
    provider_count: Option<u32>,
) -> Result<(), ProtoError> {
    let block = msg.block;
    let Some(HomeTx::Policy(ProvidersTx::EvictL2 {
        acks_left,
        provider_acks_left,
        dirty,
        version,
    })) = f.tx[home].get_mut(&block)
    else {
        let what = if provider_count.is_some() { "provider ack-count" } else { "invalidation ack" };
        return Err(ProtoError::new(
            ProvidersPolicy::KIND,
            msg.dst,
            block,
            format!("stray {what} at home (no EvictL2 transaction; from {:?})", msg.src),
        ));
    };
    match provider_count {
        Some(sharers) => {
            *provider_acks_left -= 1;
            *acks_left += sharers as i64;
        }
        None => *acks_left -= 1,
    }
    if *acks_left == 0 && *provider_acks_left == 0 {
        let (dirty, version) = (*dirty, *version);
        f.retire_eviction(ctx, home, block, dirty, version);
        f.release_home(ctx, home, block);
    }
    Ok(())
}

/// A silent invalidation: an owner copy is authoritative and ignores
/// it; a provider cascades to its tracked sharers.
fn inv_silent(f: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block) {
    f.stats.l1_tag.inc();
    match f.l1[tile].peek(block) {
        Some(line) if matches!(line.state, L1State::Owner { .. }) => {}
        Some(line) => {
            if line.state == L1State::Provider {
                let area = f.spec.area_of(tile);
                for i in line.sharers.iter() {
                    ctx.send(
                        Msg {
                            kind: MsgKind::InvSilent,
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(f.member(area, i)),
                        },
                        f.spec.lat.l1_tag,
                    );
                }
            }
            f.l1[tile].remove(block);
        }
        None => {
            if let Some(e) = f.mshr[tile].get_mut(block) {
                if !e.write {
                    // Kill the fill in flight from before the repair.
                    e.pending_inv = Some(u64::MAX);
                }
            }
        }
    }
}

/// Invalidate a provider: it cascades to its area sharers and
/// acknowledges with the cascaded count.
fn inv_provider(f: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
    f.stats.l1_tag.inc();
    let lat = f.spec.lat;
    let ack_count = |sharers| Msg {
        kind: MsgKind::AckCount { sharers },
        block,
        src: Node::L1(tile),
        dst: reply_to,
    };
    if matches!(f.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Provider)) {
        let line = f.l1[tile].remove(block).expect("provider line");
        let inv = Msg {
            kind: MsgKind::Inv { reply_to, version: line.version },
            block,
            src: Node::L1(tile),
            dst: reply_to,
        };
        f.send_invs(ctx, inv, f.spec.area_of(tile), line.sharers, lat.l1_tag);
        ctx.send(ack_count(line.sharers.len()), lat.l1_tag);
        if let Node::L1(new_owner) = reply_to {
            f.learn(tile, block, new_owner);
        }
        return;
    }
    // Not (or no longer) the provider: chase the providership hand-off
    // (FIFO delivery guarantees it arrived first), else the area
    // genuinely has no tracked sharers.
    if let Some(next) = f.policy.ptombstones.get(tile, block) {
        ctx.send(
            Msg {
                kind: MsgKind::InvProvider { reply_to },
                block,
                src: Node::L1(tile),
                dst: Node::L1(next),
            },
            lat.l1_tag,
        );
        return;
    }
    // Drop any plain copy we still hold and report zero cascades. A
    // stale `InvProvider` can reach a tile that has since become the
    // owner (mid-upgrade, say); the owner line is not ours to drop.
    if !matches!(f.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. })) {
        f.l1[tile].remove(block);
    }
    if let Some(e) = f.mshr[tile].get_mut(block) {
        if !e.write && !e.have_data {
            e.pending_inv = Some(u64::MAX);
        }
    }
    ctx.send(ack_count(0), lat.l1_tag);
}

/// A providership hand-off arrives: a plain sharer takes it and
/// registers with the owner; anyone else passes it on, or reports that
/// the area has no provider left.
fn provider_transfer(
    f: &mut Providers,
    ctx: &mut Ctx,
    tile: Tile,
    block: Block,
    sharers: SharerSet,
    former: Tile,
) {
    f.stats.l1_tag.inc();
    let lat = f.spec.lat;
    let mine = sharers.without(f.idx(tile));
    let area = f.spec.area_of(tile);
    let home = f.home(block);
    if matches!(f.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Sharer { .. })) {
        let line = f.l1[tile].get_mut(block).expect("sharer line");
        line.state = L1State::Provider;
        line.sharers = mine;
        // Register with the owner (routed via the home; best-effort — a
        // stale ProPo self-corrects through the forwarder check).
        ctx.send(
            Msg {
                kind: MsgKind::ChangeProvider { area: area as u16, new_provider: tile },
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            lat.l1_tag,
        );
        // Hint the inherited sharers about their new supplier (paper
        // Figure 5), keeping their predictions warm.
        f.send_hints(ctx, tile, block, mine);
        return;
    }
    match mine.first() {
        Some(i) => {
            let target = f.member(area, i);
            f.policy.ptombstones.set(tile, block, target);
            ctx.send(
                Msg {
                    kind: MsgKind::ProvidershipTransfer {
                        sharers: mine,
                        remaining: mine.without(i),
                        former,
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(target),
                },
                lat.l1_tag,
            );
        }
        None => ctx.send(
            Msg {
                kind: MsgKind::NoProvider { area: area as u16, former },
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            lat.l1_tag,
        ),
    }
}

/// Applies a `Change_Provider` / `No_Provider` to a ProPo array; a
/// `Change_Provider` is acknowledged by `src` after `delay`.
fn apply_provider_update(propos: &mut Propos, ctx: &mut Ctx, msg: Msg, src: Node, delay: Cycle) {
    match msg.kind {
        MsgKind::ChangeProvider { area, new_provider } => {
            propos[area as usize] = Some(new_provider as u16);
            ctx.send(
                Msg {
                    kind: MsgKind::ChangeProviderAck,
                    block: msg.block,
                    src,
                    dst: Node::L1(new_provider),
                },
                delay,
            );
        }
        MsgKind::NoProvider { area, former } => {
            if propos[area as usize] == Some(former as u16) {
                propos[area as usize] = None;
            }
        }
        _ => unreachable!(),
    }
}

/// `Change_Provider` / `No_Provider` arriving at the home: applied to the
/// home's own entry, or forwarded to the L1 owner.
fn home_provider_update(f: &mut Providers, ctx: &mut Ctx, home: Tile, msg: Msg) {
    f.stats.l2c_access.inc();
    let delay = f.spec.lat.l2_tag;
    if let Some(&owner) = f.l2c[home].peek(msg.block) {
        ctx.send(Msg { dst: Node::L1(owner), src: Node::L2(home), ..msg }, delay);
        return;
    }
    if let Some(e) = f.l2[home].peek_mut(msg.block) {
        apply_provider_update(&mut e.home, ctx, msg, Node::L2(home), delay);
    }
    // Ownership in transit: drop; stale pointers self-correct.
}

/// The same updates arriving at an owner L1 (anywhere else they are
/// stale and dropped; the pointer will self-correct).
fn owner_provider_update(f: &mut Providers, ctx: &mut Ctx, tile: Tile, msg: Msg) {
    f.stats.l1_tag.inc();
    let delay = f.spec.lat.l1_tag;
    if f.is_owner(tile, msg.block) {
        let line = f.l1[tile].peek_mut(msg.block).expect("owner line");
        apply_provider_update(&mut line.propos, ctx, msg, Node::L1(tile), delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CopyState;
    use crate::harness::Harness;

    fn harness() -> Harness<Providers> {
        Harness::new(Providers::new(ChipSpec::small()))
    }

    /// ChipSpec::small is a 4x4 mesh with four 2x2 areas:
    /// area 0 = {0,1,4,5}, area 1 = {2,3,6,7}, area 2 = {8,9,12,13},
    /// area 3 = {10,11,14,15}.
    #[test]
    fn area_layout_assumption() {
        let spec = ChipSpec::small();
        assert_eq!(spec.area_of(0), 0);
        assert_eq!(spec.area_of(2), 1);
        assert_eq!(spec.area_of(8), 2);
        assert_eq!(spec.area_of(15), 3);
    }

    #[test]
    fn local_read_serves_as_dico() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 owner (area 0)
        h.run_checked(1000);
        h.push_access(1, 100, false); // same area read
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[1].get(&100).unwrap().state, CopyState::Shared));
    }

    #[test]
    fn remote_read_creates_provider() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner in area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // area 1 reads -> becomes provider
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[2].get(&100).unwrap().state, CopyState::Provider));
    }

    #[test]
    fn provider_serves_in_area_read() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // provider of area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // same area as tile 2
        h.run_checked(3000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[3].get(&100).unwrap().state, CopyState::Shared));
        // Tile 3 had no prediction: its request went through the home,
        // which forwarded to the owner, which forwarded to the provider —
        // the data still came from the provider L1.
        let s = h.proto.stats();
        assert!(s.class_count(MissClass::UnpredictedForwarded) >= 1, "classes: {:?}", s.miss_class);
    }

    #[test]
    fn predicted_provider_hit_is_classified() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // tile 2 provider (area 1)
        h.run_checked(2000);
        h.push_access(3, 100, false); // tile 3 sharer, hint -> tile 2
        h.run_checked(3000);
        // Evict nothing; tile 3's line hint points at the provider. Write
        // some other block then re-miss on 100 via eviction is complex;
        // instead make tile 6 (same area) read with a learned prediction:
        // tile 6 has no hint, so seed its L1C$ through an invalidation is
        // overkill — simply have tile 3 lose its copy by another tile's
        // write, then re-read using the hint learned from the Inv.
        h.push_access(0, 100, true); // invalidates everyone, tile 3 learns owner=0
        h.run_checked(5000);
        h.push_access(3, 100, false); // predicted to tile 0 (owner) -> 2-hop
        h.run_checked(6000);
        assert!(
            h.proto.stats().class_count(MissClass::PredictedOwnerHit) >= 1
                || h.proto.stats().class_count(MissClass::PredictedProviderHit) >= 1,
            "classes: {:?}",
            h.proto.stats().miss_class
        );
    }

    #[test]
    fn write_invalidates_across_areas() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner area 0
        h.run_checked(1000);
        for t in [1usize, 2, 3, 8, 10] {
            h.push_access(t, 100, false); // sharers + providers in 4 areas
        }
        h.run_checked(8000);
        h.push_access(5, 100, true); // write from area 0
        h.run_checked(10_000);
        let snap = h.proto.snapshot();
        for t in [0usize, 1, 2, 3, 8, 10] {
            assert!(!snap.l1[t].contains_key(&100), "tile {t} kept a stale copy");
        }
        assert!(matches!(
            snap.l1[5].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
    }

    #[test]
    fn writer_who_is_provider_invalidates_own_area() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // tile 2 provider of area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // tile 3 sharer tracked by tile 2
        h.run_checked(3000);
        h.push_access(2, 100, true); // the provider writes
        h.run_checked(6000);
        let snap = h.proto.snapshot();
        assert!(!snap.l1[3].contains_key(&100), "tile 3 must be invalidated by tile 2");
        assert!(!snap.l1[0].contains_key(&100));
        assert!(matches!(
            snap.l1[2].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
    }

    #[test]
    fn ping_pong_across_areas_serializes() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access([0, 2, 8, 10][i % 4], 64, true);
        }
        h.run_checked(60_000);
        assert_eq!(*h.proto.snapshot().authority.get(&64).unwrap(), 12);
    }
}
