//! Direct Coherence (DiCo), the paper's baseline proposal (§II-B).
//!
//! Ownership, data and the full-map sharing code live together in the
//! owner L1. An L1 miss predicts the owner through the L1C$ (or the
//! pointer embedded in an evicted line) and goes straight to it — two
//! hops in the common case, without visiting the home. The home's L2C$
//! stores the *exact* identity of the L1 owner and redirects
//! mispredicted requests.
//!
//! Ownership movement rules implemented as the paper describes:
//!
//! * a write moves the ownership to the writer; the **old** owner starts
//!   the invalidation of its sharers and sends `Change_Owner` to the
//!   home; the **new** owner may not transfer the ownership again until
//!   the home's acknowledgement arrives;
//! * owner replacement passes the ownership (plus sharing code and data)
//!   to a sharer, which registers itself with `Change_Owner`; a target
//!   that silently dropped its copy forwards the transfer to the next
//!   candidate, falling back to the home;
//! * an L2C$ eviction recalls the ownership from the L1 into the home.
//!
//! Unlike the blocking directory, reads are resolved without serializing
//! through the home, so a read fill and the invalidation of a later
//! write can cross on the wire; invalidations carry the epoch they kill
//! and a fill that lost such a race completes the read (it was
//! serialized first) but is not installed.

use crate::common::*;
use crate::family::{Family, HomeTx, L2Entry, NoPropos, PolicyTx, SharingPolicy};
use cmpsim_engine::{Snap, SnapError, SnapReader, SnapWriter};

/// The Direct Coherence protocol.
pub type DiCo = Family<DiCoPolicy>;

/// DiCo's sharing policy: a chip-wide full map at the owner (the home's
/// L2 entry keeps the same map when the home owns the block).
#[derive(Debug, Clone, Default)]
pub struct DiCoPolicy;

impl Snap for DiCoPolicy {
    fn save(&self, _: &mut SnapWriter) {}

    fn load(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(DiCoPolicy)
    }
}

/// Eviction of an L2-owner data line: collecting invalidation acks.
#[derive(Debug, Clone)]
pub enum DiCoTx {
    /// The home invalidates the entry's sharers.
    EvictL2 {
        /// Acks still owed.
        acks_left: u32,
        /// Dirty with respect to memory.
        dirty: bool,
        /// Data version.
        version: u64,
    },
}

impl PolicyTx for DiCoTx {
    fn save(&self, w: &mut SnapWriter) {
        let DiCoTx::EvictL2 { acks_left, dirty, version } = self;
        w.u8(3);
        acks_left.save(w);
        dirty.save(w);
        version.save(w);
    }

    fn load_tagged(tag: u8, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match tag {
            3 => Ok(DiCoTx::EvictL2 {
                acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            }),
            tag => Err(SnapError::BadTag { what: "dico::HomeTx", tag }),
        }
    }
}

impl SharingPolicy for DiCoPolicy {
    const KIND: ProtocolKind = ProtocolKind::DiCo;
    const AREAS: bool = false;
    const FORGET_ON_UPGRADE: bool = false;

    type LinePropos = NoPropos;
    type Home = SharerSet;
    type Tx = DiCoTx;

    fn new(_: &ChipSpec) -> Self {
        DiCoPolicy
    }

    /// The home is the owner: grant the ownership to the requestor
    /// (ownership lives in L1s whenever possible in DiCo). The grant runs
    /// under a busy flag released by the requestor's Unblock, which also
    /// commits the L2C$ pointer.
    fn home_serve(f: &mut DiCo, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let e = f.l2[home].remove(block).expect("home entry");
        f.stats.l2_data_read.inc();
        let others = e.home.without(req.requestor);
        let writer = Node::L1(req.requestor);
        if req.write {
            let inv = Msg {
                kind: MsgKind::Inv { reply_to: writer, version: e.version },
                block,
                src: Node::L2(home),
                dst: writer,
            };
            f.send_invs(ctx, inv, 0, others, f.spec.lat.l2_tag);
        }
        let data = DataInfo {
            exclusive: others.is_empty(),
            ownership: true,
            sharers: if req.write { SharerSet::EMPTY } else { others },
            acks_sharers: if req.write { others.len() } else { 0 },
            dirty: e.dirty,
            ..DataInfo::shared(e.version, Supplier::HomeL2)
        };
        f.home_grant(ctx, home, block, req.requestor, data);
    }

    /// Evicting an L2-owner line invalidates every sharer (the home acts
    /// as both owner and requestor, paper §IV-A).
    fn evict_home(f: &mut DiCo, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry<Self>) {
        if e.home.is_empty() {
            f.write_back_later(home, block, e.dirty, e.version);
            return;
        }
        f.home_queues[home].set_busy(block);
        let tx = DiCoTx::EvictL2 { acks_left: e.home.len(), dirty: e.dirty, version: e.version };
        f.tx[home].insert(block, HomeTx::Policy(tx));
        let me = Node::L2(home);
        let inv = Msg {
            kind: MsgKind::Inv { reply_to: me, version: e.version },
            block,
            src: me,
            dst: me,
        };
        f.send_invs(ctx, inv, 0, e.home, f.spec.lat.l2_tag);
    }

    fn home_from_wb(_: &ChipSpec, _: Tile, sharers: SharerSet, _: &Propos) -> SharerSet {
        sharers
    }

    fn home_ack(f: &mut DiCo, ctx: &mut Ctx, home: Tile, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        let Some(HomeTx::Policy(DiCoTx::EvictL2 { acks_left, dirty, version })) =
            f.tx[home].get_mut(&block)
        else {
            return Err(ProtoError::new(
                Self::KIND,
                msg.dst,
                block,
                format!(
                    "stray invalidation ack at home (no EvictL2 transaction; from {:?})",
                    msg.src
                ),
            ));
        };
        *acks_left -= 1;
        if *acks_left == 0 {
            let (dirty, version) = (*dirty, *version);
            f.retire_eviction(ctx, home, block, dirty, version);
            f.release_home(ctx, home, block);
        }
        Ok(())
    }

    fn home_coverage(_: &ChipSpec, home: &SharerSet) -> Option<SharerSet> {
        Some(*home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CopyState;
    use crate::harness::Harness;

    fn harness() -> Harness<DiCo> {
        Harness::new(DiCo::new(ChipSpec::small()))
    }

    #[test]
    fn first_read_owner_from_memory() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.run_checked(1000);
        let snap = h.proto.snapshot();
        assert!(matches!(
            snap.l1[0].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: false }
        ));
        assert_eq!(h.proto.stats().class_count(MissClass::Memory), 1);
    }

    #[test]
    fn second_reader_becomes_sharer_via_home() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[1].get(&100).unwrap().state, CopyState::Shared));
        // No prediction available -> through the home -> forwarded.
        assert_eq!(h.proto.stats().class_count(MissClass::UnpredictedForwarded), 1);
    }

    #[test]
    fn prediction_resolves_two_hop() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 owns
        h.run_checked(1000);
        h.push_access(1, 100, false); // sharer, learns the owner
        h.run_checked(2000);
        // Tile 1 writes: its line hint points at tile 0.
        h.push_access(1, 100, true);
        h.run_checked(3000);
        assert_eq!(h.proto.stats().class_count(MissClass::PredictedOwnerHit), 1);
        let snap = h.proto.snapshot();
        assert!(matches!(
            snap.l1[1].get(&100).unwrap().state,
            CopyState::Owner { dirty: true, .. }
        ));
        assert!(!snap.l1[0].contains_key(&100), "old owner invalidated itself");
    }

    #[test]
    fn upgrade_in_place_invalidates_sharers() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.push_access(2, 100, false);
        h.run_checked(3000);
        // Tile 0 is owner with sharers {1, 2}; writes again in place.
        h.push_access(0, 100, true);
        h.run_checked(4000);
        let snap = h.proto.snapshot();
        assert!(!snap.l1[1].contains_key(&100));
        assert!(!snap.l1[2].contains_key(&100));
        assert!(matches!(
            snap.l1[0].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
    }

    #[test]
    fn write_by_sharer_moves_ownership() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.run_checked(2000);
        h.push_access(1, 100, true);
        h.run_checked(3000);
        let snap = h.proto.snapshot();
        assert!(matches!(
            snap.l1[1].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
    }

    #[test]
    fn ping_pong_writes_serialize() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access(i % 3, 64, true);
        }
        h.run_checked(40_000);
        assert_eq!(*h.proto.snapshot().authority.get(&64).unwrap(), 12);
    }

    #[test]
    fn owner_eviction_keeps_ownership_reachable() {
        let mut h = harness();
        // Tile 0 owns block 0; tile 1 shares it.
        h.push_access(0, 0, true);
        h.run_checked(1000);
        h.push_access(1, 0, false);
        h.run_checked(2000);
        // Force evictions in tile 0's set 0 (small L1: 8 sets).
        h.push_access(0, 128, false);
        h.push_access(0, 256, false);
        h.run_checked(8000);
        let snap = h.proto.snapshot();
        let t1_owner = matches!(snap.l1[1].get(&0).map(|c| c.state), Some(CopyState::Owner { .. }));
        let home_owner = snap.l2.get(&0).map(|v| v.has_data).unwrap_or(false);
        assert!(t1_owner || home_owner, "ownership lost on eviction");
    }
}
