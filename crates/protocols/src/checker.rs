//! Whole-chip coherence invariants.
//!
//! Protocols expose a [`ChipSnapshot`] of every cached copy plus the
//! write-serialization authority and the memory image. At quiescence (no
//! transaction in flight anywhere) the following must hold exactly:
//!
//! 1. **Single owner** — at most one L1 owns a block.
//! 2. **Exclusivity** — an exclusive/modified owner excludes every other
//!    L1 copy of the block.
//! 3. **No stale copies** — every valid L1 copy and every current L2 copy
//!    holds the latest committed version (a write that completed must
//!    have invalidated all stale copies).
//! 4. **Durability** — if no cache holds a block, memory (or the L2) must
//!    hold its latest version: writebacks are never lost.
//!
//! The randomized stress tests drive tens of thousands of accesses
//! through each protocol and call [`check`] at every quiescent point.
//!
//! [`StepChecker`] additionally validates the *mid-flight* invariants
//! after every handled message: the SWMR single-owner rule and DiCo's
//! forwarding bound hold at every step, and the full quiescent checks
//! (plus owner-pointer consistency) run whenever the chip drains. It
//! keeps a bounded history of recent events so a violation report can
//! show what led up to it.

use crate::common::{Block, Msg, MsgKind, SharerSet, Tile, MAX_CHASE_HOPS};
use cmpsim_engine::Cycle;
use std::collections::{BTreeMap, VecDeque};

/// State of one L1 copy, protocol-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyState {
    /// Plain sharer.
    Shared,
    /// Provider (DiCo-Providers / DiCo-Arin): a sharer that may supply
    /// data to in-area reads.
    Provider,
    /// Owner; `exclusive` means no other copy may exist, `dirty` means
    /// memory is stale.
    Owner {
        /// No other copies exist (E/M as opposed to O).
        exclusive: bool,
        /// Block modified with respect to memory.
        dirty: bool,
    },
}

/// One L1 copy.
#[derive(Debug, Clone, Copy)]
pub struct CopyView {
    /// Coherence state.
    pub state: CopyState,
    /// Data version held.
    pub version: u64,
}

/// The home L2 bank's view of a block.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2View {
    /// The L2 data array holds the block.
    pub has_data: bool,
    /// Version of the L2 copy (meaningful when `has_data`).
    pub version: u64,
    /// L2 copy modified with respect to memory.
    pub dirty: bool,
    /// The home believes this L1 holds the ownership.
    pub owner_in_l1: Option<Tile>,
}

/// Everything the checker needs.
#[derive(Debug, Clone, Default)]
pub struct ChipSnapshot {
    /// Per-tile L1 contents.
    pub l1: Vec<BTreeMap<Block, CopyView>>,
    /// Home-bank views, keyed by block.
    pub l2: BTreeMap<Block, L2View>,
    /// Latest committed version per block.
    pub authority: BTreeMap<Block, u64>,
    /// Memory image versions.
    pub memory: BTreeMap<Block, u64>,
    /// Directory conservativeness: for blocks where the protocol keeps
    /// precise sharer information, the chip-wide tile bit-set of copies
    /// it *believes* exist. Every real copy must be covered (stale bits
    /// are fine — silent evictions over-approximate). Blocks tracked by
    /// broadcast (DiCo-Arin's shared-between-areas state) are absent.
    pub recorded: BTreeMap<Block, SharerSet>,
}

impl ChipSnapshot {
    /// Creates an empty snapshot for `tiles` tiles.
    pub fn new(tiles: usize) -> Self {
        Self { l1: vec![BTreeMap::new(); tiles], ..Default::default() }
    }

    /// Every block that appears anywhere in the snapshot.
    fn all_blocks(&self) -> Vec<Block> {
        let mut blocks: Vec<Block> = self
            .l1
            .iter()
            .flat_map(|m| m.keys().copied())
            .chain(self.l2.keys().copied())
            .chain(self.authority.keys().copied())
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

/// Checks all invariants; returns every violation found (empty = pass).
pub fn check(snap: &ChipSnapshot) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();

    for block in snap.all_blocks() {
        let copies: Vec<(Tile, &CopyView)> = snap
            .l1
            .iter()
            .enumerate()
            .filter_map(|(t, m)| m.get(&block).map(|c| (t, c)))
            .collect();
        let authority = snap.authority.get(&block).copied().unwrap_or(0);
        let l2 = snap.l2.get(&block).copied().unwrap_or_default();

        // 1. Single owner.
        let owners: Vec<Tile> = copies
            .iter()
            .filter(|(_, c)| matches!(c.state, CopyState::Owner { .. }))
            .map(|(t, _)| *t)
            .collect();
        if owners.len() > 1 {
            errors.push(format!("block {block:#x}: multiple owners {owners:?}"));
        }

        // 2. Exclusivity.
        for (t, c) in &copies {
            if let CopyState::Owner { exclusive: true, .. } = c.state {
                if copies.len() > 1 {
                    errors.push(format!(
                        "block {block:#x}: exclusive owner in tile {t} but {} copies exist",
                        copies.len()
                    ));
                }
            }
        }

        // 3. No stale copies.
        for (t, c) in &copies {
            if c.version != authority {
                errors.push(format!(
                    "block {block:#x}: tile {t} holds version {} but authority is {authority}",
                    c.version
                ));
            }
        }
        let dirty_owner = copies
            .iter()
            .any(|(_, c)| matches!(c.state, CopyState::Owner { dirty: true, .. }));
        if l2.has_data && !dirty_owner && l2.version != authority {
            errors.push(format!(
                "block {block:#x}: L2 holds version {} but authority is {authority}",
                l2.version
            ));
        }

        // 4. Coverage: every real copy is known to the protocol (when
        //    the block is tracked precisely).
        if let Some(&bits) = snap.recorded.get(&block) {
            for (t, _) in &copies {
                if !bits.contains(*t) {
                    errors.push(format!(
                        "block {block:#x}: tile {t} holds an untracked copy (recorded {bits:#x})"
                    ));
                }
            }
        }

        // 5. Durability: someone must hold the latest version.
        let mem_version = snap.memory.get(&block).copied().unwrap_or(0);
        let cached_current =
            copies.iter().any(|(_, c)| c.version == authority) || (l2.has_data && l2.version == authority);
        if !cached_current && mem_version != authority {
            errors.push(format!(
                "block {block:#x}: latest version {authority} lost (memory has {mem_version})"
            ));
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// One entry in the [`StepChecker`]'s event history.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// Cycle the event happened at.
    pub cycle: Cycle,
    /// Block concerned.
    pub block: Block,
    /// Short description of the event.
    pub what: String,
}

/// Per-message invariant checker (the watchdog's second half).
///
/// After each handled message, only the invariants that survive
/// transient states may be asserted — exclusivity and stale-copy checks
/// are *legally* violated while invalidations are in flight, so they run
/// only when the protocol reports quiescence. What holds at every step:
///
/// * **SWMR single owner** — at most one L1 owns the touched block;
/// * **forwarding bound** — no request has been L1-to-L1 forwarded more
///   than [`MAX_CHASE_HOPS`] times;
/// * **at quiescence** — the full [`check`] plus owner-pointer
///   consistency (every home that names an L1 owner must find that L1
///   actually owning the block).
#[derive(Debug, Clone)]
pub struct StepChecker {
    history: VecDeque<HistoryEntry>,
    capacity: usize,
}

impl Default for StepChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl StepChecker {
    /// A checker with the default history window (512 events).
    pub fn new() -> Self {
        Self::with_capacity(512)
    }

    /// A checker keeping the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { history: VecDeque::with_capacity(capacity.min(4096)), capacity }
    }

    fn push(&mut self, cycle: Cycle, block: Block, what: String) {
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(HistoryEntry { cycle, block, what });
    }

    /// Records a core access in the history window.
    pub fn record_access(&mut self, now: Cycle, tile: Tile, block: Block, write: bool) {
        let rw = if write { "store" } else { "load" };
        self.push(now, block, format!("core {tile} {rw}"));
    }

    /// Records a delivered message in the history window.
    pub fn record_message(&mut self, now: Cycle, msg: &Msg) {
        self.push(now, msg.block, format!("{:?} -> {:?}: {:?}", msg.src, msg.dst, msg.kind));
    }

    /// Validates the mid-flight invariants after `msg` was handled;
    /// `quiescent` additionally triggers the full quiescent-state checks.
    /// Returns every violation found (empty = pass).
    pub fn check_step(
        &self,
        msg: &Msg,
        snap: &ChipSnapshot,
        quiescent: bool,
    ) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();

        // DiCo forwarding bound: a request must fall back to the home
        // after MAX_CHASE_HOPS L1-to-L1 forwards.
        if let MsgKind::Req(req) = msg.kind {
            if req.hops > MAX_CHASE_HOPS {
                errors.push(format!(
                    "block {:#x}: request from tile {} exceeded the forwarding bound ({} hops > {MAX_CHASE_HOPS})",
                    msg.block, req.requestor, req.hops
                ));
            }
        }

        // SWMR: at most one L1 owner of the touched block, at all times.
        let owners: Vec<Tile> = snap
            .l1
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                matches!(m.get(&msg.block).map(|c| c.state), Some(CopyState::Owner { .. }))
            })
            .map(|(t, _)| t)
            .collect();
        if owners.len() > 1 {
            errors.push(format!("block {:#x}: multiple owners {owners:?}", msg.block));
        }

        if quiescent {
            if let Err(mut errs) = check(snap) {
                errors.append(&mut errs);
            }
            // Owner-pointer consistency: a home naming an L1 owner must
            // find it owning the block (ownership moves are never silent,
            // so at quiescence the pointer is exact).
            for (&block, view) in &snap.l2 {
                if let Some(t) = view.owner_in_l1 {
                    let owns = matches!(
                        snap.l1.get(t).and_then(|m| m.get(&block)).map(|c| c.state),
                        Some(CopyState::Owner { .. })
                    );
                    if !owns {
                        errors.push(format!(
                            "block {block:#x}: home points at owner tile {t}, which does not own the block"
                        ));
                    }
                }
            }
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The recorded history window for `block`, oldest first.
    pub fn history_for(&self, block: Block) -> Vec<String> {
        self.history
            .iter()
            .filter(|e| e.block == block)
            .map(|e| format!("cycle {}: {}", e.cycle, e.what))
            .collect()
    }

    /// The full recorded history window, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.history.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap2() -> ChipSnapshot {
        ChipSnapshot::new(2)
    }

    #[test]
    fn empty_chip_passes() {
        assert!(check(&snap2()).is_ok());
    }

    #[test]
    fn coherent_sharing_passes() {
        let mut s = snap2();
        s.authority.insert(1, 3);
        s.l1[0].insert(1, CopyView { state: CopyState::Shared, version: 3 });
        s.l1[1].insert(
            1,
            CopyView { state: CopyState::Owner { exclusive: false, dirty: true }, version: 3 },
        );
        assert!(check(&s).is_ok());
    }

    #[test]
    fn detects_double_owner() {
        let mut s = snap2();
        for t in 0..2 {
            s.l1[t].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: false, dirty: false }, version: 0 },
            );
        }
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("multiple owners")));
    }

    #[test]
    fn detects_exclusivity_violation() {
        let mut s = snap2();
        s.l1[0].insert(
            1,
            CopyView { state: CopyState::Owner { exclusive: true, dirty: true }, version: 0 },
        );
        s.l1[1].insert(1, CopyView { state: CopyState::Shared, version: 0 });
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("exclusive owner")));
    }

    #[test]
    fn detects_stale_copy() {
        let mut s = snap2();
        s.authority.insert(1, 5);
        s.l1[0].insert(
            1,
            CopyView { state: CopyState::Owner { exclusive: true, dirty: true }, version: 5 },
        );
        // Tile 1 kept a stale shared copy that should have been
        // invalidated by the write that produced version 5.
        s.l1[1].insert(1, CopyView { state: CopyState::Shared, version: 4 });
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("version 4")));
    }

    #[test]
    fn detects_stale_l2() {
        let mut s = snap2();
        s.authority.insert(2, 7);
        s.l1[0].insert(2, CopyView { state: CopyState::Shared, version: 7 });
        s.l2.insert(2, L2View { has_data: true, version: 6, dirty: false, owner_in_l1: None });
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("L2 holds version 6")));
    }

    #[test]
    fn l2_may_lag_behind_dirty_owner() {
        let mut s = snap2();
        s.authority.insert(2, 7);
        s.l1[0].insert(
            2,
            CopyView { state: CopyState::Owner { exclusive: true, dirty: true }, version: 7 },
        );
        s.l2.insert(2, L2View { has_data: true, version: 6, dirty: false, owner_in_l1: Some(0) });
        // Hmm: exclusive owner + L2 data copy — exclusivity only counts L1
        // copies, and the stale L2 copy is permitted while a dirty owner
        // exists.
        assert!(check(&s).is_ok());
    }

    #[test]
    fn detects_lost_writeback() {
        let mut s = snap2();
        s.authority.insert(3, 2);
        // Nothing cached, memory never updated: version 2 vanished.
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("lost")));
    }

    #[test]
    fn memory_holding_latest_passes() {
        let mut s = snap2();
        s.authority.insert(3, 2);
        s.memory.insert(3, 2);
        assert!(check(&s).is_ok());
    }

    #[test]
    fn detects_untracked_copy() {
        let mut s = snap2();
        s.l1[0].insert(
            9,
            CopyView { state: CopyState::Owner { exclusive: false, dirty: false }, version: 0 },
        );
        s.l1[1].insert(9, CopyView { state: CopyState::Shared, version: 0 });
        // The protocol only recorded tile 0.
        s.recorded.insert(9, SharerSet::from_bits(0b01));
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("untracked copy")));
        // Covering both passes (extra stale bits are fine).
        s.recorded.insert(9, SharerSet::from_bits(0b1111));
        assert!(check(&s).is_ok());
    }

    mod step_checker {
        use super::*;
        use crate::common::{DataInfo, Node, ReqInfo, Supplier};

        fn req_msg(hops: u8) -> Msg {
            Msg {
                kind: MsgKind::Req(ReqInfo {
                    requestor: 0,
                    write: false,
                    forwarder: None,
                    via_home: false,
                    predicted: false,
                    vouched: false,
                    hops,
                }),
                block: 1,
                src: Node::L1(0),
                dst: Node::L1(1),
            }
        }

        #[test]
        fn hop_bound_enforced() {
            let chk = StepChecker::new();
            let s = snap2();
            assert!(chk.check_step(&req_msg(MAX_CHASE_HOPS), &s, false).is_ok());
            let errs = chk.check_step(&req_msg(MAX_CHASE_HOPS + 1), &s, false).unwrap_err();
            assert!(errs.iter().any(|e| e.contains("forwarding bound")));
        }

        #[test]
        fn midflight_allows_transient_staleness_but_not_double_owner() {
            let chk = StepChecker::new();
            let mut s = snap2();
            // A stale sharer is legal mid-flight (invalidation en route)…
            s.authority.insert(1, 5);
            s.l1[0].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: false, dirty: true }, version: 5 },
            );
            s.l1[1].insert(1, CopyView { state: CopyState::Shared, version: 4 });
            assert!(chk.check_step(&req_msg(0), &s, false).is_ok());
            // …but a second owner never is.
            s.l1[1].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: false, dirty: false }, version: 4 },
            );
            let errs = chk.check_step(&req_msg(0), &s, false).unwrap_err();
            assert!(errs.iter().any(|e| e.contains("multiple owners")));
        }

        #[test]
        fn quiescent_owner_pointer_must_be_accurate() {
            let chk = StepChecker::new();
            let mut s = snap2();
            s.l2.insert(1, L2View { has_data: false, version: 0, dirty: false, owner_in_l1: Some(1) });
            let errs = chk.check_step(&req_msg(0), &s, true).unwrap_err();
            assert!(errs.iter().any(|e| e.contains("points at owner tile 1")));
            s.l1[1].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: true, dirty: false }, version: 0 },
            );
            s.recorded.insert(1, SharerSet::from_bits(0b10));
            assert!(chk.check_step(&req_msg(0), &s, true).is_ok());
        }

        #[test]
        fn history_window_is_bounded_and_filtered() {
            let mut chk = StepChecker::with_capacity(4);
            for i in 0..10u64 {
                chk.record_access(i, 0, i % 2, i % 3 == 0);
            }
            assert_eq!(chk.history().count(), 4);
            let ones = chk.history_for(1);
            assert!(ones.iter().all(|e| e.starts_with("cycle")));
            let msg = Msg {
                kind: MsgKind::Data(DataInfo::shared(1, Supplier::HomeL2)),
                block: 7,
                src: Node::L2(0),
                dst: Node::L1(1),
            };
            chk.record_message(11, &msg);
            assert_eq!(chk.history_for(7).len(), 1);
        }
    }
}
