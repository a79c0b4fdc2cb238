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
//! forwarding bound hold at every step. A step is incremental — it reads
//! only the touched block's L1 copies through
//! [`CoherenceProtocol::l1_copies`] (one probe per tile, no replacement
//! state touched); the whole-chip [`ChipSnapshot`] is taken only when the
//! chip is quiescent, where the full checks (plus owner-pointer
//! consistency) run, and once more when a checked run's event loop
//! drains. It keeps a bounded history of raw recent events, formatted
//! only when a violation report shows what led up to it.

use crate::common::{Block, CoherenceProtocol, Msg, MsgKind, SharerSet, Tile, MAX_CHASE_HOPS};
use cmpsim_engine::Cycle;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    let errors = violations(snap, false);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.into_iter().map(|(_, e)| e).collect())
    }
}

/// Every violated quiescent invariant, each with the block it concerns,
/// in [`check`]'s order; `owner_pointers` appends the owner-pointer
/// consistency check (every home that names an L1 owner must find that
/// L1 actually owning the block — ownership moves are never silent, so
/// at quiescence the pointer is exact).
fn violations(snap: &ChipSnapshot, owner_pointers: bool) -> Vec<(Block, String)> {
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
        let mut push = |e: String| errors.push((block, e));

        // 1. Single owner.
        let owners: Vec<Tile> = copies
            .iter()
            .filter(|(_, c)| matches!(c.state, CopyState::Owner { .. }))
            .map(|(t, _)| *t)
            .collect();
        if owners.len() > 1 {
            push(format!("block {block:#x}: multiple owners {owners:?}"));
        }

        // 2. Exclusivity.
        for (t, c) in &copies {
            if let CopyState::Owner { exclusive: true, .. } = c.state {
                if copies.len() > 1 {
                    push(format!(
                        "block {block:#x}: exclusive owner in tile {t} but {} copies exist",
                        copies.len()
                    ));
                }
            }
        }

        // 3. No stale copies.
        for (t, c) in &copies {
            if c.version != authority {
                push(format!(
                    "block {block:#x}: tile {t} holds version {} but authority is {authority}",
                    c.version
                ));
            }
        }
        let dirty_owner = copies
            .iter()
            .any(|(_, c)| matches!(c.state, CopyState::Owner { dirty: true, .. }));
        if l2.has_data && !dirty_owner && l2.version != authority {
            push(format!(
                "block {block:#x}: L2 holds version {} but authority is {authority}",
                l2.version
            ));
        }

        // 4. Coverage: every real copy is known to the protocol (when
        //    the block is tracked precisely).
        if let Some(&bits) = snap.recorded.get(&block) {
            for (t, _) in &copies {
                if !bits.contains(*t) {
                    push(format!(
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
            push(format!(
                "block {block:#x}: latest version {authority} lost (memory has {mem_version})"
            ));
        }
    }

    if owner_pointers {
        for (&block, view) in &snap.l2 {
            if let Some(t) = view.owner_in_l1 {
                let owns = matches!(
                    snap.l1.get(t).and_then(|m| m.get(&block)).map(|c| c.state),
                    Some(CopyState::Owner { .. })
                );
                if !owns {
                    errors.push((
                        block,
                        format!(
                            "block {block:#x}: home points at owner tile {t}, which does not own the block"
                        ),
                    ));
                }
            }
        }
    }
    errors
}

/// What a [`HistoryEntry`] records, kept raw: it is formatted only when
/// a violation is reported.
#[derive(Debug, Clone, Copy)]
pub enum HistoryEvent {
    /// A core access presented to its L1.
    Access {
        /// Issuing tile.
        tile: Tile,
        /// Store (`true`) or load.
        write: bool,
    },
    /// A delivered message.
    Message(Msg),
}

impl fmt::Display for HistoryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryEvent::Access { tile, write } => {
                write!(f, "core {tile} {}", if *write { "store" } else { "load" })
            }
            HistoryEvent::Message(m) => write!(f, "{:?} -> {:?}: {:?}", m.src, m.dst, m.kind),
        }
    }
}

/// One entry in the [`StepChecker`]'s event history.
#[derive(Debug, Clone, Copy)]
pub struct HistoryEntry {
    /// Cycle the event happened at.
    pub cycle: Cycle,
    /// Block concerned.
    pub block: Block,
    /// The event itself.
    pub event: HistoryEvent,
}

/// Per-message invariant checker (the watchdog's second half).
///
/// After each handled message, only the invariants that survive
/// transient states may be asserted — exclusivity and stale-copy checks
/// are *legally* violated while invalidations are in flight, so they run
/// only when the chip is quiescent. What holds at every step:
///
/// * **SWMR single owner** — at most one L1 owns the touched block;
/// * **forwarding bound** — no request has been L1-to-L1 forwarded more
///   than [`MAX_CHASE_HOPS`] times;
/// * **at quiescence** — the full [`check`] plus owner-pointer
///   consistency (every home that names an L1 owner must find that L1
///   actually owning the block).
///
/// A step reads only the touched block's L1 copies
/// ([`CoherenceProtocol::l1_copies`]); the whole-chip [`ChipSnapshot`] is
/// taken only at quiescence and by [`check_drained`](Self::check_drained).
#[derive(Debug, Clone)]
pub struct StepChecker {
    history: VecDeque<HistoryEntry>,
    capacity: usize,
    /// The touched block's L1 copies (reused across steps).
    copies: Vec<(Tile, CopyView)>,
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
        Self { history: VecDeque::new(), capacity, copies: Vec::new() }
    }

    fn push(&mut self, cycle: Cycle, block: Block, event: HistoryEvent) {
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(HistoryEntry { cycle, block, event });
    }

    /// Records a core access in the history window.
    pub fn record_access(&mut self, now: Cycle, tile: Tile, block: Block, write: bool) {
        self.push(now, block, HistoryEvent::Access { tile, write });
    }

    /// Records a delivered message in the history window.
    pub fn record_message(&mut self, now: Cycle, msg: &Msg) {
        self.push(now, msg.block, HistoryEvent::Message(*msg));
    }

    /// Validates the mid-flight invariants after `proto` handled `msg`;
    /// `quiescent` additionally triggers the full quiescent-state checks.
    /// Returns every violation found (empty = pass).
    pub fn check_step<P: CoherenceProtocol + ?Sized>(
        &mut self,
        msg: &Msg,
        proto: &P,
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
        proto.l1_copies(msg.block, &mut self.copies);
        let is_owner = |c: &CopyView| matches!(c.state, CopyState::Owner { .. });
        if self.copies.iter().filter(|(_, c)| is_owner(c)).nth(1).is_some() {
            let owners: Vec<Tile> =
                self.copies.iter().filter(|(_, c)| is_owner(c)).map(|(t, _)| *t).collect();
            errors.push(format!("block {:#x}: multiple owners {owners:?}", msg.block));
        }

        if quiescent {
            errors.extend(violations(&proto.snapshot(), true).into_iter().map(|(_, e)| e));
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The full quiescent-state checks of [`check_step`](Self::check_step)
    /// on a chip whose event loop has drained, whatever its last event
    /// was. On failure returns the block of the first violation and
    /// every violation found.
    pub fn check_drained<P: CoherenceProtocol + ?Sized>(
        &self,
        proto: &P,
    ) -> Result<(), (Block, Vec<String>)> {
        let errors = violations(&proto.snapshot(), true);
        match errors.first() {
            None => Ok(()),
            Some(&(block, _)) => Err((block, errors.into_iter().map(|(_, e)| e).collect())),
        }
    }

    /// The recorded history window for `block`, oldest first.
    pub fn history_for(&self, block: Block) -> Vec<String> {
        self.history
            .iter()
            .filter(|e| e.block == block)
            .map(|e| format!("cycle {}: {}", e.cycle, e.event))
            .collect()
    }

    /// The full recorded history window, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.history.iter()
    }
}

/// The step check as it was before [`CoherenceProtocol::l1_copies`]:
/// SWMR read off a whole-chip snapshot taken after every message. Kept
/// as the oracle that [`StepChecker::check_step`] is differentially
/// tested against.
#[cfg(test)]
pub(crate) fn check_step_whole_chip(
    msg: &Msg,
    snap: &ChipSnapshot,
    quiescent: bool,
) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();

    if let MsgKind::Req(req) = msg.kind {
        if req.hops > MAX_CHASE_HOPS {
            errors.push(format!(
                "block {:#x}: request from tile {} exceeded the forwarding bound ({} hops > {MAX_CHASE_HOPS})",
                msg.block, req.requestor, req.hops
            ));
        }
    }

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
        use crate::common::{
            AccessOutcome, ChipSpec, Ctx, DataInfo, Node, ProtoError, ProtoStats, ProtocolKind,
            ReqInfo, Supplier,
        };

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

        /// A chip frozen in a hand-built snapshot, so a test can run the
        /// incremental step check on exactly the state the whole-chip
        /// oracle sees.
        struct Frozen {
            snap: ChipSnapshot,
            spec: ChipSpec,
            stats: ProtoStats,
        }

        impl CoherenceProtocol for Frozen {
            fn kind(&self) -> ProtocolKind {
                ProtocolKind::Directory
            }
            fn spec(&self) -> &ChipSpec {
                &self.spec
            }
            fn core_access(
                &mut self,
                _: &mut Ctx,
                _: Tile,
                _: Block,
                _: bool,
            ) -> Result<AccessOutcome, ProtoError> {
                unreachable!("a frozen chip takes no accesses")
            }
            fn handle(&mut self, _: &mut Ctx, _: Msg) -> Result<(), ProtoError> {
                unreachable!("a frozen chip takes no messages")
            }
            fn stats(&self) -> &ProtoStats {
                &self.stats
            }
            fn stats_mut(&mut self) -> &mut ProtoStats {
                &mut self.stats
            }
            fn reset_stats(&mut self) {}
            fn quiescent(&self) -> bool {
                true
            }
            fn snapshot(&self) -> ChipSnapshot {
                self.snap.clone()
            }
            fn l1_copies(&self, block: Block, out: &mut Vec<(Tile, CopyView)>) {
                out.clear();
                out.extend(
                    self.snap
                        .l1
                        .iter()
                        .enumerate()
                        .filter_map(|(t, m)| m.get(&block).map(|c| (t, *c))),
                );
            }
            fn clone_box(&self) -> Box<dyn CoherenceProtocol> {
                unreachable!("a frozen chip is never forked")
            }
            fn save_state(&self, _: &mut cmpsim_engine::SnapWriter) {}
            fn load_state(
                &mut self,
                _: &mut cmpsim_engine::SnapReader<'_>,
            ) -> Result<(), cmpsim_engine::SnapError> {
                Ok(())
            }
        }

        /// Both step checks on `snap`; they must agree.
        fn step(msg: &Msg, snap: &ChipSnapshot, quiescent: bool) -> Result<(), Vec<String>> {
            let chip =
                Frozen { snap: snap.clone(), spec: ChipSpec::tiny(), stats: ProtoStats::default() };
            let verdict = StepChecker::new().check_step(msg, &chip, quiescent);
            assert_eq!(verdict, check_step_whole_chip(msg, snap, quiescent));
            verdict
        }

        #[test]
        fn hop_bound_enforced() {
            let s = snap2();
            assert!(step(&req_msg(MAX_CHASE_HOPS), &s, false).is_ok());
            let errs = step(&req_msg(MAX_CHASE_HOPS + 1), &s, false).unwrap_err();
            assert!(errs.iter().any(|e| e.contains("forwarding bound")));
        }

        #[test]
        fn midflight_allows_transient_staleness_but_not_double_owner() {
            let mut s = snap2();
            // A stale sharer is legal mid-flight (invalidation en route)…
            s.authority.insert(1, 5);
            s.l1[0].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: false, dirty: true }, version: 5 },
            );
            s.l1[1].insert(1, CopyView { state: CopyState::Shared, version: 4 });
            assert!(step(&req_msg(0), &s, false).is_ok());
            // …but a second owner never is.
            s.l1[1].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: false, dirty: false }, version: 4 },
            );
            let errs = step(&req_msg(0), &s, false).unwrap_err();
            assert!(errs.iter().any(|e| e.contains("multiple owners")));
            // At quiescence the same state also fails the whole-chip checks.
            let errs = step(&req_msg(MAX_CHASE_HOPS + 1), &s, true).unwrap_err();
            assert_eq!(errs.len(), 4, "{errs:?}");
        }

        #[test]
        fn quiescent_owner_pointer_must_be_accurate() {
            let mut s = snap2();
            s.l2.insert(1, L2View { has_data: false, version: 0, dirty: false, owner_in_l1: Some(1) });
            let errs = step(&req_msg(0), &s, true).unwrap_err();
            assert!(errs.iter().any(|e| e.contains("points at owner tile 1")));
            s.l1[1].insert(
                1,
                CopyView { state: CopyState::Owner { exclusive: true, dirty: false }, version: 0 },
            );
            s.recorded.insert(1, SharerSet::from_bits(0b10));
            assert!(step(&req_msg(0), &s, true).is_ok());
        }

        #[test]
        fn drained_check_names_the_first_offending_block() {
            let mut s = snap2();
            s.authority.insert(3, 2);
            s.l2.insert(
                5,
                L2View { has_data: false, version: 0, dirty: false, owner_in_l1: Some(0) },
            );
            let chip = Frozen { snap: s, spec: ChipSpec::tiny(), stats: ProtoStats::default() };
            let (block, errs) = StepChecker::new().check_drained(&chip).unwrap_err();
            assert_eq!(block, 3);
            assert_eq!(
                errs,
                [
                    "block 0x3: latest version 2 lost (memory has 0)",
                    "block 0x5: home points at owner tile 0, which does not own the block",
                ]
            );
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

        /// Crash dumps and `replay --check` print these lines; their text
        /// is part of the output contract.
        #[test]
        fn history_renders_accesses_and_messages_byte_for_byte() {
            let mut chk = StepChecker::new();
            chk.record_access(40, 3, 7, true);
            chk.record_access(41, 2, 7, false);
            chk.record_message(
                52,
                &Msg {
                    kind: MsgKind::Data(DataInfo::shared(1, Supplier::HomeL2)),
                    block: 7,
                    src: Node::L2(0),
                    dst: Node::L1(1),
                },
            );
            chk.record_message(60, &req_msg(MAX_CHASE_HOPS));
            assert_eq!(
                chk.history_for(7),
                [
                    "cycle 40: core 3 store",
                    "cycle 41: core 2 load",
                    "cycle 52: L2(0) -> L1(1): Data(DataInfo { exclusive: false, ownership: false, \
                     make_provider: false, sharers: 0, propos: [None, None, None, None, None, None, \
                     None, None, None, None, None, None, None, None, None, None], provider_hint: None, \
                     acks_sharers: 0, acks_providers: 0, sba_write: false, dirty: false, version: 1, \
                     supplier: HomeL2 })",
                ]
            );
            assert_eq!(chk.history_for(1), [
                    "cycle 60: L1(0) -> L1(1): Req(ReqInfo { requestor: 0, write: false, forwarder: None, \
                     via_home: false, predicted: false, vouched: false, hops: 8 })"
                ]);
        }
    }
}
