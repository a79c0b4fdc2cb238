//! In-crate test driver for the protocols.
//!
//! The full simulator (`cmpsim` crate) drives protocols through the mesh
//! NoC with contention and real memory controllers. For unit and stress
//! tests we want something smaller: this harness delivers every message
//! with a fixed latency, synthesizes memory responses, and runs per-tile
//! scripts of accesses to completion. It is deliberately timing-naive —
//! protocol *correctness* must not depend on timing, and the randomized
//! tests shuffle delivery latencies to prove it.

use crate::checker::{self, StepChecker};
use crate::common::{
    AccessOutcome, Block, CoherenceProtocol, Ctx, Msg, MsgKind, Node, Tile,
};
use cmpsim_engine::{Cycle, EventQueue, SimRng};
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug)]
enum Ev {
    Deliver(Msg),
    Retry(Tile),
}

/// Fixed-latency test driver around a protocol instance.
pub struct Harness<P: CoherenceProtocol> {
    /// The protocol under test (public for direct inspection).
    pub proto: P,
    queue: EventQueue<Ev>,
    /// Remaining scripted accesses per tile.
    scripts: Vec<VecDeque<(Block, bool)>>,
    /// Outstanding access per tile.
    outstanding: Vec<Option<(Block, bool)>>,
    /// Completed accesses per tile.
    pub completed: Vec<u64>,
    /// Per-message network latency (varied by tests).
    pub net_latency: Cycle,
    /// Memory latency.
    pub mem_latency: Cycle,
    /// Optional RNG for jittering delivery (None = deterministic fixed).
    pub jitter: Option<SimRng>,
    /// Per-(src, dst) in-order delivery floor: a dimension-ordered
    /// wormhole mesh preserves point-to-point ordering, and the
    /// protocols rely on it for (e.g.) Unblock-before-ChangeOwner.
    fifo: BTreeMap<(Node, Node), Cycle>,
    events_processed: u64,
    /// Optional per-message invariant checker (see
    /// [`enable_invariant_checker`](Self::enable_invariant_checker)).
    checker: Option<StepChecker>,
    /// Also run the whole-chip oracle on every checked message and
    /// require the same verdict.
    #[cfg(test)]
    differential: bool,
}

impl<P: CoherenceProtocol> Harness<P> {
    /// Wraps `proto`.
    pub fn new(proto: P) -> Self {
        let tiles = proto.spec().tiles();
        Self {
            proto,
            queue: EventQueue::new(),
            scripts: vec![VecDeque::new(); tiles],
            outstanding: vec![None; tiles],
            completed: vec![0; tiles],
            net_latency: 10,
            mem_latency: 100,
            jitter: None,
            fifo: BTreeMap::new(),
            events_processed: 0,
            checker: None,
            #[cfg(test)]
            differential: false,
        }
    }

    /// Turns on the per-message invariant checker: SWMR and the
    /// forwarding bound are validated for the touched block after every
    /// handled message, and the full whole-chip checks whenever the chip
    /// is quiescent and once more when the run drains. Pins down *when*
    /// an invariant first breaks instead of discovering it at the end.
    pub fn enable_invariant_checker(&mut self) {
        self.checker = Some(StepChecker::new());
    }

    /// Appends an access to a tile's script.
    pub fn push_access(&mut self, tile: Tile, block: Block, write: bool) {
        self.scripts[tile].push_back((block, write));
    }

    fn lat(&mut self, base: Cycle) -> Cycle {
        match &mut self.jitter {
            Some(rng) => base + rng.gen_range(base.max(1)),
            None => base,
        }
    }

    /// Applies one `Ctx` worth of protocol output.
    fn apply_ctx(&mut self, now: Cycle, ctx: Ctx) {
        for out in ctx.sends {
            let mut at = now + out.delay + self.lat(self.net_latency);
            let key = (out.msg.src, out.msg.dst);
            if let Some(&floor) = self.fifo.get(&key) {
                at = at.max(floor);
            }
            self.fifo.insert(key, at);
            self.queue.push(at, Ev::Deliver(out.msg));
        }
        for b in ctx.bcasts {
            for t in 0..self.proto.spec().tiles() {
                if Some(t) == b.exclude {
                    continue;
                }
                let at = now + b.delay + self.lat(self.net_latency);
                self.queue.push(
                    at,
                    Ev::Deliver(Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(t) }),
                );
            }
        }
        for m in ctx.replays {
            // Same-cycle replay; FIFO order preserves fairness.
            self.queue.push(now, Ev::Deliver(m));
        }
        for op in ctx.mem_ops {
            if !op.is_write {
                let at = now + op.delay + self.lat(self.mem_latency);
                self.queue.push(
                    at,
                    Ev::Deliver(Msg {
                        kind: MsgKind::MemData,
                        block: op.block,
                        src: Node::L2(op.home),
                        dst: Node::L2(op.home),
                    }),
                );
            }
            // Writebacks are fire-and-forget; the protocol updated its
            // memory image when it issued the op.
        }
        for c in ctx.completions {
            let tile = c.tile;
            assert!(
                self.outstanding[tile].is_some(),
                "completion for tile {tile} with no outstanding access"
            );
            self.outstanding[tile] = None;
            self.completed[tile] += 1;
            // Issue the tile's next scripted access.
            self.queue.push(now + c.delay + 1, Ev::Retry(tile));
        }
    }

    fn try_issue(&mut self, now: Cycle, tile: Tile) {
        if self.outstanding[tile].is_some() {
            return;
        }
        let Some(&(block, write)) = self.scripts[tile].front() else {
            return;
        };
        let mut ctx = Ctx::at(now);
        if let Some(chk) = &mut self.checker {
            chk.record_access(now, tile, block, write);
        }
        let outcome = self
            .proto
            .core_access(&mut ctx, tile, block, write)
            .unwrap_or_else(|e| panic!("{e}\n{}", self.proto.pending_summary()));
        match outcome {
            AccessOutcome::Hit { .. } => {
                self.scripts[tile].pop_front();
                self.completed[tile] += 1;
                self.apply_ctx(now, ctx);
                // Immediately try the next access.
                self.queue.push(now + 1, Ev::Retry(tile));
            }
            AccessOutcome::Miss => {
                self.scripts[tile].pop_front();
                self.outstanding[tile] = Some((block, write));
                self.apply_ctx(now, ctx);
            }
            AccessOutcome::Blocked { .. } => {
                self.apply_ctx(now, ctx);
                self.queue.push(now + 7, Ev::Retry(tile));
            }
        }
    }

    /// Runs every scripted access to completion. Panics (with context)
    /// if the system fails to drain within `max_events`.
    pub fn run(&mut self, max_events: u64) {
        // Kick every tile (the clock may have advanced in a prior run).
        let t0 = self.queue.now();
        for t in 0..self.proto.spec().tiles() {
            self.queue.push(t0, Ev::Retry(t));
        }
        // Debug knobs, read once per run (a malformed value warns once
        // instead of once per delivered message).
        let trace_tail = cmpsim_engine::env::flag(cmpsim_engine::env::TRACE);
        let trace_block: Option<u64> = cmpsim_engine::env::parsed_or_warn(
            cmpsim_engine::env::TRACE_BLOCK,
            "a block address (u64)",
        );
        while let Some((now, ev)) = self.queue.pop() {
            self.events_processed += 1;
            assert!(
                self.events_processed <= max_events,
                "harness did not drain after {max_events} events \
                 (deadlock or livelock?); outstanding: {:?}\n{}",
                self.outstanding
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_some())
                    .collect::<Vec<_>>(),
                self.proto.pending_summary()
            );
            match ev {
                Ev::Deliver(msg) => {
                    if trace_tail && self.events_processed > max_events.saturating_sub(200) {
                        cmpsim_engine::debug_log::trace(now, format_args!("{msg:?}"));
                    }
                    if let Some(b) = trace_block {
                        if msg.block == b {
                            cmpsim_engine::debug_log::trace(now, format_args!("{msg:?}"));
                        }
                    }
                    let mut ctx = Ctx::at(now);
                    if let Err(e) = self.proto.handle(&mut ctx, msg) {
                        let history = self
                            .checker
                            .as_ref()
                            .map(|c| c.history_for(msg.block).join("\n"))
                            .unwrap_or_default();
                        panic!("{e}\n{}\n{history}", self.proto.pending_summary());
                    }
                    self.apply_ctx(now, ctx);
                    if let Some(chk) = &mut self.checker {
                        chk.record_message(now, &msg);
                        // True quiescence needs an empty event queue too:
                        // fire-and-forget traffic (hints, acks, writebacks)
                        // is not tracked by the protocol's pending state.
                        let quiescent = self.queue.is_empty() && self.proto.quiescent();
                        let verdict = chk.check_step(&msg, &self.proto, quiescent);
                        #[cfg(test)]
                        if self.differential {
                            cross_check(&self.proto, &msg, quiescent, &verdict);
                        }
                        if let Err(errors) = verdict {
                            panic!(
                                "invariant violation at cycle {now} after {:?} -> {:?}: {:?}\n{}\nhistory of block {:#x}:\n{}",
                                msg.src,
                                msg.dst,
                                msg.kind,
                                errors.join("\n"),
                                msg.block,
                                chk.history_for(msg.block).join("\n")
                            );
                        }
                    }
                }
                Ev::Retry(tile) => self.try_issue(now, tile),
            }
        }
        // Everything scripted must have completed.
        for t in 0..self.proto.spec().tiles() {
            assert!(
                self.scripts[t].is_empty() && self.outstanding[t].is_none(),
                "tile {t} stuck: {} scripted left, outstanding {:?}\n{}",
                self.scripts[t].len(),
                self.outstanding[t],
                self.proto.pending_summary()
            );
        }
        assert!(self.proto.quiescent(), "protocol not quiescent after drain\n{}", self.proto.pending_summary());
        if let Some(chk) = &self.checker {
            if let Err((block, errors)) = chk.check_drained(&self.proto) {
                panic!(
                    "invariant violation at cycle {} after the event queue drained:\n{}\nhistory of block {block:#x}:\n{}",
                    self.queue.now(),
                    errors.join("\n"),
                    chk.history_for(block).join("\n")
                );
            }
        }
    }

    /// Runs and then checks every coherence invariant.
    pub fn run_checked(&mut self, max_events: u64) {
        self.run(max_events);
        let snap = self.proto.snapshot();
        if let Err(errors) = checker::check(&snap) {
            panic!(
                "coherence invariants violated ({} errors):\n{}",
                errors.len(),
                errors.join("\n")
            );
        }
    }

    /// Total accesses completed across all tiles.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }
}

/// Re-runs the step check of `msg` on the whole-chip oracle and
/// requires the same verdict, and the same L1 copies of the block from
/// `l1_copies` as from the snapshot.
#[cfg(test)]
fn cross_check<P: CoherenceProtocol>(
    proto: &P,
    msg: &Msg,
    quiescent: bool,
    verdict: &Result<(), Vec<String>>,
) {
    let snap = proto.snapshot();
    let mut copies = Vec::new();
    proto.l1_copies(msg.block, &mut copies);
    let listed: Vec<_> = snap
        .l1
        .iter()
        .enumerate()
        .filter_map(|(t, m)| m.get(&msg.block).map(|c| (t, *c)))
        .collect();
    assert_eq!(copies, listed, "l1_copies disagrees with snapshot on block {:#x}", msg.block);
    assert_eq!(
        *verdict,
        checker::check_step_whole_chip(msg, &snap, quiescent),
        "checkers disagree after {msg:?}"
    );
}

/// Generates a random access script mixing private and contended blocks,
/// pushes it into `h`, runs it, and checks invariants. The workhorse of
/// every protocol's stress tests.
pub fn random_stress<P: CoherenceProtocol>(
    h: &mut Harness<P>,
    seed: u64,
    ops_per_tile: usize,
    num_blocks: u64,
    write_frac: f64,
) {
    let mut rng = SimRng::new(seed);
    h.jitter = Some(rng.fork(0xbead));
    let tiles = h.proto.spec().tiles();
    for t in 0..tiles {
        for _ in 0..ops_per_tile {
            let block = rng.gen_range(num_blocks);
            let write = rng.gen_bool(write_frac);
            h.push_access(t, block, write);
        }
    }
    let budget = (ops_per_tile as u64 * tiles as u64 + 10) * 400;
    h.run_checked(budget);
    assert_eq!(h.total_completed(), (ops_per_tile * tiles) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arin::Arin;
    use crate::checker::{ChipSnapshot, CopyState, CopyView};
    use crate::common::{ChipSpec, ProtoError, ProtoStats, ProtocolKind, MAX_CHASE_HOPS};
    use crate::dico::DiCo;
    use crate::directory::Directory;
    use crate::providers::Providers;
    use cmpsim_engine::{SnapError, SnapReader, SnapWriter};

    /// A randomized stress case.
    struct Case {
        name: &'static str,
        tiny_chip: bool,
        ops_per_tile: usize,
        blocks: u64,
        write_frac: f64,
        /// Low nibble of a protocol's own seed `base << 4 | s`; `None`
        /// sweeps the six seeds from `(base + 1) << 12`.
        seed: Option<u64>,
    }

    const CASES: [Case; 5] = [
        Case { name: "read_heavy", tiny_chip: false, ops_per_tile: 60, blocks: 40, write_frac: 0.1, seed: Some(1) },
        Case { name: "write_heavy", tiny_chip: false, ops_per_tile: 60, blocks: 24, write_frac: 0.6, seed: Some(2) },
        Case { name: "high_contention", tiny_chip: false, ops_per_tile: 50, blocks: 4, write_frac: 0.5, seed: Some(3) },
        Case {
            name: "tiny_chip_capacity_pressure",
            tiny_chip: true,
            ops_per_tile: 80,
            blocks: 64,
            write_frac: 0.3,
            seed: Some(4),
        },
        Case { name: "many_seeds", tiny_chip: false, ops_per_tile: 30, blocks: 16, write_frac: 0.4, seed: None },
    ];

    fn stress<P: CoherenceProtocol>(make: fn(ChipSpec) -> P, base: u64) {
        for c in &CASES {
            let seeds: Vec<u64> = match c.seed {
                Some(s) => vec![base << 4 | s],
                None => (0..6).map(|s| ((base + 1) << 12) + s).collect(),
            };
            for seed in seeds {
                let mut h = Harness::new(make(if c.tiny_chip { ChipSpec::tiny() } else { ChipSpec::small() }));
                eprintln!("stress {} {} seed {seed:#x}", h.proto.kind().name(), c.name);
                random_stress(&mut h, seed, c.ops_per_tile, c.blocks, c.write_frac);
            }
        }
    }

    #[test]
    fn stress_every_protocol() {
        stress(Directory::new, 0xd);
        stress(DiCo::new, 0xa);
        stress(Providers::new, 0xc);
        stress(Arin::new, 0xe);
    }

    /// A stale `InvProvider` used to reach a tile that had since become
    /// the block's owner, fall through to "drop any plain copy" and
    /// remove the owner line mid-upgrade ("upgrade owner line" panic).
    /// The seed lies outside Providers' own stress seeds, so it is named
    /// here rather than in `CASES`.
    #[test]
    fn providers_stale_inv_provider_spares_the_owner() {
        let mut h = Harness::new(Providers::new(ChipSpec::tiny()));
        random_stress(&mut h, 0x60, 80, 64, 0.3);
    }

    /// How a [`Mutant`] breaks the protocol it wraps.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Mutation {
        /// From the `at`-th handled message on, tiles 0 and 1 both own
        /// that message's block, in `l1_copies` and `snapshot` alike.
        SecondOwner,
        /// The first request sent once `at` messages were handled carries
        /// one hop more than the forwarding bound allows.
        HopOverflow,
    }

    /// A protocol with one injected defect, for the checkers to catch.
    struct Mutant<P> {
        inner: P,
        mutation: Mutation,
        at: u64,
        handled: u64,
        forged: Option<Block>,
        overflowed: bool,
    }

    /// The tiles a [`Mutation::SecondOwner`] makes owners.
    const FORGED: [Tile; 2] = [0, 1];

    fn forged_owner(version: u64) -> CopyView {
        CopyView { state: CopyState::Owner { exclusive: false, dirty: false }, version }
    }

    impl<P: CoherenceProtocol> Mutant<P> {
        fn new(inner: P, mutation: Mutation, at: u64) -> Self {
            Self { inner, mutation, at, handled: 0, forged: None, overflowed: false }
        }

        fn overflow_hops(&mut self, ctx: &mut Ctx) {
            if self.mutation != Mutation::HopOverflow || self.handled < self.at || self.overflowed {
                return;
            }
            for mut out in std::mem::take(&mut ctx.sends) {
                if let MsgKind::Req(req) = &mut out.msg.kind {
                    if !self.overflowed {
                        req.hops = MAX_CHASE_HOPS + 1;
                        self.overflowed = true;
                    }
                }
                ctx.sends.push(out);
            }
        }
    }

    impl<P: CoherenceProtocol> CoherenceProtocol for Mutant<P> {
        fn kind(&self) -> ProtocolKind {
            self.inner.kind()
        }
        fn spec(&self) -> &ChipSpec {
            self.inner.spec()
        }
        fn core_access(
            &mut self,
            ctx: &mut Ctx,
            tile: Tile,
            block: Block,
            write: bool,
        ) -> Result<AccessOutcome, ProtoError> {
            let outcome = self.inner.core_access(ctx, tile, block, write)?;
            self.overflow_hops(ctx);
            Ok(outcome)
        }
        fn handle(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
            self.inner.handle(ctx, msg)?;
            self.handled += 1;
            if self.handled == self.at && self.mutation == Mutation::SecondOwner {
                self.forged = Some(msg.block);
            }
            self.overflow_hops(ctx);
            Ok(())
        }
        fn stats(&self) -> &ProtoStats {
            self.inner.stats()
        }
        fn stats_mut(&mut self) -> &mut ProtoStats {
            self.inner.stats_mut()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
        fn quiescent(&self) -> bool {
            self.inner.quiescent()
        }
        fn snapshot(&self) -> ChipSnapshot {
            let mut snap = self.inner.snapshot();
            if let Some(b) = self.forged {
                for t in FORGED {
                    let version = snap.l1[t].get(&b).map_or(0, |c| c.version);
                    snap.l1[t].insert(b, forged_owner(version));
                }
            }
            snap
        }
        fn l1_copies(&self, block: Block, out: &mut Vec<(Tile, CopyView)>) {
            self.inner.l1_copies(block, out);
            if self.forged == Some(block) {
                for t in FORGED {
                    match out.iter_mut().find(|(u, _)| *u == t) {
                        Some((_, c)) => *c = forged_owner(c.version),
                        None => {
                            out.insert(out.partition_point(|(u, _)| *u < t), (t, forged_owner(0)))
                        }
                    }
                }
            }
        }
        fn pending_summary(&self) -> String {
            self.inner.pending_summary()
        }
        fn clone_box(&self) -> Box<dyn CoherenceProtocol> {
            self.inner.clone_box()
        }
        fn save_state(&self, w: &mut SnapWriter) {
            self.inner.save_state(w)
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.inner.load_state(r)
        }
    }

    /// Runs `random_stress` with both checkers on every message (a
    /// disagreement panics); returns the panic text of a failed run.
    fn stress_both_checkers<P: CoherenceProtocol>(
        h: &mut Harness<P>,
        seed: u64,
    ) -> Result<(), String> {
        h.enable_invariant_checker();
        h.differential = true;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            random_stress(h, seed, 40, 24, 0.4)
        }))
        .map_err(|e| {
            e.downcast_ref::<String>().cloned().unwrap_or_else(|| "non-string panic".to_string())
        })
    }

    fn chips() -> [(&'static str, ChipSpec); 2] {
        [("tiny", ChipSpec::tiny()), ("small", ChipSpec::small())]
    }

    fn agrees<P: CoherenceProtocol>(make: fn(ChipSpec) -> P) {
        for (chip, spec) in chips() {
            for seed in [0x5e1, 0x5e2, 0x5e3] {
                let mut h = Harness::new(make(spec.clone()));
                let name = h.proto.kind().name();
                if let Err(e) = stress_both_checkers(&mut h, seed) {
                    panic!("{name} on the {chip} chip, seed {seed:#x}: {e}");
                }
            }
        }
    }

    fn catches_second_owner<P: CoherenceProtocol>(make: fn(ChipSpec) -> P) {
        const AT: u64 = 200;
        for (chip, spec) in chips() {
            let mut h = Harness::new(Mutant::new(make(spec), Mutation::SecondOwner, AT));
            let name = h.proto.kind().name();
            let e =
                stress_both_checkers(&mut h, 0x5e1).expect_err("the forged owner went unnoticed");
            assert!(e.starts_with("invariant violation at cycle"), "{name}/{chip}: {e}");
            assert!(e.contains("multiple owners [0, 1"), "{name}/{chip}: {e}");
            // Caught right after the forging message, while the chip was
            // still busy.
            assert_eq!(h.proto.handled, AT, "{name}/{chip}");
            assert!(!h.proto.quiescent(), "{name}/{chip}: caught only at quiescence");
        }
    }

    fn catches_hop_overflow<P: CoherenceProtocol>(make: fn(ChipSpec) -> P) {
        let bound = format!(
            "exceeded the forwarding bound ({} hops > {MAX_CHASE_HOPS})",
            MAX_CHASE_HOPS + 1
        );
        for (chip, spec) in chips() {
            let mut h = Harness::new(Mutant::new(make(spec), Mutation::HopOverflow, 100));
            let name = h.proto.kind().name();
            let e =
                stress_both_checkers(&mut h, 0x5e2).expect_err("the overlong chase went unnoticed");
            assert!(e.starts_with("invariant violation at cycle"), "{name}/{chip}: {e}");
            assert!(e.contains(&bound), "{name}/{chip}: {e}");
            assert!(h.proto.overflowed, "{name}/{chip}");
        }
    }

    #[test]
    fn incremental_checker_agrees_with_whole_chip_oracle() {
        agrees(Directory::new);
        agrees(DiCo::new);
        agrees(Providers::new);
        agrees(Arin::new);
    }

    #[test]
    fn both_checkers_catch_a_forged_second_owner_mid_flight() {
        catches_second_owner(Directory::new);
        catches_second_owner(DiCo::new);
        catches_second_owner(Providers::new);
        catches_second_owner(Arin::new);
    }

    #[test]
    fn both_checkers_catch_a_request_over_the_forwarding_bound() {
        catches_hop_overflow(Directory::new);
        catches_hop_overflow(DiCo::new);
        catches_hop_overflow(Providers::new);
        catches_hop_overflow(Arin::new);
    }
}
