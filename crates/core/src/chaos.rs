//! Chaos soak harness: differential golden verification of fault
//! recovery.
//!
//! The contract under test: a run whose injected faults were all
//! recovered must end in the **bit-identical architectural state** as
//! the fault-free run of the same cell — same memory-version digest,
//! same committed-reference count, same page-table shape. Cycles may
//! differ (recovery costs time); [`RunResult::effective_cycles`] records
//! the fault-free cycle count so the overhead is measurable.
//!
//! [`run_differential`] checks one `(protocol, benchmark)` cell against
//! its golden twin. [`chaos_sweep`] fans a set of seeded [`FaultPlan`]s
//! across the protocol x benchmark matrix and classifies every cell:
//! recovered-and-verified, typed error with a replay artifact, or — the
//! failure modes the harness exists to catch — silent divergence and
//! panic. The sweep itself never panics: worker panics are caught and
//! reported as [`CellOutcome::Panicked`].

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use cmpsim_engine::par::{num_threads, par_map_with_threads};
use cmpsim_engine::{Cycle, FaultPlan};
use cmpsim_protocols::ProtocolKind;
use cmpsim_workloads::Benchmark;

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::sim::run_benchmark_with_store;
use crate::snapshot::SnapshotStore;
use crate::manifest::RunManifest;
use crate::progress::ProgressSink;
use crate::replay::Value;
use crate::result::RunResult;

/// Outcome of a single differential run ([`run_differential`]).
#[derive(Debug)]
pub enum DiffOutcome {
    /// All faults recovered and the architectural end state matches the
    /// fault-free golden run. The carried result has
    /// [`RunResult::effective_cycles`] set to the golden cycle count.
    Verified(Box<RunResult>),
    /// The faulty run completed but its architectural state differs
    /// from the golden run — a recovery bug, never acceptable.
    Diverged {
        /// Field-by-field description of the mismatch.
        detail: String,
        /// The divergent faulty result.
        faulty: Box<RunResult>,
    },
    /// The faulty run aborted with a typed error (expected for
    /// unrecoverable plans; the replay artifact is attached).
    Faulted(Box<SimError>),
    /// One of the two legs panicked. Always a bug; caught so the caller
    /// still gets a report.
    Panicked {
        /// The panic payload, plus which leg it came from.
        message: String,
    },
}

/// How one chaos cell (protocol x benchmark x plan) ended.
#[derive(Debug)]
pub enum CellOutcome {
    /// Faults recovered; architectural state verified against golden.
    Recovered {
        /// Total faults injected by the engine.
        faults_fired: u64,
        /// Protocol-level retransmissions issued.
        retries: u64,
        /// MSHR timeouts that fired.
        timeouts: u64,
        /// Cycle count of the faulty run.
        cycles: Cycle,
        /// Cycle count of the fault-free golden run.
        effective_cycles: Cycle,
    },
    /// The run ended in a typed [`SimError`] — acceptable iff a replay
    /// artifact was written.
    Faulted {
        /// Stable machine-readable error code ([`SimError::code`]).
        code: &'static str,
        /// Human-readable error kind ([`SimError::kind_label`]).
        label: &'static str,
        /// Path of the crash-dump artifact, if one was saved.
        artifact: Option<PathBuf>,
    },
    /// The run completed but silently diverged from golden. Always a
    /// bug.
    Diverged {
        /// Field-by-field description of the mismatch.
        detail: String,
    },
    /// The run panicked. Always a bug; the harness catches it so the
    /// rest of the sweep still reports.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The fault-free golden run itself failed, so the cell could not
    /// be judged. Always a bug.
    GoldenFailed {
        /// What went wrong in the golden run.
        message: String,
    },
}

impl CellOutcome {
    /// Whether this outcome satisfies the chaos contract: verified
    /// recovery, or a typed error with a replayable artifact.
    pub fn acceptable(&self) -> bool {
        match self {
            CellOutcome::Recovered { .. } => true,
            CellOutcome::Faulted { artifact, .. } => artifact.is_some(),
            CellOutcome::Diverged { .. }
            | CellOutcome::Panicked { .. }
            | CellOutcome::GoldenFailed { .. } => false,
        }
    }

    /// Short status word for table output.
    pub fn status(&self) -> &'static str {
        match self {
            CellOutcome::Recovered { .. } => "recovered",
            CellOutcome::Faulted { .. } => "faulted",
            CellOutcome::Diverged { .. } => "DIVERGED",
            CellOutcome::Panicked { .. } => "PANICKED",
            CellOutcome::GoldenFailed { .. } => "GOLDEN-FAILED",
        }
    }
}

/// One judged cell of a [`chaos_sweep`].
#[derive(Debug)]
pub struct ChaosCell {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Benchmark under test.
    pub benchmark: Benchmark,
    /// The fault plan this cell ran.
    pub plan: FaultPlan,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Provenance manifest of the faulty leg (config + plan), keying
    /// this cell to its crash dump / metrics artifacts.
    pub manifest: RunManifest,
}

/// Full result of a [`chaos_sweep`].
#[derive(Debug)]
pub struct ChaosReport {
    /// Every judged cell, in (plan, benchmark, protocol) row-major
    /// order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Number of cells that recovered and verified.
    pub fn recovered(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Recovered { .. }))
            .count()
    }

    /// Number of cells that ended in a typed error.
    pub fn faulted(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Faulted { .. }))
            .count()
    }

    /// Cells violating the chaos contract (divergence, panic, missing
    /// artifact, golden failure).
    pub fn violations(&self) -> Vec<&ChaosCell> {
        self.cells.iter().filter(|c| !c.outcome.acceptable()).collect()
    }

    /// True iff every cell ended in verified recovery or a typed error
    /// with a replayable artifact.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.acceptable())
    }

    /// Deterministic JSON export of the sweep: summary counts plus one
    /// entry per cell carrying its provenance manifest, so every cell
    /// can be keyed back to the crash dumps and metrics it produced.
    pub fn to_json(&self) -> String {
        let mut cells = Vec::new();
        for c in &self.cells {
            let mut j = Value::object();
            j.set("protocol", Value::string(c.protocol.name()));
            j.set("benchmark", Value::string(c.benchmark.name()));
            j.set("plan", Value::string(&c.plan.spec()));
            j.set("status", Value::string(c.outcome.status()));
            j.set("acceptable", Value::boolean(c.outcome.acceptable()));
            match &c.outcome {
                CellOutcome::Recovered {
                    faults_fired,
                    retries,
                    timeouts,
                    cycles,
                    effective_cycles,
                } => {
                    j.set("faults_fired", Value::uint(*faults_fired));
                    j.set("retries", Value::uint(*retries));
                    j.set("timeouts", Value::uint(*timeouts));
                    j.set("cycles", Value::uint(*cycles));
                    j.set("effective_cycles", Value::uint(*effective_cycles));
                }
                CellOutcome::Faulted { code, label, artifact } => {
                    j.set("code", Value::string(code));
                    j.set("label", Value::string(label));
                    j.set(
                        "artifact",
                        artifact.as_ref().map_or(Value::Null, |p| {
                            Value::string(&p.display().to_string())
                        }),
                    );
                }
                CellOutcome::Diverged { detail } => j.set("detail", Value::string(detail)),
                CellOutcome::Panicked { message } | CellOutcome::GoldenFailed { message } => {
                    j.set("detail", Value::string(message))
                }
            }
            j.set("manifest", c.manifest.to_value());
            cells.push(j);
        }
        let mut j = Value::object();
        j.set("schema", Value::string("cmpsim-chaos-v1"));
        j.set("cells_total", Value::uint(self.cells.len() as u64));
        j.set("recovered", Value::uint(self.recovered() as u64));
        j.set("faulted", Value::uint(self.faulted() as u64));
        j.set("violations", Value::uint(self.violations().len() as u64));
        j.set("passed", Value::boolean(self.passed()));
        j.set("cells", Value::Arr(cells));
        let mut out = String::new();
        j.render_to(&mut out);
        out.push('\n');
        out
    }
}

/// Runs one cell twice — fault-free golden, then with `cfg`'s fault
/// plan — and compares the architectural end states. With no plan in
/// `cfg` the comparison is trivially against itself. Never panics.
pub fn run_differential(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
) -> DiffOutcome {
    let mut golden_cfg = cfg.clone();
    golden_cfg.fault_plan = None;
    let golden = match run_caught(kind, benchmark, &golden_cfg, None) {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return DiffOutcome::Faulted(Box::new(e)),
        Err(msg) => {
            return DiffOutcome::Panicked { message: format!("golden run panicked: {msg}") }
        }
    };
    judge(kind, benchmark, cfg, &golden, None)
}

/// Judges the faulty leg of one cell against an already-computed golden
/// result.
fn judge(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
    golden: &RunResult,
    store: Option<&SnapshotStore>,
) -> DiffOutcome {
    match run_caught(kind, benchmark, cfg, store) {
        Ok(Ok(mut faulty)) => match describe_divergence(golden, &faulty) {
            None => {
                faulty.effective_cycles = Some(golden.cycles);
                DiffOutcome::Verified(Box::new(faulty))
            }
            Some(detail) => DiffOutcome::Diverged { detail, faulty: Box::new(faulty) },
        },
        Ok(Err(e)) => DiffOutcome::Faulted(Box::new(e)),
        Err(msg) => DiffOutcome::Panicked { message: format!("faulty run panicked: {msg}") },
    }
}

/// Fans `plans` across the `protocols` x `benchmarks` matrix. Golden
/// runs are computed once per (protocol, benchmark) pair and shared by
/// every plan. Cells run in parallel across host cores.
pub fn chaos_sweep(
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    plans: &[FaultPlan],
    cfg: &SystemConfig,
) -> ChaosReport {
    chaos_sweep_with_options(protocols, benchmarks, plans, cfg, None, None, None)
}

/// [`chaos_sweep`] plus the sweep-level knobs. An optional
/// live-telemetry sink hears of every judged cell
/// (`plan:protocol/benchmark`, its status and the faulty leg's host
/// events/s) as it completes — in completion order: the stream is
/// host-side telemetry, the returned report stays deterministic.
/// `threads` sets the worker count (`None` = one per host core), and a
/// shared [`SnapshotStore`] is consulted for every leg. The fault plan
/// is part of the snapshot key (faults fire during warm-up too), so
/// golden and per-plan legs never share an image within one sweep —
/// the wins come from repeated cells and, with a disk-backed store,
/// from re-running a sweep after the images were captured.
pub fn chaos_sweep_with_options(
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    plans: &[FaultPlan],
    cfg: &SystemConfig,
    progress: Option<&ProgressSink>,
    threads: Option<usize>,
    store: Option<&SnapshotStore>,
) -> ChaosReport {
    let threads = threads.unwrap_or_else(num_threads);
    let mut golden_cfg = cfg.clone();
    golden_cfg.fault_plan = None;
    let pairs: Vec<(ProtocolKind, Benchmark)> = benchmarks
        .iter()
        .flat_map(|&b| protocols.iter().map(move |&p| (p, b)))
        .collect();
    let goldens =
        par_map_with_threads(&pairs, threads, |&(p, b)| run_caught(p, b, &golden_cfg, store));

    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| (0..pairs.len()).map(move |ci| (pi, ci)))
        .collect();
    let outcomes = par_map_with_threads(&jobs, threads, |&(pi, ci)| {
        let (proto, bench) = pairs[ci];
        let cell_cfg = cfg.clone().with_fault_plan(Some(plans[pi].clone()));
        let mut host = (0u64, 0.0f64);
        let outcome = match &goldens[ci] {
            Ok(Ok(golden)) => {
                let diff = judge(proto, bench, &cell_cfg, golden, store);
                if let DiffOutcome::Verified(r) = &diff {
                    host = (r.host.events, r.host.events_per_sec());
                }
                cell_outcome(diff)
            }
            Ok(Err(e)) => CellOutcome::GoldenFailed {
                message: format!("{} ({})", e.kind_label(), e.code()),
            },
            Err(msg) => CellOutcome::GoldenFailed { message: msg.clone() },
        };
        if let Some(sink) = progress {
            let cell =
                format!("{}:{}/{}", plans[pi].spec(), proto.name(), bench.name());
            sink.cell_done(&cell, outcome.status(), host.0, host.1);
        }
        let manifest = RunManifest::new(proto, bench, &cell_cfg);
        ChaosCell { protocol: proto, benchmark: bench, plan: plans[pi].clone(), outcome, manifest }
    });
    if let Some(sink) = progress {
        sink.finish();
    }
    ChaosReport { cells: outcomes }
}

fn cell_outcome(diff: DiffOutcome) -> CellOutcome {
    match diff {
        DiffOutcome::Verified(r) => {
            let fired = r.faults.as_ref().map(|f| f.fired.total()).unwrap_or(0);
            CellOutcome::Recovered {
                faults_fired: fired,
                retries: r.proto_stats.retries.get(),
                timeouts: r.proto_stats.timeouts.get(),
                cycles: r.cycles,
                effective_cycles: r.effective_cycles.unwrap_or(r.cycles),
            }
        }
        DiffOutcome::Diverged { detail, .. } => CellOutcome::Diverged { detail },
        DiffOutcome::Panicked { message } => CellOutcome::Panicked { message },
        DiffOutcome::Faulted(e) => CellOutcome::Faulted {
            code: e.code(),
            label: e.kind_label(),
            artifact: e.artifact().map(|p| p.to_path_buf()),
        },
    }
}

/// Compares the architectural end states of two completed runs.
/// Returns `None` when identical, else a description of every
/// mismatched field.
fn describe_divergence(golden: &RunResult, faulty: &RunResult) -> Option<String> {
    let (g, f) = match (golden.arch, faulty.arch) {
        (Some(g), Some(f)) => (g, f),
        (g, f) => {
            return Some(format!(
                "missing architectural state: golden={} faulty={}",
                g.is_some(),
                f.is_some()
            ))
        }
    };
    if g == f {
        return None;
    }
    let mut parts = Vec::new();
    let mut cmp = |name: &str, gv: u64, fv: u64| {
        if gv != fv {
            parts.push(format!("{name}: golden={gv} faulty={fv}"));
        }
    };
    cmp("version_digest", g.version_digest, f.version_digest);
    cmp("versioned_blocks", g.versioned_blocks, f.versioned_blocks);
    cmp("cow_faults", g.cow_faults, f.cow_faults);
    cmp("logical_pages", g.logical_pages, f.logical_pages);
    cmp("physical_pages", g.physical_pages, f.physical_pages);
    cmp("refs_done", g.refs_done, f.refs_done);
    Some(parts.join("; "))
}

/// Runs one benchmark with panics converted into `Err(message)` so a
/// worker bug cannot take down the whole sweep.
fn run_caught(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
    store: Option<&SnapshotStore>,
) -> Result<Result<RunResult, SimError>, String> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        run_benchmark_with_store(kind, benchmark, cfg, store)
    }))
    .map_err(cmpsim_engine::par::panic_message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_recovers_and_verifies() {
        let cfg = SystemConfig::smoke()
            .with_fault_plan(Some(FaultPlan::recoverable(42)));
        match run_differential(ProtocolKind::DiCo, Benchmark::Apache, &cfg) {
            DiffOutcome::Verified(r) => {
                assert!(r.effective_cycles.is_some());
                assert!(r.faults.is_some());
            }
            other => panic!("expected verified recovery, got {other:?}"),
        }
    }

    #[test]
    fn sweep_smoke_passes() {
        let cfg = SystemConfig::smoke();
        let plans = [FaultPlan::recoverable(1), FaultPlan::recoverable(2)];
        let report = chaos_sweep(
            &[ProtocolKind::Directory, ProtocolKind::DiCoArin],
            &[Benchmark::Radix],
            &plans,
            &cfg,
        );
        assert_eq!(report.cells.len(), 4);
        assert!(report.passed(), "violations: {:?}", report.violations());
    }
}
