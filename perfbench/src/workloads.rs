//! The four workloads: their configurations, set-up, timed passes and
//! correctness checks. README.md says why each one was chosen.

use std::path::{Path, PathBuf};

use cmpsim::replay::Value;
use cmpsim::{
    run_sweep, snapshot_key, Benchmark, CellState, CmpSimulator, Placement, ProtocolKind,
    SnapshotStore, SweepOptions, SweepSpec, SystemConfig,
};

use crate::cells::{self, catch, cell_name, run_cold, Counts, Pins, Values};
use crate::spans::Spans;
use crate::speed::{Probe, Timeline, LONG_SAMPLES};

/// The seed whose results are pinned in `pins.tsv`.
pub const DEFAULT_SEED: u64 = 1;

/// Interval-sampler window of `tenant-alt`, in simulated cycles.
pub const TENANT_INTERVAL: u64 = 5_000;

/// Seeds per protocol in one pass of `checked`. The checker's cost at
/// one seed differs from the next by up to a fifth, so one pass runs
/// every protocol on this many seeds derived from the run's seed.
pub const CHECKED_SEEDS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperApache,
    SweepFork,
    TenantAlt,
    Checked,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperApache,
        Workload::SweepFork,
        Workload::TenantAlt,
        Workload::Checked,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperApache => "paper-apache",
            Workload::SweepFork => "sweep-fork",
            Workload::TenantAlt => "tenant-alt",
            Workload::Checked => "checked",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The simulated system. Reference counts are sized so one pass
    /// takes about a second of host time on a 2-core machine.
    pub fn config(self, seed: u64) -> SystemConfig {
        let cfg = match self {
            Workload::PaperApache => SystemConfig::paper().with_refs(2_000),
            Workload::SweepFork => SystemConfig::paper().with_refs(1_000),
            Workload::TenantAlt => SystemConfig::paper()
                .with_refs(1_200)
                .with_placement(Placement::Alternative)
                .with_attribution()
                .with_tracing()
                .with_interval(TENANT_INTERVAL),
            Workload::Checked => SystemConfig::small()
                .with_refs(125)
                .with_placement(Placement::Alternative)
                .with_invariant_checks(),
        };
        cfg.with_seed(seed)
    }

    /// The cells of one pass, in the sweep's own (benchmark, protocol)
    /// row-major order.
    pub fn cells(self) -> Vec<(ProtocolKind, Benchmark)> {
        let benches = match self {
            Workload::SweepFork => Benchmark::all().to_vec(),
            Workload::TenantAlt => vec![Benchmark::MixedCom],
            Workload::PaperApache | Workload::Checked => vec![Benchmark::Apache],
        };
        benches
            .into_iter()
            .flat_map(|b| ProtocolKind::all().map(|p| (p, b)))
            .collect()
    }

    /// The cold cells of one pass at `seed`, each with its own
    /// configuration and name: `cells()` once, except on `checked`,
    /// which repeats them on `CHECKED_SEEDS` seeds (`seed` itself first).
    pub fn cell_configs(self, seed: u64) -> Vec<(ProtocolKind, Benchmark, SystemConfig, String)> {
        let seeds = if self == Workload::Checked {
            CHECKED_SEEDS
        } else {
            1
        };
        (0..seeds)
            .flat_map(|k| {
                let cfg = self.config(seed ^ (k << 32));
                self.cells().into_iter().map(move |(p, b)| {
                    let name = match k {
                        0 => cell_name(p, b),
                        _ => format!("{}#{k}", cell_name(p, b)),
                    };
                    (p, b, cfg.clone(), name)
                })
            })
            .collect()
    }
}

/// Short protocol label used in metric names.
pub fn proto_label(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::Directory => "directory",
        ProtocolKind::DiCo => "dico",
        ProtocolKind::DiCoProviders => "providers",
        ProtocolKind::DiCoArin => "arin",
    }
}

/// Host timings and counts of one timed pass.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub traced: bool,
    /// Raw host seconds of the pass's work (probes excluded).
    pub wall_s: f64,
    /// `wall_s` scaled to the reference host (`speed` module).
    pub scaled_s: f64,
    /// References the pass simulated: warm-up and measure phases of a
    /// cold cell, the measure phase of a forked one.
    pub refs: u64,
    pub new_s: f64,
    pub warmup_s: f64,
    pub resume_s: f64,
    pub finalize_s: f64,
    pub allocs: u64,
    pub counts: Counts,
}

/// One set-up repetition.
#[derive(Debug, Default, Clone)]
pub struct Setup {
    pub total_s: f64,
    pub new_s: f64,
    pub warmup_s: f64,
    pub save_s: f64,
    pub image_bytes: u64,
    pub image_fnv: u64,
}

/// One forked cell run by direct calls, the way a sweep cell runs.
#[derive(Debug, Clone)]
pub struct Direct {
    pub values: Values,
    pub restore_s: f64,
    pub resume_s: f64,
    pub render_s: f64,
    pub measure_s: f64,
    pub finalize_s: f64,
    pub counts: Counts,
}

/// Field-by-field exact counts of one cell in one pass.
type Sig = Vec<(&'static str, u64)>;

/// One benchmark invocation on one workload.
pub struct Bench {
    pub w: Workload,
    pub seed: u64,
    pub cfg: SystemConfig,
    pub cells: Vec<(ProtocolKind, Benchmark)>,
    /// Each cell's configuration (`cfg`, or `cfg` at a derived seed).
    pub cfgs: Vec<SystemConfig>,
    pub names: Vec<String>,
    /// Pinned values per cell, at the default seed only.
    pins: Option<Vec<Option<Values>>>,
    pub sp: Spans,
    pub probe: Probe,
    pub attempted: u64,
    pub failed: u64,
    /// Failed cells and determinism breaks, one line each.
    pub problems: Vec<String>,
    /// Scratch directory inside the checkout, removed by `cleanup`.
    pub work: PathBuf,
    first_sig: Option<Vec<Sig>>,
    /// Sweep artifacts' values from the first pass.
    pub artifacts: Vec<Option<Values>>,
}

impl Bench {
    pub fn new(w: Workload, seed: u64, trace: bool, out_root: &Path) -> Result<Self, String> {
        let cfg = w.config(seed);
        let (mut cells, mut cfgs, mut names) = (Vec::new(), Vec::new(), Vec::new());
        for (p, b, c, n) in w.cell_configs(seed) {
            cells.push((p, b));
            cfgs.push(c);
            names.push(n);
        }
        let pins = (seed == DEFAULT_SEED).then(|| {
            let pins = Pins::load();
            names
                .iter()
                .map(|n| pins.get(w.name(), n).copied())
                .collect()
        });
        let work = out_root.join(format!(
            "work-{}-s{}-p{}",
            w.name(),
            seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Self {
            w,
            seed,
            cfg,
            artifacts: vec![None; cells.len()],
            cells,
            cfgs,
            names,
            pins,
            sp: Spans::new(trace),
            probe: Probe::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            work,
            first_sig: None,
        })
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }

    fn fail(&mut self, i: usize, what: &str) {
        self.failed += 1;
        self.problems
            .push(format!("{} {}: {what}", self.w.name(), self.names[i]));
    }

    /// One attempted cell: checks `got` against its pin (default seed)
    /// and against each labelled reference.
    pub fn check(
        &mut self,
        i: usize,
        got: Result<&Values, &str>,
        refs: &[(&str, Option<&Values>)],
    ) {
        self.attempted += 1;
        let got = match got {
            Ok(v) => v,
            Err(e) => return self.fail(i, e),
        };
        let mut bad = Vec::new();
        if let Some(pins) = &self.pins {
            match &pins[i] {
                Some(pin) => bad.extend(
                    got.mismatches(pin)
                        .into_iter()
                        .map(|m| format!("{m} (pinned)")),
                ),
                None => bad.push("no pinned value for this cell".to_string()),
            }
        }
        for (label, r) in refs {
            if let Some(r) = r {
                bad.extend(
                    got.mismatches(r)
                        .into_iter()
                        .map(|m| format!("{m} ({label})")),
                );
            }
        }
        if !bad.is_empty() {
            self.fail(i, &bad.join("; "));
        }
    }

    /// Compares a pass's exact counts with the first pass's.
    fn compare_sig(&mut self, pass: usize, sig: Vec<Sig>) {
        let Some(first) = &self.first_sig else {
            self.first_sig = Some(sig);
            return;
        };
        let mut broken = Vec::new();
        for (i, (a, b)) in first.iter().zip(&sig).enumerate() {
            if a != b {
                let fields: Vec<String> = a
                    .iter()
                    .zip(b)
                    .filter(|(x, y)| x != y)
                    .map(|((n, x), (_, y))| format!("{n} {y} != {x}"))
                    .collect();
                broken.push(format!(
                    "{} {}: determinism: pass {pass} differs from pass 0: {}",
                    self.w.name(),
                    self.names[i],
                    if fields.is_empty() {
                        "cell failed in one pass".to_string()
                    } else {
                        fields.join(", ")
                    }
                ));
            }
        }
        self.problems.extend(broken);
    }

    /// True when every cell passed and every exact count repeated.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    // ---- cold workloads -------------------------------------------

    /// Builds every cell's simulator; returns the construction time.
    pub fn cold_setup(&mut self) -> Setup {
        let t = self.sp.open("setup", None);
        let mut new_s = 0.0;
        for i in 0..self.cells.len() {
            let (p, b) = self.cells[i];
            let (sim, s) = self.sp.time("sim.new", Some(i), || {
                CmpSimulator::new(p, b, &self.cfgs[i])
            });
            new_s += s;
            drop(sim);
        }
        let total_s = self.sp.close(t);
        Setup {
            total_s,
            new_s,
            ..Setup::default()
        }
    }

    /// Runs every cell cold on this thread and checks it.
    pub fn cold_pass(&mut self, n: usize) -> Pass {
        let mut pass = Pass {
            traced: self.sp.is_on(),
            ..Pass::default()
        };
        let mut runs = Vec::with_capacity(self.cells.len());
        let t = self.sp.open("pass", None);
        let mut tl = Timeline::start(1, 1, &mut self.probe, &mut self.sp);
        for i in 0..self.cells.len() {
            let (p, b) = self.cells[i];
            let start = std::time::Instant::now();
            runs.push(run_cold(p, b, &self.cfgs[i], i, &mut self.sp));
            tl.push(start.elapsed().as_secs_f64());
            tl.probe(&mut self.probe, &mut self.sp);
        }
        self.sp.close(t);
        pass.wall_s = tl.raw().iter().sum();
        pass.scaled_s = tl.scaled().iter().sum();
        let mut sig = Vec::with_capacity(runs.len());
        for (i, run) in runs.into_iter().enumerate() {
            match run {
                Ok(r) => {
                    let finalize_s = r.result.host.span_ns("finalize") as f64 * 1e-9;
                    pass.new_s += r.new_s;
                    pass.warmup_s += r.warmup_s;
                    pass.resume_s += r.resume_s;
                    pass.finalize_s += finalize_s;
                    pass.allocs += r.allocs;
                    pass.counts.add(&r.result);
                    let v = Values::of(&r.result);
                    sig.push(vec![
                        ("events", r.result.host.events),
                        ("refs_done", r.result.arch.map_or(0, |a| a.refs_done)),
                        ("noc.messages", v.messages),
                        ("allocations", r.allocs),
                    ]);
                    self.check(i, Ok(&v), &[]);
                }
                Err(e) => {
                    sig.push(Vec::new());
                    self.check(i, Err(&e), &[]);
                }
            }
        }
        pass.refs = pass.counts.refs_done;
        self.compare_sig(n, sig);
        pass
    }

    // ---- sweep-fork -------------------------------------------------

    /// Fills a disk snapshot store at `dir`: each cell is built, warmed
    /// up and saved, the way a sweep's first run of a key does it.
    pub fn fill_store(&mut self, dir: &Path) -> Setup {
        let mut setup = Setup {
            image_fnv: 0xcbf2_9ce4_8422_2325,
            ..Setup::default()
        };
        let store = match SnapshotStore::with_dir(dir) {
            Ok(s) => s,
            Err(e) => {
                self.problems
                    .push(format!("sweep-fork: snapshot store: {e}"));
                return setup;
            }
        };
        let t = self.sp.open("setup", None);
        for i in 0..self.cells.len() {
            let (p, b) = self.cells[i];
            let key = snapshot_key(p, b, &self.cfg);
            let (mut sim, s) = self
                .sp
                .time("sim.new", Some(i), || CmpSimulator::new(p, b, &self.cfg));
            setup.new_s += s;
            let (warmed, s) = self.sp.time("sim.warm_up", Some(i), || {
                catch(|| sim.warm_up().map_err(|e| e.to_string()))
            });
            setup.warmup_s += s;
            match warmed {
                Ok(true) => {}
                Ok(false) => {
                    self.check(i, Err("drained before the warm-up boundary"), &[]);
                    continue;
                }
                Err(e) => {
                    self.check(i, Err(&e), &[]);
                    continue;
                }
            }
            let (bytes, s) = self
                .sp
                .time("snapshot.save", Some(i), || sim.save_snapshot(key));
            setup.save_s += s;
            setup.image_bytes += bytes.len() as u64;
            setup.image_fnv = cells::fnv1a(setup.image_fnv, &bytes);
            let (put, _) = self
                .sp
                .time("snapshot.store_put", Some(i), || store.put(key, bytes));
            if let Err(e) = put {
                self.check(i, Err(&e.to_string()), &[]);
            }
        }
        setup.total_s = self.sp.close(t);
        setup
    }

    fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            protocols: ProtocolKind::all().to_vec(),
            benchmarks: Benchmark::all().to_vec(),
            seeds: Vec::new(),
            plans: Vec::new(),
            base: self.cfg.clone(),
        }
    }

    /// Runs the whole matrix through `run_sweep`, forking every cell from
    /// the store at `snap_dir`, with a fresh output directory and
    /// journal; then checks every artifact. `root` names the enclosing
    /// span (`pass` for a timed pass).
    pub fn sweep_pass(
        &mut self,
        n: usize,
        snap_dir: &Path,
        threads: usize,
        root: &'static str,
    ) -> Pass {
        let mut pass = Pass {
            traced: self.sp.is_on(),
            ..Pass::default()
        };
        let out_dir = self.work.join(format!("pass-{n}"));
        let opts = SweepOptions {
            threads: Some(threads),
            journal: out_dir.join("sweep.ndjson"),
            out_dir: out_dir.clone(),
            snapshot_dir: Some(snap_dir.to_path_buf()),
            ..SweepOptions::default()
        };
        let spec = self.sweep_spec();
        let t = self.sp.open(root, None);
        let mut tl = Timeline::start(threads, LONG_SAMPLES, &mut self.probe, &mut self.sp);
        let a0 = crate::alloc::count();
        let (outcome, wall_s) = self
            .sp
            .time("orchestrator.run_sweep", None, || run_sweep(&spec, &opts));
        pass.allocs = crate::alloc::count() - a0;
        tl.push(wall_s);
        tl.probe(&mut self.probe, &mut self.sp);
        self.sp.close(t);
        pass.wall_s = wall_s;
        pass.scaled_s = tl.scaled()[0];
        let mut sig: Vec<Sig> = vec![Vec::new(); self.cells.len()];
        match outcome {
            Err(e) => {
                for i in 0..self.cells.len() {
                    self.check(i, Err(&format!("run_sweep: {e}")), &[]);
                }
            }
            Ok(o) => {
                for (c, state) in o.cells.iter().zip(&o.states) {
                    let Some(i) = self
                        .cells
                        .iter()
                        .position(|&x| x == (c.protocol, c.benchmark))
                    else {
                        self.problems
                            .push(format!("sweep-fork: unexpected cell {}", c.name()));
                        continue;
                    };
                    let got = match state {
                        CellState::Done { artifact, .. } => read_artifact(artifact),
                        CellState::Quarantined { error, .. } => {
                            Err(format!("quarantined: {} {}", error.code, error.message))
                        }
                    };
                    if let Ok(v) = &got {
                        pass.refs += v.refs;
                        sig[i] = vec![
                            ("cycles", v.cycles),
                            ("measured_refs", v.refs),
                            ("noc.messages", v.messages),
                            ("noc.flit_link_traversals", v.flits),
                            ("energy_nj_bits", v.energy_nj.to_bits()),
                        ];
                        if n == 0 {
                            self.artifacts[i] = Some(*v);
                        }
                    }
                    self.check(i, got.as_ref().map_err(String::as_str), &[]);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
        self.compare_sig(n, sig);
        pass
    }

    /// Runs every cell forked from the store by direct calls:
    /// `restore_snapshot`, `resume` and `metrics_json`, on this thread.
    pub fn direct_cells(&mut self, snap_dir: &Path) -> Vec<Result<Direct, String>> {
        let store = match SnapshotStore::with_dir(snap_dir) {
            Ok(s) => s,
            Err(e) => return vec![Err(e.to_string()); self.cells.len()],
        };
        let t = self.sp.open("check", None);
        let mut out = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            out.push(self.direct_cell(&store, i));
        }
        self.sp.close(t);
        out
    }

    fn direct_cell(&mut self, store: &SnapshotStore, i: usize) -> Result<Direct, String> {
        let (p, b) = self.cells[i];
        let key = snapshot_key(p, b, &self.cfg);
        let bytes = store
            .get(key)
            .map_err(|e| e.to_string())?
            .ok_or("snapshot missing from the store")?;
        let cfg = &self.cfg;
        let (sim, restore_s) = self.sp.time("snapshot.restore", Some(i), || {
            catch(|| CmpSimulator::restore_snapshot(p, b, cfg, &bytes).map_err(|e| e.to_string()))
        });
        let sim = sim?;
        let (r, resume_s) = self.sp.time("sim.resume", Some(i), || {
            catch(move || sim.resume().map_err(|e| e.to_string()))
        });
        let r = r?;
        let (json, render_s) = self.sp.time("result.render", Some(i), || r.metrics_json());
        std::hint::black_box(json);
        let mut counts = Counts::default();
        counts.add(&r);
        Ok(Direct {
            values: Values::of(&r),
            restore_s,
            resume_s,
            render_s,
            measure_s: r.host.span_ns("measure") as f64 * 1e-9,
            finalize_s: r.host.span_ns("finalize") as f64 * 1e-9,
            counts,
        })
    }

    /// Runs every cell cold (the reference forked cells must match).
    pub fn cold_cells(&mut self) -> Vec<Result<cells::ColdRun, String>> {
        let t = self.sp.open("check", None);
        let mut out = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            let (p, b) = self.cells[i];
            out.push(run_cold(p, b, &self.cfgs[i], i, &mut self.sp));
        }
        self.sp.close(t);
        out
    }

    /// Checks the forked cells (direct runs and the first pass's
    /// artifacts) against their pins and, when given, the cold runs.
    pub fn check_forked(
        &mut self,
        direct: &[Result<Direct, String>],
        cold: Option<&[Result<cells::ColdRun, String>]>,
    ) {
        for (i, d) in direct.iter().enumerate() {
            let cold_v = match cold.map(|c| &c[i]) {
                Some(Ok(c)) => Some(Values::of(&c.result)),
                Some(Err(e)) => {
                    self.check(i, Err(&format!("cold reference: {e}")), &[]);
                    None
                }
                None => None,
            };
            let art = self.artifacts[i];
            match d {
                Ok(d) => {
                    let refs = [("cold", cold_v.as_ref()), ("sweep artifact", art.as_ref())];
                    self.check(i, Ok(&d.values), &refs);
                }
                Err(e) => self.check(i, Err(&format!("forked: {e}")), &[]),
            }
        }
    }
}

/// The pinned fields of a sweep cell's metrics artifact.
fn read_artifact(path: &Path) -> Result<Values, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("artifact {}: {e}", path.display()))?;
    let doc = Value::parse(&text)?;
    let counter = |name: &str| doc.field("counters")?.field(name)?.as_u64();
    Ok(Values {
        cycles: counter("sim.cycles")?,
        refs: counter("sim.measured_refs")?,
        messages: counter("noc.messages")?,
        flits: counter("noc.flit_link_traversals")?,
        energy_nj: doc
            .field("gauges")?
            .field("energy.dynamic_total_nj")?
            .as_f64()?,
        digest: None,
    })
}
