//! Host-side benchmark of the cmpsim simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --capture-pins
//! ```
//!
//! Runs one workload (`paper-apache`, `sweep-fork`, `tenant-alt`,
//! `checked`) through the crates' public API, checks every simulated
//! result, and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! README.md describes the workloads and metrics.

mod alloc;
mod cells;
mod layers;
mod spans;
mod speed;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cmpsim::ProtocolKind;
use cmpsim_engine::par::num_threads;
use cmpsim_engine::profile::peak_rss_bytes;

use layers::median;
use workloads::{proto_label, Bench, Pass, Setup, Workload, DEFAULT_SEED, TENANT_INTERVAL};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run (their median is `setup_s`). Cold
/// workloads repeat until `SETUP_BUDGET` has passed too, so the small
/// 16-tile chip, built in well under a millisecond, gets enough samples.
const COLD_SETUPS: usize = 7;
const SWEEP_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(3000);

/// Fewest timed passes per run, however long they take.
const MIN_PASSES: usize = 3;

/// Snapshot and orchestrator metrics of the traced run, in report
/// order; they are 0 outside `sweep-fork`.
const SWEEP_LAYER: [(&str, &str); 10] = [
    ("engine.par_efficiency", "ratio"),
    ("snapshot.save_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.image_bytes", "bytes"),
    ("snapshot.fork_measure_ratio.directory", "ratio"),
    ("snapshot.fork_measure_ratio.dico", "ratio"),
    ("snapshot.fork_measure_ratio.providers", "ratio"),
    ("snapshot.fork_measure_ratio.arin", "ratio"),
    ("orchestrator.overhead_s", "s"),
    ("result.render_s", "s"),
];

const USAGE: &str = "usage: perfbench --workload <paper-apache|sweep-fork|tenant-alt|checked> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --capture-pins";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Host context stamped on every result: cores, CPU model, load.
fn host_context() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    format!("nproc={} cpu='{cpu}' loadavg='{load}'", num_threads())
}

fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--capture-pins" {
        return capture_pins();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host_context();
    eprintln!("host: {host}");
    let mut b = match Bench::new(args.workload, args.seed, args.trace, &out_root()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        traced(&mut b, budget)
    } else {
        untraced(&mut b, budget)
    };
    b.cleanup();
    if args.trace {
        let path = out_root().join(format!("spans-{}-s{}.jsonl", b.w.name(), b.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":\"{}\",\"cells\":[{}]}}",
            b.w.name(),
            b.seed,
            host,
            b.names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        );
        match std::fs::write(&path, b.sp.to_jsonl(&header)) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    for p in &b.problems {
        eprintln!("FAIL {p}");
    }
    println!("host: {host}");
    println!(
        "{}",
        result_json(b.correct(), b.attempted, b.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Set-up repetitions; for `sweep-fork` each fills a fresh snapshot
/// directory and the last one is kept for the passes.
fn setups(b: &mut Bench) -> (Vec<Setup>, Option<PathBuf>) {
    if b.w != Workload::SweepFork {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < COLD_SETUPS || start.elapsed() < SETUP_BUDGET {
            out.push(b.cold_setup());
        }
        return (out, None);
    }
    let mut out: Vec<Setup> = Vec::new();
    let mut kept: Option<PathBuf> = None;
    for k in 0..SWEEP_SETUPS {
        let dir = b.work.join(format!("snapshots-{k}"));
        let s = b.fill_store(&dir);
        if let Some(first) = out.first() {
            if (s.image_bytes, s.image_fnv) != (first.image_bytes, first.image_fnv) {
                b.problems.push(format!(
                    "sweep-fork: determinism: snapshot images of set-up {k} differ from set-up 0 ({} vs {} bytes)",
                    s.image_bytes, first.image_bytes
                ));
            }
        }
        out.push(s);
        if let Some(old) = kept.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    (out, kept)
}

/// Timed passes until `budget` has elapsed (at least `min` of them).
/// With `alternate`, passes take turns untraced and traced.
fn passes(
    b: &mut Bench,
    snap: Option<&Path>,
    budget: Duration,
    min: usize,
    alternate: bool,
) -> Vec<Pass> {
    let threads = num_threads();
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget || (alternate && out.len() % 2 == 1) {
        let n = out.len();
        if alternate {
            b.sp.set_on(n % 2 == 1);
        }
        out.push(match snap {
            Some(dir) => b.sweep_pass(n, dir, threads, "pass"),
            None => b.cold_pass(n),
        });
    }
    b.sp.set_on(alternate);
    out
}

fn untraced(b: &mut Bench, budget: Duration) -> Metrics {
    let (setup, snap) = setups(b);
    let ps = passes(b, snap.as_deref(), budget, MIN_PASSES, false);
    if let Some(dir) = &snap {
        let direct = b.direct_cells(dir);
        let cold = (b.seed != DEFAULT_SEED).then(|| b.cold_cells());
        b.check_forked(&direct, cold.as_deref());
    }
    // Pass timings are scaled to the reference host (`speed` module);
    // the raw host figures are printed alongside. Set-up is scaled by the
    // host's speed over the passes that follow it: probes between set-up
    // repetitions read faster than probes between cells, since the
    // repetitions leave the probe's table in cache, and scaling by them
    // doubled the spread of `setup_s` over ten runs.
    let refs_per_s = |wall: fn(&Pass) -> f64| {
        median(
            &ps.iter()
                .map(|p| p.refs as f64 / wall(p))
                .collect::<Vec<_>>(),
        )
    };
    let med = |f: fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    let speed = med(|p| p.scaled_s / p.wall_s);
    let setup_raw = median(&setup.iter().map(|s| setup_s(b.w, s)).collect::<Vec<_>>());
    let mut m = Metrics::new();
    push(&mut m, "refs_per_s", refs_per_s(|p| p.scaled_s), "refs/s");
    push(&mut m, "wall_s", med(|p| p.scaled_s), "s");
    push(&mut m, "setup_s", setup_raw * speed, "s");
    // The probe's own table is not the workload's memory.
    let peak = peak_rss_bytes().saturating_sub(b.probe.resident_bytes);
    push(&mut m, "peak_rss_mb", peak as f64 / (1 << 20) as f64, "MB");
    let ok = b.attempted.saturating_sub(b.failed) as f64 / b.attempted.max(1) as f64;
    push(&mut m, "ok_frac", ok, "ratio");
    let round = |v: f64| (v * 1e3).round() / 1e3;
    eprintln!(
        "{}: {} passes, scaled wall_s {:?}, raw wall_s {:?}",
        b.w.name(),
        ps.len(),
        ps.iter().map(|p| round(p.scaled_s)).collect::<Vec<_>>(),
        ps.iter().map(|p| round(p.wall_s)).collect::<Vec<_>>()
    );
    let raw = format!(
        "raw host figures: refs_per_s={:.0} wall_s={:.4} setup_s={:.4} host speed={:.3} x reference",
        refs_per_s(|p| p.wall_s),
        med(|p| p.wall_s),
        setup_raw,
        speed
    );
    eprintln!("{raw}");
    println!("{raw}");
    m
}

/// Raw `setup_s` of one repetition: simulator construction (cold
/// workloads) or the whole store fill (`sweep-fork`).
fn setup_s(w: Workload, s: &Setup) -> f64 {
    if w == Workload::SweepFork {
        s.total_s
    } else {
        s.new_s
    }
}

fn med_of(ps: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
}

fn traced(b: &mut Bench, budget: Duration) -> Metrics {
    let threads = num_threads();
    let (setup, snap) = setups(b);
    let ps = passes(b, snap.as_deref(), budget / 2, 4, true);
    let on: Vec<&Pass> = ps.iter().filter(|p| p.traced).collect();
    let off: Vec<&Pass> = ps.iter().filter(|p| !p.traced).collect();
    let traced_wall = med_of(&on, |p| p.wall_s);
    let mut m = Metrics::new();

    // The simulator's own phases, and the exact counts of one pass.
    let (new_s, warmup_s, measure_s, finalize_s, counts, allocs);
    let mut sweep_vals = [0.0; SWEEP_LAYER.len()];
    if let Some(dir) = &snap {
        let one_thread = b.sweep_pass(ps.len(), dir, 1, "one_thread_sweep");
        let direct = b.direct_cells(dir);
        let cold = b.cold_cells();
        b.check_forked(&direct, Some(&cold));
        let ok: Vec<&workloads::Direct> = direct.iter().filter_map(|d| d.as_ref().ok()).collect();
        let busy: f64 = ok
            .iter()
            .map(|d| d.restore_s + d.resume_s + d.render_s)
            .sum();
        new_s = median(&setup.iter().map(|s| s.new_s).collect::<Vec<_>>());
        warmup_s = median(&setup.iter().map(|s| s.warmup_s).collect::<Vec<_>>());
        measure_s = ok.iter().map(|d| d.measure_s).sum::<f64>();
        finalize_s = ok.iter().map(|d| d.finalize_s).sum::<f64>();
        counts = ok.iter().fold(cells::Counts::default(), |mut c, d| {
            c.merge(&d.counts);
            c
        });
        allocs = med_of(&on, |p| p.allocs as f64);
        let fork_ratio = ProtocolKind::all().map(|p| {
            let (mut fork, mut cold_s) = (0.0, 0.0);
            for (i, &(cp, _)) in b.cells.iter().enumerate() {
                if let (true, Ok(d), Ok(c)) = (cp == p, &direct[i], &cold[i]) {
                    fork += d.measure_s;
                    cold_s += c.result.host.span_ns("measure") as f64 * 1e-9;
                }
            }
            fork / cold_s
        });
        let wall = median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        sweep_vals = [
            busy / (threads as f64 * wall),
            median(&setup.iter().map(|s| s.save_s).collect::<Vec<_>>()),
            ok.iter().map(|d| d.restore_s).sum(),
            setup.first().map_or(0, |s| s.image_bytes) as f64,
            fork_ratio[0],
            fork_ratio[1],
            fork_ratio[2],
            fork_ratio[3],
            one_thread.wall_s - busy,
            ok.iter().map(|d| d.render_s).sum(),
        ];
    } else {
        new_s = med_of(&on, |p| p.new_s);
        warmup_s = med_of(&on, |p| p.warmup_s);
        measure_s = med_of(&on, |p| p.resume_s - p.finalize_s);
        finalize_s = med_of(&on, |p| p.finalize_s);
        counts = on.first().map_or_else(Default::default, |p| p.counts);
        allocs = med_of(&on, |p| p.allocs as f64);
    }
    let events = counts.events as f64;
    push(&mut m, "sim.new_s", new_s, "s");
    push(&mut m, "sim.warmup_s", warmup_s, "s");
    push(&mut m, "sim.measure_s", measure_s, "s");
    push(&mut m, "sim.finalize_s", finalize_s, "s");
    push(&mut m, "sim.events", events, "count");
    push(
        &mut m,
        "sim.events_per_ref",
        events / counts.refs_done.max(1) as f64,
        "ratio",
    );
    push(
        &mut m,
        "sim.events_per_s",
        events / (warmup_s + measure_s),
        "1/s",
    );
    let refs = if snap.is_some() {
        counts.measured_refs
    } else {
        counts.refs_done
    };
    push(
        &mut m,
        "alloc.per_ref",
        allocs / refs.max(1) as f64,
        "count",
    );

    // Workload generation and translation, then the protocols alone.
    let bench = b.cells[0].1;
    let cfg = b.cfg.clone();
    let (gen_ns, tr_ns, streams) = layers::streams(&cfg, bench, &mut b.sp);
    push(&mut m, "workloads.next_ref_ns", gen_ns, "ns");
    push(&mut m, "virt.translate_ns", tr_ns, "ns");
    push(
        &mut m,
        "virt.physical_pages",
        counts.physical_pages as f64,
        "count",
    );
    push(&mut m, "virt.cow_faults", counts.cow_faults as f64, "count");
    let mut checker = Vec::new();
    for (i, p) in ProtocolKind::all().into_iter().enumerate() {
        let plain = layers::protocol_access_ns(
            p,
            &cfg,
            &streams,
            layers::HARNESS_REFS_PER_TILE,
            false,
            &mut b.sp,
            i,
        );
        push(
            &mut m,
            format!("protocols.{}.access_ns", proto_label(p)),
            plain.clone().unwrap_or(0.0),
            "ns",
        );
        if let Err(e) = &plain {
            b.problems.push(format!(
                "{}: harness replay of {}: {e}",
                b.w.name(),
                p.name()
            ));
        }
        if b.w == Workload::Checked {
            let per_tile = layers::CHECKER_REFS_PER_TILE;
            let on = layers::protocol_access_ns(p, &cfg, &streams, per_tile, true, &mut b.sp, i);
            let off = layers::protocol_access_ns(p, &cfg, &streams, per_tile, false, &mut b.sp, i);
            match (on, off) {
                (Ok(on), Ok(off)) => checker.push(on - off),
                (Err(e), _) | (_, Err(e)) => b
                    .problems
                    .push(format!("checked: checker replay of {}: {e}", p.name())),
            }
        }
    }
    push(&mut m, "protocols.checker_ns", median(&checker), "ns");
    push(&mut m, "cache.l1_misses", counts.l1_misses as f64, "count");
    push(&mut m, "cache.l2_misses", counts.l2_misses as f64, "count");
    push(&mut m, "protocols.retries", counts.retries as f64, "count");
    push(
        &mut m,
        "protocols.broadcast_invs",
        counts.broadcast_invs as f64,
        "count",
    );

    // The NoC and the event queue, replayed from each protocol's log.
    let (mut send, mut bcast, mut queue) = (Vec::new(), Vec::new(), Vec::new());
    for (i, p) in ProtocolKind::all().into_iter().enumerate() {
        let (log, _) = b.sp.time("trace.message_log", Some(i), || {
            layers::message_log(p, bench, &cfg)
        });
        match log {
            Ok(log) => {
                let (s, bc) = layers::noc_replay(&cfg, &log, &mut b.sp, i);
                send.push(s);
                if log.iter().any(|l| l.bcast) {
                    bcast.push(bc);
                }
                queue.push(layers::queue_replay(&log, &mut b.sp, i));
            }
            Err(e) => b
                .problems
                .push(format!("{}: message log of {}: {e}", b.w.name(), p.name())),
        }
    }
    push(&mut m, "noc.send_ns", median(&send), "ns");
    push(&mut m, "noc.broadcast_ns", median(&bcast), "ns");
    push(&mut m, "noc.messages", counts.messages as f64, "count");
    push(&mut m, "noc.broadcasts", counts.broadcasts as f64, "count");
    push(
        &mut m,
        "noc.flit_link_traversals",
        counts.flits as f64,
        "count",
    );
    push(
        &mut m,
        "noc.contention_cycles",
        counts.contention as f64,
        "count",
    );
    push(&mut m, "engine.queue_ns", median(&queue), "ns");

    for (&(name, unit), v) in SWEEP_LAYER.iter().zip(sweep_vals) {
        push(&mut m, name, v, unit);
    }

    // Observer costs (tenant-alt only; no observer runs elsewhere).
    let (attr, trace, interval) = if b.w == Workload::TenantAlt {
        observer_costs(b)
    } else {
        (0.0, 0.0, 0.0)
    };
    push(&mut m, "attr.overhead_s", attr, "s");
    push(&mut m, "trace.overhead_s", trace, "s");
    push(&mut m, "interval.overhead_s", interval, "s");

    // The spans themselves: overhead, and self time inside a traced pass.
    push(
        &mut m,
        "spans.overhead_s",
        traced_wall - med_of(&off, |p| p.wall_s),
        "s",
    );
    push(&mut m, "spans.traced_wall_s", traced_wall, "s");
    let selfs = b.sp.self_times_under("pass");
    let n_on = on.len().max(1) as f64;
    for name in [
        "pass",
        "sim.new",
        "sim.warm_up",
        "sim.resume",
        "orchestrator.run_sweep",
    ] {
        push(
            &mut m,
            format!("self.{name}_s"),
            selfs.get(name).copied().unwrap_or(0.0) / n_on,
            "s",
        );
    }
    eprintln!("reported as 0 on {}: {}", b.w.name(), not_exercised(b.w));
    for (name, s) in b.sp.self_times_under("") {
        eprintln!("self time {name:<32} {s:>10.4} s");
    }
    m
}

/// The per-layer metrics a workload does not exercise, and why.
fn not_exercised(w: Workload) -> &'static str {
    match w {
        Workload::PaperApache => {
            "snapshot.*, orchestrator.overhead_s, result.render_s, engine.par_efficiency (no snapshot \
             or sweep runs); attr/trace/interval.overhead_s (no observers); protocols.checker_ns \
             (checker off); noc.broadcast_ns (a matched run sends no broadcasts)"
        }
        Workload::SweepFork => {
            "attr/trace/interval.overhead_s (no observers); protocols.checker_ns (checker off); \
             noc.broadcast_ns (matched runs send no broadcasts)"
        }
        Workload::TenantAlt => {
            "snapshot.*, orchestrator.overhead_s, result.render_s, engine.par_efficiency (observer \
             runs are never snapshotted); protocols.checker_ns (checker off)"
        }
        Workload::Checked => {
            "snapshot.*, orchestrator.overhead_s, result.render_s, engine.par_efficiency (checked \
             runs are never snapshotted); attr/trace/interval.overhead_s (no observers)"
        }
    }
}

/// Each observer's cost on `tenant-alt`: the workload's cells run cold
/// with only that observer on, minus the same cells with none.
fn observer_costs(b: &mut Bench) -> (f64, f64, f64) {
    let mut base = b.cfg.clone();
    base.attribution = false;
    base.tracing = false;
    base.sample_interval = None;
    let variants = [
        base.clone(),
        base.clone().with_attribution(),
        base.clone()
            .with_tracing()
            .with_trace_capacity(b.cfg.trace_capacity),
        base.clone().with_interval(TENANT_INTERVAL),
    ];
    let mut samples = vec![Vec::new(); variants.len()];
    for _ in 0..2 {
        for (v, cfg) in variants.iter().enumerate() {
            let t = b.sp.open("observers", None);
            for i in 0..b.cells.len() {
                let (p, bench) = b.cells[i];
                if let Err(e) = cells::run_cold(p, bench, cfg, i, &mut b.sp) {
                    b.problems
                        .push(format!("tenant-alt: observer run of {}: {e}", b.names[i]));
                }
            }
            samples[v].push(b.sp.close(t));
        }
    }
    let base_s = median(&samples[0]);
    (
        median(&samples[1]) - base_s,
        median(&samples[2]) - base_s,
        median(&samples[3]) - base_s,
    )
}

/// Captures `pins.tsv`: every cell of every workload run cold at the
/// default seed.
fn capture_pins() -> ExitCode {
    let mut out = String::from(
        "# workload\tcell\tcycles\tmeasured_refs\tnoc.messages\tnoc.flit_link_traversals\tenergy_nj\tversion_digest\n",
    );
    let mut sp = spans::Spans::new(false);
    for w in Workload::ALL {
        for (i, (p, bench, cfg, name)) in w.cell_configs(DEFAULT_SEED).into_iter().enumerate() {
            match cells::run_cold(p, bench, &cfg, i, &mut sp) {
                Ok(r) => {
                    let line = cells::Pins::line(w.name(), &name, cells::Values::of(&r.result));
                    eprintln!("{line}");
                    out.push_str(&line);
                    out.push('\n');
                }
                Err(e) => {
                    eprintln!("error: {} {name}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.tsv");
    match std::fs::write(&path, out) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
