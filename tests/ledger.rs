//! Integration tests for the run ledger: manifest stamping on real
//! simulation runs, byte-determinism of stamped artifacts and the
//! Markdown report, structural comparison verdicts, and the live
//! progress stream.

use cmpsim::compare::{compare_docs, CompareOptions, CompareReport, Verdict};
use cmpsim::manifest::manifest_of;
use cmpsim::replay::Value;
use cmpsim::report::markdown_report;
use cmpsim::{
    run_benchmark, run_matrix_with_options, Benchmark, ProgressSink, ProtocolKind, RunManifest,
    SystemConfig,
};

fn cfg() -> SystemConfig {
    SystemConfig::small()
}

/// Every simulator-produced result carries a manifest, and it matches
/// the one computed directly from the run's inputs.
#[test]
fn results_carry_the_input_manifest() {
    let r = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg()).expect("run");
    let m = r.manifest.as_ref().expect("manifest attached");
    assert_eq!(*m, RunManifest::new(ProtocolKind::DiCo, Benchmark::Apache, &cfg()));
    assert_eq!(m.protocol, "DiCo");
    assert_eq!(m.seed, cfg().seed);
    assert_eq!(m.fault_spec, None);
}

/// Stamped metrics JSON is byte-identical across identical runs, leads
/// with the manifest, and the embedded manifest round-trips.
#[test]
fn stamped_metrics_are_deterministic_and_parse() {
    let a = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Radix, &cfg()).expect("run");
    let b = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Radix, &cfg()).expect("run");
    let ja = a.metrics_json();
    assert_eq!(ja, b.metrics_json(), "stamped artifact must stay byte-deterministic");
    assert!(ja.starts_with("{\n  \"manifest\": {"), "manifest leads the artifact");

    let doc = Value::parse(&ja).expect("stamped metrics parse");
    let embedded = manifest_of(&doc).expect("embedded manifest");
    assert_eq!(&embedded, a.manifest.as_ref().unwrap());
    // The rest of the document is still the plain metrics export.
    assert!(doc.field("counters").unwrap().field("sim.cycles").unwrap().as_u64().unwrap() > 0);
}

/// Protocol cells of the same configuration share the config digest but
/// have distinct run ids.
#[test]
fn matrix_cells_share_config_digest_with_distinct_run_ids() {
    let manifests: Vec<RunManifest> = ProtocolKind::all()
        .iter()
        .map(|&p| RunManifest::new(p, Benchmark::Apache, &cfg()))
        .collect();
    for m in &manifests[1..] {
        assert_eq!(m.config_digest, manifests[0].config_digest);
        assert_ne!(m.run_id, manifests[0].run_id);
    }
}

fn compare_metrics(a: &str, b: &str) -> CompareReport {
    let opts = CompareOptions::default();
    let mut report = CompareReport {
        a_label: "a".into(),
        b_label: "b".into(),
        ..Default::default()
    };
    compare_docs(&Value::parse(a).unwrap(), &Value::parse(b).unwrap(), None, &opts, &mut report);
    report
}

/// Comparing a run against itself passes with zero diffs; comparing
/// against a different seed reports differences without claiming a
/// determinism violation (the run ids differ).
#[test]
fn compare_separates_identical_from_changed_runs() {
    let a = run_benchmark(ProtocolKind::Directory, Benchmark::Jbb, &cfg()).expect("run");
    let same = compare_metrics(&a.metrics_json(), &a.metrics_json());
    assert!(same.diffs.is_empty());
    assert!(same.passed(&CompareOptions::default()));
    assert!(!same.determinism_violation);

    let b = run_benchmark(ProtocolKind::Directory, Benchmark::Jbb, &cfg().with_seed(4242))
        .expect("run");
    let diff = compare_metrics(&a.metrics_json(), &b.metrics_json());
    assert!(!diff.diffs.is_empty(), "different seeds must differ somewhere");
    assert!(!diff.determinism_violation, "different run ids are an ordinary diff");
    assert!(!diff.passed(&CompareOptions::default()));
}

/// A synthetically regressed counter produces a `regressed` verdict
/// naming the metric — and, because the tampered artifact still claims
/// the original run id, a determinism violation.
#[test]
fn synthetic_regression_is_flagged_by_name() {
    let r = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg()).expect("run");
    let good = r.metrics_json();
    let doc = Value::parse(&good).unwrap();
    let cycles = doc.field("counters").unwrap().field("sim.cycles").unwrap().as_u64().unwrap();
    let bad = good.replacen(
        &format!("\"sim.cycles\": {cycles}"),
        &format!("\"sim.cycles\": {}", cycles + 10_000),
        1,
    );
    assert_ne!(good, bad, "the tamper must land");

    let report = compare_metrics(&good, &bad);
    assert!(!report.passed(&CompareOptions::default()));
    assert!(report.determinism_violation, "same run_id + different counters");
    let d = report
        .diffs
        .iter()
        .find(|d| d.metric == "counters.sim.cycles")
        .expect("the drifted metric is named");
    assert_eq!(d.verdict, Verdict::Regressed);
    // The machine-readable diff is valid JSON and names the metric too.
    let json = report.to_json(&CompareOptions::default());
    let parsed = Value::parse(&json).expect("diff JSON parses");
    assert!(!parsed.field("passed").unwrap().as_bool().unwrap());
    assert!(json.contains("counters.sim.cycles"));
}

/// The Markdown report is byte-identical across reruns and carries the
/// run ledger (one run id per protocol).
#[test]
fn markdown_report_is_deterministic_and_lists_run_ids() {
    let protocols = [ProtocolKind::Directory, ProtocolKind::DiCo];
    let cfg = cfg().with_attribution().with_interval(1_000);
    let run = || {
        run_matrix_with_options(&protocols, &[Benchmark::Apache], &cfg, None, None, None)
            .expect("run")
    };
    let (a, b) = (run(), run());
    let md = markdown_report(&a);
    assert_eq!(md, markdown_report(&b), "report must be byte-deterministic");
    assert!(md.starts_with("# cmpsim matrix report"));
    assert!(md.contains("## Run ledger"));
    for r in &a {
        assert!(md.contains(&r.manifest.as_ref().unwrap().run_id), "{} run id listed",
            r.protocol.name());
    }
    assert!(md.contains("Fig. 7"), "latency breakdown section present");
    assert!(md.contains("Interval series"), "interval summary present");
}

/// A real matrix sweep feeds the progress stream: one start event, one
/// cell event per (protocol, benchmark), one finish event, all parsing
/// as `cmpsim-progress-v1` with consistent totals.
#[test]
fn matrix_sweep_emits_a_full_progress_stream() {
    let dir = std::env::temp_dir().join(format!("cmpsim-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("progress.ndjson");

    let protocols = [ProtocolKind::Directory, ProtocolKind::DiCoArin];
    let sink = ProgressSink::new("matrix", 2, Some(path.to_str().unwrap()), false).unwrap();
    run_matrix_with_options(&protocols, &[Benchmark::Radix], &cfg(), Some(&sink), None, None)
        .expect("run");

    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<Value> =
        text.lines().map(|l| Value::parse(l).expect("NDJSON line parses")).collect();
    assert_eq!(events.len(), 4, "start + 2 cells + finish:\n{text}");
    for e in &events {
        assert_eq!(e.field("schema").unwrap().as_str().unwrap(), "cmpsim-progress-v1");
    }
    assert_eq!(events[0].field("event").unwrap().as_str().unwrap(), "start");
    let last = events.last().unwrap();
    assert_eq!(last.field("event").unwrap().as_str().unwrap(), "finish");
    assert_eq!(last.field("done").unwrap().as_u64().unwrap(), 2);
    let mut cells: Vec<String> = events[1..3]
        .iter()
        .map(|e| e.field("cell").unwrap().as_str().unwrap().to_string())
        .collect();
    cells.sort();
    assert_eq!(cells[0], format!("DiCo-Arin/{}", Benchmark::Radix.name()));
    assert_eq!(cells[1], format!("Directory/{}", Benchmark::Radix.name()));
    for e in &events[1..3] {
        assert_eq!(e.field("status").unwrap().as_str().unwrap(), "ok");
        assert!(e.field("events").unwrap().as_u64().unwrap() > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
