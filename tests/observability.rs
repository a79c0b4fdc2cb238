//! Integration tests for the observability stack: the unified metrics
//! registry, the coherence-transaction tracer and the interval
//! time-series — including the hop-reconciliation and golden
//! byte-identity guarantees the exports rely on.

use cmpsim::replay::Value;
use cmpsim::{run_benchmark, Benchmark, ProtocolKind, SystemConfig};

fn obs_config() -> SystemConfig {
    SystemConfig::small().with_tracing().with_interval(1_000)
}

/// Tracing and sampling are observation-only: the simulated outcome is
/// bit-identical with them on or off.
#[test]
fn observability_does_not_change_timing() {
    for kind in ProtocolKind::all() {
        let plain = run_benchmark(kind, Benchmark::Apache, &SystemConfig::small()).expect("run");
        let observed = run_benchmark(kind, Benchmark::Apache, &obs_config()).expect("run");
        assert_eq!(plain.cycles, observed.cycles, "{kind:?}");
        assert_eq!(plain.measured_refs, observed.measured_refs, "{kind:?}");
        assert_eq!(
            plain.noc_stats.routing_events.get(),
            observed.noc_stats.routing_events.get(),
            "{kind:?}"
        );
    }
}

/// Every post-warm-up link traversal the NoC charges is seen by the
/// tracer, so the per-transaction hop attribution reconciles exactly
/// with the end-of-run `routing_events` counter.
#[test]
fn trace_hops_reconcile_with_noc_counters() {
    for kind in ProtocolKind::all() {
        let r = run_benchmark(kind, Benchmark::Apache, &obs_config()).expect("run");
        let t = r.trace.as_ref().expect("tracing enabled");
        assert_eq!(
            t.total_hops(),
            r.noc_stats.routing_events.get(),
            "{kind:?}: tx {} + untracked {} != routing_events",
            t.tx_hops,
            t.untracked_hops
        );
        assert!(t.completed_txs > 0, "{kind:?} traced no transactions");
        assert_eq!(t.open_txs, 0, "{kind:?} left transactions open after a clean drain");
    }
}

/// The per-event `links` arguments also sum to the attributed totals
/// (no event recorded outside the accounting), as long as the ring
/// never overflowed.
#[test]
fn trace_event_links_sum_to_hops() {
    let cfg = SystemConfig::smoke().with_trace_capacity(1 << 20).with_interval(500);
    let r = run_benchmark(ProtocolKind::Directory, Benchmark::Radix, &cfg).expect("run");
    let t = r.trace.as_ref().expect("tracing enabled");
    assert_eq!(t.ring.dropped(), 0, "capacity too small for this budget");
    let links_sum: u64 = t
        .ring
        .iter()
        .filter(|e| e.cat != "tx")
        .map(|e| e.args.iter().find(|(k, _)| *k == "links").map_or(0, |&(_, v)| v))
        .sum();
    assert_eq!(links_sum, t.total_hops());
    // Per-transaction hop counts from the lifecycle spans reconcile too.
    let tx_hops: u64 = t
        .ring
        .iter()
        .filter(|e| e.cat == "tx")
        .map(|e| e.args.iter().find(|(k, _)| *k == "hops").map_or(0, |&(_, v)| v))
        .sum();
    assert_eq!(tx_hops, t.tx_hops);
}

/// Two identical seeded runs export byte-identical metrics JSON, trace
/// JSON and time-series CSV (the golden-file property downstream
/// tooling and CI diffs rely on).
#[test]
fn exports_are_byte_identical_across_runs() {
    let cfg = obs_config();
    let a = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
    let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
    assert_eq!(a.metrics_json(), b.metrics_json());
    assert_eq!(
        a.trace.as_ref().unwrap().to_chrome_json("golden"),
        b.trace.as_ref().unwrap().to_chrome_json("golden")
    );
    let (sa, sb) = (a.timeseries.as_ref().unwrap(), b.timeseries.as_ref().unwrap());
    assert_eq!(sa.to_csv(), sb.to_csv());
    assert_eq!(sa.to_json(), sb.to_json());
}

/// The trace export is well-formed Chrome trace-event JSON our own
/// strict parser accepts, with the expected envelope.
#[test]
fn chrome_trace_parses() {
    let r = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Radix, &obs_config()).expect("run");
    let json = r.trace.as_ref().unwrap().to_chrome_json("cmpsim");
    let v = Value::parse(&json).expect("valid JSON");
    let events = match v.field("traceEvents").expect("traceEvents") {
        Value::Arr(items) => items,
        other => panic!("traceEvents not an array: {other:?}"),
    };
    // Metadata record plus at least one span.
    assert!(events.len() > 1);
    assert_eq!(events[0].field("ph").unwrap().as_str().unwrap(), "M");
    for ev in &events[1..] {
        assert_eq!(ev.field("ph").unwrap().as_str().unwrap(), "X");
        ev.field("ts").unwrap().as_u64().expect("numeric ts");
        ev.field("dur").unwrap().as_u64().expect("numeric dur");
    }
    v.field("otherData").unwrap().field("droppedEvents").unwrap().as_u64().unwrap();
}

/// The interval series tiles the measured window exactly: samples are
/// contiguous, interval-sized except the final partial one, and sum to
/// the end-of-run totals.
#[test]
fn interval_series_tiles_the_measured_window() {
    let r = run_benchmark(ProtocolKind::Directory, Benchmark::Apache, &obs_config()).expect("run");
    let ts = r.timeseries.as_ref().expect("sampling enabled");
    assert!(!ts.samples.is_empty());
    for w in ts.samples.windows(2) {
        assert_eq!(w[0].end, w[1].start, "gap in the series");
    }
    for s in &ts.samples[..ts.samples.len() - 1] {
        assert_eq!(s.cycles(), ts.interval, "non-final sample must be interval-sized");
    }
    let last = ts.samples.last().unwrap();
    assert!(last.cycles() <= ts.interval, "final sample may be partial, not longer");
    // Delta sums reconcile with the cumulative end-of-run counters.
    let hops: u64 = ts.samples.iter().map(|s| s.hops).sum();
    assert_eq!(hops, r.noc_stats.routing_events.get());
    let msgs: u64 = ts.samples.iter().map(|s| s.messages).sum();
    assert_eq!(msgs, r.noc_stats.messages.get());
    let refs: u64 = ts.samples.iter().map(|s| s.refs).sum();
    assert_eq!(refs, r.measured_refs);
    let dyn_nj: f64 = ts.samples.iter().map(|s| s.cache_nj + s.net_nj).sum();
    assert!(
        (dyn_nj - r.total_dynamic_nj()).abs() < 1e-6 * r.total_dynamic_nj().max(1.0),
        "dynamic energy drifted: {} vs {}",
        dyn_nj,
        r.total_dynamic_nj()
    );
    // Occupancies and utilizations are sane fractions.
    for s in &ts.samples {
        assert!((0.0..=1.0).contains(&s.l1_occ));
        assert!((0.0..=1.0).contains(&s.l2_occ));
        assert!(s.link_util_mean >= 0.0 && s.link_util_max >= s.link_util_mean);
    }
}

/// The registry export is valid JSON with the three top-level sections
/// and covers the headline counters.
#[test]
fn metrics_json_shape() {
    let r = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Jbb, &obs_config()).expect("run");
    let v = Value::parse(&r.metrics_json()).expect("valid JSON");
    let counters = v.field("counters").expect("counters section");
    assert_eq!(
        counters.field("sim.cycles").unwrap().as_u64().unwrap(),
        r.cycles,
        "registry disagrees with the result struct"
    );
    assert_eq!(
        counters.field("noc.messages").unwrap().as_u64().unwrap(),
        r.noc_stats.messages.get()
    );
    assert_eq!(
        counters.field("trace.completed_txs").unwrap().as_u64().unwrap(),
        r.trace.as_ref().unwrap().completed_txs
    );
    v.field("gauges").expect("gauges section");
    let hists = v.field("histograms").expect("histograms section");
    let lat = hists.field("proto.miss_latency").expect("latency histogram");
    assert!(lat.field("count").unwrap().as_u64().unwrap() > 0);
}

/// Attribution is observation-only on every protocol: the simulated
/// outcome is bit-identical with it on or off.
#[test]
fn attribution_does_not_change_timing_on_any_protocol() {
    let cfg = SystemConfig::small().with_attribution();
    for kind in ProtocolKind::all() {
        let plain = run_benchmark(kind, Benchmark::Radix, &SystemConfig::small()).expect("run");
        let attr = run_benchmark(kind, Benchmark::Radix, &cfg).expect("run");
        assert_eq!(plain.cycles, attr.cycles, "{kind:?}");
        assert_eq!(plain.measured_refs, attr.measured_refs, "{kind:?}");
        assert_eq!(
            plain.noc_stats.messages.get(),
            attr.noc_stats.messages.get(),
            "{kind:?}"
        );
        assert!(plain.breakdown.is_none());
        assert!(attr.breakdown.is_some());
    }
}

/// Two identical seeded runs export byte-identical breakdown JSON and
/// CSV — the golden-file property the `breakdown` command and CI's
/// double-run `cmp` check rely on.
#[test]
fn breakdown_exports_are_byte_identical_across_runs() {
    use cmpsim::report::{breakdown_csv, breakdown_json};
    let cfg = SystemConfig::small().with_attribution();
    let a = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Apache, &cfg).expect("run");
    let b = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Apache, &cfg).expect("run");
    let (ra, rb) = (std::slice::from_ref(&a), std::slice::from_ref(&b));
    assert_eq!(breakdown_json(ra), breakdown_json(rb));
    assert_eq!(breakdown_csv(ra), breakdown_csv(rb));
    // The export is well-formed JSON with the versioned envelope.
    let v = Value::parse(&breakdown_json(ra)).expect("valid JSON");
    assert_eq!(v.field("schema").unwrap().as_str().unwrap(), "cmpsim-breakdown-v1");
}

/// Without the opt-ins, runs carry no observability payloads.
#[test]
fn disabled_by_default() {
    let r = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &SystemConfig::smoke())
        .expect("run");
    assert!(r.trace.is_none());
    assert!(r.timeseries.is_none());
    // The registry still works — it publishes from the result itself.
    assert!(!r.metrics().is_empty());
}

/// FNV-1a 64 over `bytes` (the digest the snapshot-image pins use).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Mixed-com under the alternative placement on the 16-tile chip: the
/// cell with broadcasts, remote-area sharing and cross-VM traffic, so
/// every observer path is live.
fn pinned_cell() -> SystemConfig {
    SystemConfig::small().with_placement(cmpsim::Placement::Alternative)
}

/// The observer exports themselves are pinned, not just their
/// run-to-run determinism: trace, breakdown, vmstat and interval series
/// of one fixed run per protocol with every observer on. A change here
/// means an observer changed what it records; say why next to the new
/// digests.
#[test]
fn observer_outputs_are_pinned_byte_for_byte() {
    use cmpsim::report::breakdown_json;
    let cfg = pinned_cell().with_tracing().with_attribution().with_interval(1_000);
    let mut got = Vec::new();
    for kind in ProtocolKind::all() {
        let r = run_benchmark(kind, Benchmark::MixedCom, &cfg).expect("run");
        let one = std::slice::from_ref(&r);
        let exports = [
            ("trace", r.trace.as_ref().expect("tracing on").to_chrome_json("pin")),
            ("breakdown", breakdown_json(one)),
            ("vmstat", cmpsim::vmstat_json(one)),
            ("series", r.timeseries.as_ref().expect("sampling on").to_csv()),
        ];
        for (what, text) in exports {
            got.push(format!("{}/{what} {} {:016x}", kind.name(), text.len(), fnv1a(text.as_bytes())));
        }
    }
    let want = [
        "Directory/trace 1030456 0a0c307b7fd94cef",
        "Directory/breakdown 3587 d3b0710f4704fd63",
        "Directory/vmstat 7705 a592099395529d33",
        "Directory/series 5381 6253e1f5564210a9",
        "DiCo/trace 1163606 cddeb27369169648",
        "DiCo/breakdown 3522 e0ee5bb4d23aefce",
        "DiCo/vmstat 7717 f3df50e6d7910fbc",
        "DiCo/series 5087 dea3ac84b46fd5ba",
        "DiCo-Providers/trace 1168103 f67be590ebde16d6",
        "DiCo-Providers/breakdown 3580 549acb173099ff4b",
        "DiCo-Providers/vmstat 7729 1be51e657dce7c35",
        "DiCo-Providers/series 5096 151973c5ccbffb5f",
        "DiCo-Arin/trace 1200743 904606a219b41aee",
        "DiCo-Arin/breakdown 3548 71e9e1b906277f12",
        "DiCo-Arin/vmstat 7731 d0519d27e479c8c2",
        "DiCo-Arin/series 5248 c1e984e4e9254245",
    ];
    assert_eq!(got, want, "observer export bytes changed");
}

/// The tracer and attribution follow the same open misses, but neither
/// may change what the other records: the trace is the same with
/// attribution also on, and the breakdown the same with tracing also on.
#[test]
fn tracer_and_attribution_are_independent() {
    use cmpsim::report::breakdown_json;
    for kind in ProtocolKind::all() {
        let run = |cfg: SystemConfig| run_benchmark(kind, Benchmark::MixedCom, &cfg).expect("run");
        let both = run(pinned_cell().with_tracing().with_attribution());
        let traced = run(pinned_cell().with_tracing());
        let attributed = run(pinned_cell().with_attribution());
        assert_eq!(
            both.trace.as_ref().unwrap().to_chrome_json("x"),
            traced.trace.as_ref().unwrap().to_chrome_json("x"),
            "{kind:?}: attribution changed the trace"
        );
        assert_eq!(
            breakdown_json(std::slice::from_ref(&both)),
            breakdown_json(std::slice::from_ref(&attributed)),
            "{kind:?}: tracing changed the breakdown"
        );
    }
}
