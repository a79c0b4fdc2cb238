//! Snapshot/fork engine gates.
//!
//! The hard invariant: snapshot → restore → run must be bit-for-bit
//! identical to an uninterrupted run — same cycles, same stats, same
//! metrics rendering, same architectural digest — across the full
//! 4-protocol × 8-benchmark matrix. A forked simulator must satisfy the
//! same identity. And every malformed image must surface as a typed
//! [`SimError::Snapshot`], never a panic.

use cmpsim::snapshot::snapshot_key;
use cmpsim::{
    chaos_sweep_with_options, run_benchmark, run_benchmark_with_store, run_matrix_with_options,
    Benchmark, CmpSimulator, FaultPlan, Placement, ProtocolKind, RunResult, SimError,
    SnapshotStore, SystemConfig,
};
use proptest::prelude::*;

/// Everything deterministic a run produces, rendered for comparison.
/// Host-profile timings are the one legitimately nondeterministic part
/// of a result and are excluded by construction (`metrics_json` does
/// not include them).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{}\narch={:?}\nmanifest={:?}\ncycles={} refs={} effective={:?}",
        r.metrics_json(),
        r.arch,
        r.manifest.as_ref().map(|m| (&m.run_id, &m.config_digest)),
        r.cycles,
        r.measured_refs,
        r.effective_cycles,
    )
}

#[test]
fn full_matrix_restore_is_bit_identical_to_cold_runs() {
    let cfg = SystemConfig::smoke();
    for kind in ProtocolKind::all() {
        for b in Benchmark::all() {
            let cold = run_benchmark(kind, b, &cfg).expect("cold run");

            // Manual path: warm, capture, restore, resume.
            let key = snapshot_key(kind, b, &cfg);
            let mut sim = CmpSimulator::new(kind, b, &cfg);
            assert!(sim.warm_up().expect("warm-up"), "{kind:?}/{b:?} must reach the boundary");
            let image = sim.save_snapshot(key);
            let restored =
                CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("restore");
            let resumed = restored.resume().expect("resumed run");
            assert_eq!(
                fingerprint(&cold),
                fingerprint(&resumed),
                "{kind:?}/{b:?}: snapshot->restore->run differs from the uninterrupted run"
            );

            // The producer leg (capture, then continue in place) must
            // be identical too.
            let continued = sim.resume().expect("continued run");
            assert_eq!(fingerprint(&cold), fingerprint(&continued), "{kind:?}/{b:?} producer leg");
        }
    }
}

#[test]
fn store_driven_matrix_matches_cold_matrix() {
    let cfg = SystemConfig::smoke();
    let protocols = ProtocolKind::all();
    let benchmarks = Benchmark::all();
    let cold =
        run_matrix_with_options(&protocols, &benchmarks, &cfg, None, None, None).expect("cold");
    let store = SnapshotStore::in_memory();
    // First pass populates the store (every cell is a miss), second
    // pass restores every cell from it.
    let first = run_matrix_with_options(&protocols, &benchmarks, &cfg, None, Some(2), Some(&store))
        .expect("populating pass");
    assert_eq!(store.cached(), protocols.len() * benchmarks.len());
    let second = run_matrix_with_options(&protocols, &benchmarks, &cfg, None, Some(2), Some(&store))
        .expect("forked pass");
    for ((c, f), s) in cold.iter().zip(&first).zip(&second) {
        assert_eq!(fingerprint(c), fingerprint(f), "populating pass differs from cold");
        assert_eq!(fingerprint(c), fingerprint(s), "restored pass differs from cold");
    }
    // Forked runs report the snapshot span family in the host profile.
    assert!(
        second.iter().all(|r| r.host.spans.iter().any(|(name, _)| *name == "snapshot.restore")),
        "restored cells must carry a snapshot.restore span"
    );
    assert!(
        first.iter().all(|r| r.host.spans.iter().any(|(name, _)| *name == "snapshot.save")),
        "populating cells must carry a snapshot.save span"
    );
}

#[test]
fn forks_are_bit_identical_to_their_parent() {
    let cfg = SystemConfig::smoke();
    let cold = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg).expect("cold");
    let mut sim = CmpSimulator::new(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg);
    assert!(sim.warm_up().expect("warm-up"));
    let twin_a = sim.fork();
    let twin_b = sim.fork();
    let a = twin_a.resume().expect("fork a");
    let b = twin_b.resume().expect("fork b");
    let parent = sim.resume().expect("parent");
    assert_eq!(fingerprint(&cold), fingerprint(&a));
    assert_eq!(fingerprint(&cold), fingerprint(&b));
    assert_eq!(fingerprint(&cold), fingerprint(&parent));
}

#[test]
fn sampling_runs_can_share_snapshots_with_plain_runs() {
    // The interval sampler is created at the warm boundary, so a
    // sampled run forked from a plain run's snapshot must produce the
    // identical time-series a cold sampled run does.
    let base = SystemConfig::smoke();
    let sampled = base.clone().with_interval(64);
    assert_eq!(
        snapshot_key(ProtocolKind::DiCo, Benchmark::Lu, &base),
        snapshot_key(ProtocolKind::DiCo, Benchmark::Lu, &sampled),
        "sampling is observability-only and must not split the key"
    );
    let cold = run_benchmark(ProtocolKind::DiCo, Benchmark::Lu, &sampled).expect("cold sampled");
    let store = SnapshotStore::in_memory();
    // Populate with the plain config, then run the sampled config hot.
    run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Lu, &base, Some(&store))
        .expect("plain populate");
    let hot = run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Lu, &sampled, Some(&store))
        .expect("sampled restore");
    assert_eq!(fingerprint(&cold), fingerprint(&hot));
    let (c, h) = (cold.timeseries.expect("cold series"), hot.timeseries.expect("hot series"));
    assert_eq!(c.to_csv(), h.to_csv(), "restored run's time-series must match the cold run's");
}

#[test]
fn observer_runs_stay_cold_and_identical() {
    // Tracing / checking / attribution runs are ineligible: the store
    // must be bypassed (not populated, not consulted) and results stay
    // identical to plain cold runs.
    let cfg = SystemConfig::smoke().with_attribution();
    let store = SnapshotStore::in_memory();
    let a = run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Radix, &cfg, Some(&store))
        .expect("attributed run");
    assert_eq!(store.cached(), 0, "ineligible runs must not populate the store");
    let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg).expect("plain attributed");
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn chaos_sweep_with_store_matches_plain_sweep() {
    let cfg = SystemConfig::smoke();
    let plans = vec![
        FaultPlan::parse("recoverable@7").expect("plan"),
        FaultPlan::parse("chaos@11").expect("plan"),
    ];
    let protocols = [ProtocolKind::Directory, ProtocolKind::DiCoArin];
    let benchmarks = [Benchmark::Radix, Benchmark::Apache];
    let plain =
        chaos_sweep_with_options(&protocols, &benchmarks, &plans, &cfg, None, Some(2), None);
    let store = SnapshotStore::in_memory();
    let stored = chaos_sweep_with_options(
        &protocols,
        &benchmarks,
        &plans,
        &cfg,
        None,
        Some(2),
        Some(&store),
    );
    assert!(plain.passed(), "baseline chaos sweep must pass");
    assert!(stored.passed(), "store-backed chaos sweep must pass");
    assert_eq!(plain.to_json(), stored.to_json(), "store must not change any chaos verdict");
    // Golden legs and the two per-plan legs all have distinct keys
    // (the fault plan shapes warm-up), so each populated its own image.
    assert_eq!(store.cached(), protocols.len() * benchmarks.len() * (1 + plans.len()));
}

#[test]
fn malformed_images_are_typed_errors_never_panics() {
    let cfg = SystemConfig::smoke();
    let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
    let key = snapshot_key(kind, b, &cfg);
    let mut sim = CmpSimulator::new(kind, b, &cfg);
    assert!(sim.warm_up().expect("warm-up"));
    let image = sim.save_snapshot(key);

    let expect_snapshot_err = |bytes: &[u8], what: &str| {
        match CmpSimulator::restore_snapshot(kind, b, &cfg, bytes) {
            Err(SimError::Snapshot(e)) => {
                assert_eq!(
                    SimError::Snapshot(e.clone()).code(),
                    "E-SNAPSHOT",
                    "stable error code for {what}"
                );
            }
            Err(other) => panic!("{what}: expected SimError::Snapshot, got {other}"),
            Ok(_) => panic!("{what}: malformed image was accepted"),
        }
    };

    // Truncations at every interesting boundary.
    expect_snapshot_err(&[], "empty image");
    expect_snapshot_err(&image[..4], "truncated magic");
    expect_snapshot_err(&image[..10], "truncated version");
    expect_snapshot_err(&image[..image.len() / 2], "truncated payload");
    expect_snapshot_err(&image[..image.len() - 1], "truncated digest");

    // Bad magic.
    let mut bad = image.clone();
    bad[0] ^= 0xff;
    expect_snapshot_err(&bad, "bad magic");

    // Foreign (newer) version.
    let mut newer = image.clone();
    newer[8] = newer[8].wrapping_add(1);
    expect_snapshot_err(&newer, "version bump");

    // Key mismatch: an image captured under a different seed.
    let other_cfg = cfg.clone().with_seed(12345);
    let mut other = CmpSimulator::new(kind, b, &other_cfg);
    assert!(other.warm_up().expect("warm-up"));
    let foreign = other.save_snapshot(snapshot_key(kind, b, &other_cfg));
    expect_snapshot_err(&foreign, "key mismatch");

    // Same image decoded under the wrong protocol (different key).
    match CmpSimulator::restore_snapshot(ProtocolKind::DiCo, b, &cfg, &image) {
        Err(SimError::Snapshot(_)) => {}
        Err(other) => panic!("wrong-protocol restore must fail typed, got {other}"),
        Ok(_) => panic!("wrong-protocol restore must fail typed, got a simulator"),
    }

    // Payload corruption: flip one byte in the middle; the trailing
    // digest catches it before decoding.
    let mut corrupt = image.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x55;
    expect_snapshot_err(&corrupt, "payload bit-flip");

    // Trailing garbage.
    let mut padded = image.clone();
    padded.extend_from_slice(b"extra");
    expect_snapshot_err(&padded, "trailing bytes");

    // The pristine image still restores (the mutations above cloned).
    CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("pristine image restores");
}

/// FNV-1a over the image bytes: a stable, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The serialized image itself is pinned, not just its round trip: a
/// reordered or re-encoded field in any protocol's `save_state` changes
/// these digests even when decode(encode(x)) stays a fixed point. Two
/// fixed runs per protocol on the 16-tile chip: matched apache, and
/// mixed-com under the alternative placement (remote-area sharing, so
/// providers, ProPos and DiCo-Arin's SBA entries are live at the
/// warm-up boundary). A change here needs a snapshot format version
/// bump and a stated reason.
#[test]
fn snapshot_images_are_pinned_byte_for_byte() {
    let cases = [
        (Benchmark::Apache, SystemConfig::small()),
        (Benchmark::MixedCom, SystemConfig::small().with_placement(Placement::Alternative)),
    ];
    let mut got = Vec::new();
    for (b, cfg) in &cases {
        for kind in ProtocolKind::all() {
            let mut sim = CmpSimulator::new(kind, *b, cfg);
            assert!(sim.warm_up().expect("warm-up"), "{kind:?}/{b:?} must reach the boundary");
            let image = sim.save_snapshot(snapshot_key(kind, *b, cfg));
            got.push(format!("{}/{} {} {:016x}", kind.name(), b.name(), image.len(), fnv1a(&image)));
        }
    }
    let want = [
        "Directory/apache4x16p 34540 38bf34b78728a321",
        "DiCo/apache4x16p 36806 36df6d5b3787001f",
        "DiCo-Providers/apache4x16p 40304 4564f5016fb3a002",
        "DiCo-Arin/apache4x16p 37761 7d90dca9853f18f4",
        "Directory/mixed-com 39862 5ece7db038a933b7",
        "DiCo/mixed-com 41854 81c2c4ee8153c54f",
        "DiCo-Providers/mixed-com 45829 db69337a69342dac",
        "DiCo-Arin/mixed-com 42900 ad38a5f60c3162ba",
    ];
    assert_eq!(got, want, "snapshot image bytes changed");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Serialize → restore → serialize is a fixed point: the restored
    /// simulator re-encodes to the exact bytes of the original image,
    /// for any (protocol, benchmark, seed).
    #[test]
    fn snapshot_reencode_round_trip(proto_i in 0usize..4, bench_i in 0usize..8, seed in 0u64..1000) {
        let kind = ProtocolKind::all()[proto_i];
        let b = Benchmark::all()[bench_i];
        let cfg = SystemConfig::smoke().with_seed(seed);
        let key = snapshot_key(kind, b, &cfg);
        let mut sim = CmpSimulator::new(kind, b, &cfg);
        prop_assert!(sim.warm_up().expect("warm-up"));
        let image = sim.save_snapshot(key);
        let restored = CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("restore");
        let reencoded = restored.save_snapshot(key);
        prop_assert_eq!(image, reencoded, "restore must reproduce the exact serialized state");
    }
}
