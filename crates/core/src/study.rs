//! The studies beyond the paper's figures, each a set of runs derived
//! from one base configuration and rendered as a plain-text table
//! (`cmpsim-cli study <name>`):
//!
//! * `alt` — the "-alt" placement of Figure 6 (§V-C/§V-D): VMs shifted
//!   so every VM straddles two areas;
//! * `areas` — the §V-B trade-off: 2, 4, 8 and 16 areas (one VM each);
//! * `density` — the §VI projection: 4 VMs x 16 cores vs 16 VMs x 4;
//! * `ablation` — the L1C$ supplier prediction (§IV-A2) and the
//!   Figure-5 hints toggled;
//! * `single-app` — the §III non-virtualized scenario, one application
//!   on all 64 cores.

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::report::{pct_delta, table};
use crate::result::RunResult;
use crate::sim::{run_benchmark, run_matrix};
use cmpsim_power::overhead_percent;
use cmpsim_protocols::common::ChipSpec;
use cmpsim_protocols::{MissClass, ProtocolKind};
use cmpsim_virt::Placement;
use cmpsim_workloads::Benchmark;
use std::fmt::Write as _;

/// One study; [`Study::run`] simulates it and renders its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Alternative VM placement against matched, apache and radix.
    Alt,
    /// Area-count sweep of DiCo-Providers and DiCo-Arin on apache.
    Areas,
    /// Consolidation density: 4 and 16 VMs on apache.
    Density,
    /// DiCo-Providers on apache with prediction and hints toggled.
    Ablation,
    /// One application (one VM) on all 64 cores, apache.
    SingleApp,
}

impl Study {
    /// Every study, in the order the docs list them.
    pub fn all() -> [Study; 5] {
        [Study::Alt, Study::Areas, Study::Density, Study::Ablation, Study::SingleApp]
    }

    /// The study's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Study::Alt => "alt",
            Study::Areas => "areas",
            Study::Density => "density",
            Study::Ablation => "ablation",
            Study::SingleApp => "single-app",
        }
    }

    /// Runs the study from `base` (chip, reference budget, seed) and
    /// renders its report.
    pub fn run(self, base: &SystemConfig) -> Result<String, SimError> {
        let matrix = |benchmarks: &[Benchmark], cfg: &SystemConfig| {
            run_matrix(&ProtocolKind::all(), benchmarks, cfg)
        };
        match self {
            Study::Alt => {
                let benchmarks = [Benchmark::Apache, Benchmark::Radix];
                let matched = matrix(&benchmarks, base)?;
                let alt =
                    matrix(&benchmarks, &base.clone().with_placement(Placement::Alternative))?;
                Ok(alt_report(&matched, &alt))
            }
            Study::Areas => {
                let mut results = Vec::new();
                for kind in [ProtocolKind::DiCoProviders, ProtocolKind::DiCoArin] {
                    for areas in [2, 4, 8, 16] {
                        results.push(run_benchmark(
                            kind,
                            Benchmark::Apache,
                            &with_areas(base, areas),
                        )?);
                    }
                }
                Ok(areas_report(base.refs_per_core, &results))
            }
            Study::Density => {
                let mut results = matrix(&[Benchmark::Apache], &with_areas(base, 4))?;
                results.extend(matrix(&[Benchmark::Apache], &with_areas(base, 16))?);
                Ok(density_report(base.refs_per_core, &results))
            }
            Study::Ablation => {
                let mut results = Vec::new();
                for (prediction, hints, _) in ABLATIONS {
                    let mut cfg = base.clone();
                    cfg.chip.enable_prediction = prediction;
                    cfg.chip.enable_hints = hints;
                    results.push(run_benchmark(
                        ProtocolKind::DiCoProviders,
                        Benchmark::Apache,
                        &cfg,
                    )?);
                }
                Ok(ablation_report(base.refs_per_core, &results))
            }
            Study::SingleApp => {
                // One application on all 64 cores; the areas stay hard-wired.
                let cfg = SystemConfig { num_vms: 1, ..base.clone() };
                Ok(single_app_report(&matrix(&[Benchmark::Apache], &cfg)?))
            }
        }
    }
}

impl std::str::FromStr for Study {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Study::all().into_iter().find(|st| st.name().eq_ignore_ascii_case(s)).ok_or_else(|| {
            let names: Vec<&str> = Study::all().iter().map(|st| st.name()).collect();
            format!("unknown study {s:?} (want {})", names.join(" | "))
        })
    }
}

/// `base` on a chip of `areas` areas with one VM per area.
fn with_areas(base: &SystemConfig, areas: usize) -> SystemConfig {
    SystemConfig { chip: ChipSpec::paper_with_areas(areas), num_vms: areas, ..base.clone() }
}

/// The ablation's (prediction, hints, label) configurations.
const ABLATIONS: [(bool, bool, &str); 3] = [
    (true, true, "prediction + hints (paper)"),
    (true, false, "prediction, no hints"),
    (false, false, "no prediction (always via home)"),
];

/// A table followed by its closing note, as each study prints them.
fn with_note(title: String, header: &[&str], rows: &[Vec<String>], note: &str) -> String {
    let mut out = title;
    let _ = writeln!(out, "{}", table(header, rows));
    let _ = writeln!(out, "{note}");
    out
}

/// Alt study: per (benchmark, protocol), alt over matched performance
/// and energy, and the broadcast counts of both placements.
fn alt_report(matched: &[RunResult], alt: &[RunResult]) -> String {
    let rows: Vec<Vec<String>> = matched
        .iter()
        .zip(alt)
        .map(|(m, a)| {
            vec![
                m.benchmark.name().to_string(),
                m.protocol.name().to_string(),
                format!("{:.3}", a.performance() / m.performance()),
                format!("{:.3}", a.total_dynamic_nj() / m.total_dynamic_nj()),
                format!(
                    "{} -> {}",
                    m.proto_stats.broadcast_invs.get(),
                    a.proto_stats.broadcast_invs.get()
                ),
            ]
        })
        .collect();
    with_note(
        "== Alternative VM placement (paper Figure 6, '-alt' results) ==\n\n".into(),
        &["benchmark", "protocol", "perf alt/matched", "energy alt/matched", "broadcasts"],
        &rows,
        "Paper: no significant performance change in any protocol; DiCo-Arin\n\
         broadcasts grow (read/write data now shared between areas); the\n\
         proposals keep consuming less power than the directory.",
    )
}

/// Areas study: throughput, energy, links/msg and storage overhead per
/// (protocol, area count).
fn areas_report(refs: u64, results: &[RunResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.protocol.name().to_string(),
                r.areas.to_string(),
                format!("{:.4}", r.throughput()),
                format!("{:.1} uJ", r.total_dynamic_uj()),
                format!("{:.2}", r.avg_links_per_message()),
                format!("{:.1}%", overhead_percent(r.protocol, 64, r.areas)),
            ]
        })
        .collect();
    with_note(
        format!("== Area-count ablation (apache, {refs} refs/core, 1 VM per area) ==\n\n"),
        &["protocol", "areas", "throughput", "dyn energy", "links/msg", "storage ovh"],
        &rows,
        "Expected trade-off: smaller areas shorten in-area trips (links/msg)\n\
         but shrink each area's chance of holding a provider; DiCo-Providers'\n\
         storage grows with the area count while DiCo-Arin's dips at 4 areas.",
    )
}

/// Density study: each protocol against the directory at 4 and 16 VMs.
fn density_report(refs: u64, results: &[RunResult]) -> String {
    let mut rows = Vec::new();
    for (density, label) in
        results.chunks(ProtocolKind::all().len()).zip(["4 VMs x 16 cores", "16 VMs x 4 cores"])
    {
        let base = &density[0];
        for r in density {
            rows.push(vec![
                label.to_string(),
                r.protocol.name().to_string(),
                pct_delta(r.performance(), base.performance()),
                pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                format!("{:.2}", r.avg_links_per_message()),
            ]);
        }
    }
    with_note(
        format!("== Virtualization-density study (apache, {refs} refs/core) ==\n\n"),
        &["density", "protocol", "perf vs dir", "energy vs dir", "links/msg"],
        &rows,
        "Paper projection (§VI): the advantages grow with density. Note that\n\
         in this synthetic setting the denser configuration also shrinks each\n\
         VM's cache share and dedup pool, which offsets part of the gain —\n\
         see EXPERIMENTS.md.",
    )
}

/// Ablation study: one row per [`ABLATIONS`] configuration.
fn ablation_report(refs: u64, results: &[RunResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .zip(ABLATIONS)
        .map(|(r, (_, _, label))| {
            let predicted = r.miss_class_frac(MissClass::PredictedOwnerHit)
                + r.miss_class_frac(MissClass::PredictedProviderHit);
            vec![
                label.to_string(),
                format!("{:.4}", r.throughput()),
                format!("{:.1} uJ", r.total_dynamic_uj()),
                format!("{:.2}", r.avg_links_per_message()),
                format!("{:.1}%", 100.0 * predicted),
                format!("{:.1}%", 100.0 * r.miss_class_frac(MissClass::PredictionFailed)),
            ]
        })
        .collect();
    with_note(
        format!("== Prediction/hint ablation (DiCo-Providers, apache, {refs} refs/core) ==\n\n"),
        &["configuration", "throughput", "dyn energy", "links/msg", "pred hits", "mispredicts"],
        &rows,
        "The L1C$ prediction is what buys the 2-hop misses (paper §II-B);\n\
         hints keep predictions fresh across ownership movement (Figure 5).\n\
         Disabling prediction reverts every miss to home indirection.",
    )
}

/// Single-application study: each protocol against the directory.
fn single_app_report(results: &[RunResult]) -> String {
    let base = &results[0];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.protocol.name().to_string(),
                pct_delta(r.performance(), base.performance()),
                pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                format!("{:.2}", r.avg_links_per_message()),
                r.proto_stats.broadcast_invs.get().to_string(),
            ]
        })
        .collect();
    with_note(
        "== Single application on all 64 cores (4 hard-wired areas) ==\n\n".into(),
        &["protocol", "perf vs dir", "energy vs dir", "links/msg", "bcasts"],
        &rows,
        "Expected: the proposals still beat the directory (owners stay near\n\
         their threads; providers shorten cross-area trips) — DiCo-Arin pays\n\
         broadcasts for the now chip-wide read/write shared data.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_unknown_names_are_named() {
        for st in Study::all() {
            assert_eq!(st.name().parse::<Study>(), Ok(st));
            assert_eq!(st.name().to_ascii_uppercase().parse::<Study>(), Ok(st));
        }
        let e = "nosuch".parse::<Study>().unwrap_err();
        assert!(e.contains("\"nosuch\"") && e.contains("single-app"), "{e}");
    }
}
