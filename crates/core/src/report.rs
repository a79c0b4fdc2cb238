//! Plain-text report formatting shared by `cmpsim-cli` and the
//! examples: aligned tables and normalized series, in the style of the
//! paper's figures.
//!
//! The paper's results render here as pure functions: Figures 7, 8a,
//! 8b, 9a and 9b ([`all_figures`]) and their raw data ([`sweep_csv`])
//! over a row-major (benchmark x protocol) matrix of results, and the
//! analytic Tables V, VI, VII plus the §V-D hop analysis ([`tables`]).
//!
//! The `breakdown_*` builders render the per-transaction attribution
//! of a protocol sweep ([`RunResult::breakdown`]) in the style of the
//! paper's Figure 7 (miss latency decomposed into critical-path
//! phases) and Figure 8 (dynamic energy decomposed per structure),
//! as aligned text, deterministic JSON, and CSV.

use crate::replay::Value;
use crate::result::RunResult;
use cmpsim_engine::phase::Phase;
use cmpsim_engine::EventCounts;
use cmpsim_noc::{Mesh, NocConfig};
use cmpsim_power::{leakage_per_tile, overhead_percent, table_v_rows};
use cmpsim_protocols::{MissClass, ProtocolKind};
use std::fmt::Write as _;

/// Formats a table with a header row and aligned columns.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out += &fmt_row(&head, &widths);
    out += "\n";
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1));
    out += "\n";
    for r in rows {
        out += &fmt_row(r, &widths);
        out += "\n";
    }
    out
}

/// Normalizes a series to its first element (the paper normalizes every
/// figure to the Directory bar).
pub fn normalize(series: &[f64]) -> Vec<f64> {
    let base = series.first().copied().unwrap_or(1.0);
    series.iter().map(|v| if base != 0.0 { v / base } else { 0.0 }).collect()
}

/// A unicode bar for quick visual comparison in terminal reports.
pub fn bar(value: f64, scale: f64) -> String {
    let n = ((value * scale).round() as usize).min(60);
    "#".repeat(n)
}

/// Formats a ratio as a percent delta ("-38%", "+6%").
pub fn pct_delta(value: f64, base: f64) -> String {
    let d = 100.0 * (value / base - 1.0);
    format!("{:+.1}%", d)
}

/// The seven Figure-8 structure categories of one attributed
/// event-count bucket, in nJ: `[l1_tag, l1_data, l2_tag, l2_data,
/// aux, routing, links]`.
fn bucket_categories_nj(r: &RunResult, c: &EventCounts) -> [f64; 7] {
    let model = r.energy_model();
    let cache = model.counts_cache_energy(c);
    let net = model.counts_network_energy(c);
    [cache.l1_tag, cache.l1_data, cache.l2_tag, cache.l2_data, cache.aux, net.routing, net.links]
}

/// Fig. 7-style table: average miss-latency cycles per critical-path
/// phase, one row per attribution-enabled result (results without a
/// breakdown are skipped).
pub fn breakdown_latency_table(results: &[RunResult]) -> String {
    let mut header = vec!["protocol"];
    header.extend(Phase::all().iter().map(|p| p.key()));
    header.push("total");
    header.push("misses");
    let rows: Vec<Vec<String>> = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let mut row = vec![r.protocol.name().to_string()];
            row.extend(Phase::all().iter().map(|&p| format!("{:.1}", b.phase_avg(p))));
            row.push(format!("{:.1}", r.avg_miss_latency()));
            row.push(b.completed.to_string());
            row
        })
        .collect();
    table(&header, &rows)
}

/// Fig. 8-style table: transaction-attributed dynamic energy per
/// structure (uJ), one row per attribution-enabled result. The
/// `background` column is traffic no open transaction caused (hits,
/// writebacks, evictions); `total` tiles exactly into the aggregate
/// dynamic energy of the run.
pub fn breakdown_energy_table(results: &[RunResult]) -> String {
    let header = [
        "protocol", "l1_tag", "l1_data", "l2_tag", "l2_data", "aux", "routing", "links",
        "tx total", "background", "total",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let model = r.energy_model();
            let tx = bucket_categories_nj(r, &b.tx_counts);
            let tx_total = r.counts_nj(&model, &b.tx_counts);
            let mut background = b.untracked_counts;
            background.merge(&b.open_counts);
            let bg_total = r.counts_nj(&model, &background);
            let mut row = vec![r.protocol.name().to_string()];
            row.extend(tx.iter().map(|nj| format!("{:.1}", nj / 1000.0)));
            row.push(format!("{:.1}", tx_total / 1000.0));
            row.push(format!("{:.1}", bg_total / 1000.0));
            row.push(format!("{:.1}", (tx_total + bg_total) / 1000.0));
            row
        })
        .collect();
    table(&header, &rows)
}

/// Renders one event-count bucket as a JSON object (categories + total,
/// nJ).
fn bucket_json(r: &RunResult, c: &EventCounts) -> Value {
    let cats = bucket_categories_nj(r, c);
    let mut j = Value::object();
    for (name, nj) in
        ["l1_tag_nj", "l1_data_nj", "l2_tag_nj", "l2_data_nj", "aux_nj", "routing_nj", "links_nj"]
            .iter()
            .zip(cats.iter())
    {
        j.set(name, Value::float(*nj));
    }
    j.set("total_nj", Value::float(cats.iter().sum()));
    j
}

/// Renders a breakdown sweep as a deterministic JSON document
/// (validated by `schemas/breakdown.schema.json`). Results without a
/// breakdown are skipped.
pub fn breakdown_json(results: &[RunResult]) -> String {
    let mut doc = Value::object();
    doc.set("schema", Value::string("cmpsim-breakdown-v1"));
    if let Some(r) = results.first() {
        doc.set("benchmark", Value::string(r.benchmark.name()));
    }
    // Provenance: one manifest per contributing run, in table order.
    let manifests: Vec<Value> =
        results.iter().filter_map(|r| r.manifest.as_ref().map(|m| m.to_value())).collect();
    if !manifests.is_empty() {
        doc.set("manifests", Value::Arr(manifests));
    }
    let protos = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let mut p = Value::object();
            p.set("protocol", Value::string(r.protocol.name()));
            p.set("completed", Value::uint(b.completed));
            p.set("reconciled", Value::uint(b.reconciled));
            p.set("open_txs", Value::uint(b.open_txs));
            p.set("latency_cycles", Value::uint(b.latency_cycles));
            p.set("avg_miss_latency", Value::float(r.avg_miss_latency()));
            p.set("mshr_wait_cycles", Value::uint(b.mshr_wait_cycles));
            p.set("retry_wait_cycles", Value::uint(b.retry_wait_cycles));
            let phases = Phase::all()
                .iter()
                .map(|&ph| {
                    let mut v = Value::object();
                    v.set("key", Value::string(ph.key()));
                    v.set("label", Value::string(ph.label()));
                    v.set("cycles", Value::uint(b.phase_cycles.get(ph)));
                    v.set("avg", Value::float(b.phase_avg(ph)));
                    v.set("frac", Value::float(b.phase_frac(ph)));
                    v
                })
                .collect();
            p.set("phases", Value::Arr(phases));
            let model = r.energy_model();
            let mut e = Value::object();
            e.set("tx", bucket_json(r, &b.tx_counts));
            e.set("untracked", bucket_json(r, &b.untracked_counts));
            e.set("open", bucket_json(r, &b.open_counts));
            e.set("attributed_nj", Value::float(r.counts_nj(&model, &b.total_counts())));
            e.set("aggregate_dynamic_nj", Value::float(r.total_dynamic_nj()));
            p.set("energy", e);
            p
        })
        .collect();
    doc.set("protocols", Value::Arr(protos));
    let mut out = String::new();
    doc.render_to(&mut out);
    out.push('\n');
    out
}

/// Renders a breakdown sweep as CSV: one row per protocol, phase
/// cycles then attributed energy buckets.
pub fn breakdown_csv(results: &[RunResult]) -> String {
    let mut out = String::from(
        "protocol,completed,reconciled,latency_cycles,\
         phase_req_net,phase_home,phase_owner_ind,phase_memory,\
         phase_data_net,phase_inv,phase_retry,phase_fill,\
         tx_nj,untracked_nj,open_nj,aggregate_dynamic_nj",
    );
    out.push('\n');
    for (r, b) in results.iter().filter_map(|r| r.breakdown.as_ref().map(|b| (r, b))) {
        let model = r.energy_model();
        let _ = write!(out, "{},{},{},{}", r.protocol.name(), b.completed, b.reconciled, b.latency_cycles);
        for &p in &Phase::all() {
            let _ = write!(out, ",{}", b.phase_cycles.get(p));
        }
        let _ = writeln!(
            out,
            ",{:.3},{:.3},{:.3},{:.3}",
            r.counts_nj(&model, &b.tx_counts),
            r.counts_nj(&model, &b.untracked_counts),
            r.counts_nj(&model, &b.open_counts),
            r.total_dynamic_nj(),
        );
    }
    out
}

/// Formats a GitHub-flavored Markdown table.
pub fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(out, "|{}", "---|".repeat(header.len()));
    for r in rows {
        let _ = writeln!(out, "| {} |", r.join(" | "));
    }
    out
}

/// One deterministic Markdown report over a matrix run: the run
/// ledger (per-cell manifests), the paper's throughput/energy table
/// per benchmark, miss-class mix, Fig. 7/8 breakdowns plus the tenant
/// (per-VM / cross-VM interference) breakdown when attribution ran,
/// interval-series summaries when sampling ran, and fault-recovery
/// counts when the matrix ran under fault injection.
///
/// Only deterministic fields of the results are rendered — no host
/// profile, no wall clock — so the report is byte-identical across
/// reruns of the same cells. Results arrive in `run_matrix`'s
/// row-major (benchmark x protocol) order.
pub fn markdown_report(results: &[RunResult]) -> String {
    let mut out = String::from("# cmpsim matrix report\n\n");
    if results.is_empty() {
        out.push_str("No results.\n");
        return out;
    }
    let first = &results[0];
    if let Some(m) = &first.manifest {
        let _ = writeln!(out, "- tool: {} {}", m.tool, m.tool_version);
        let _ = writeln!(out, "- config digest: `{}`", m.config_digest);
        let _ = writeln!(
            out,
            "- seed: {}, refs/core: {}, placement: {}",
            m.seed, m.refs_per_core, m.placement
        );
        let _ = writeln!(out, "- fault plan: {}", m.fault_spec.as_deref().unwrap_or("none"));
        out.push('\n');
    }

    out.push_str("## Run ledger\n\n");
    let ledger_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.benchmark.name().to_string(),
                r.protocol.name().to_string(),
                r.manifest
                    .as_ref()
                    .map(|m| format!("`{}`", m.run_id))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    out.push_str(&md_table(&["benchmark", "protocol", "run_id"], &ledger_rows));
    out.push('\n');

    for rs in benchmark_rows(results) {
        let base = &rs[0];
        let _ = writeln!(out, "## {}{}\n", base.benchmark.name(), base.placement.suffix());

        out.push_str("### Throughput & energy (Tables V-VII style)\n\n");
        let rows: Vec<Vec<String>> = rs
            .iter()
            .map(|r| {
                vec![
                    r.protocol.name().to_string(),
                    format!("{:.4}", r.throughput()),
                    pct_delta(r.performance(), base.performance()),
                    format!("{:.1}", r.total_dynamic_uj()),
                    pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                    format!("{:.2}", r.avg_links_per_message()),
                    format!("{:.1}", r.avg_miss_latency()),
                ]
            })
            .collect();
        out.push_str(&md_table(
            &[
                "protocol",
                "throughput (refs/cycle)",
                "perf vs dir",
                "dyn energy (uJ)",
                "energy vs dir",
                "links/msg",
                "avg miss lat",
            ],
            &rows,
        ));
        out.push('\n');

        out.push_str("### L1 miss mix\n\n");
        let mut header = vec!["protocol"];
        header.extend(MissClass::all().iter().map(|c| c.label()));
        let rows: Vec<Vec<String>> = rs
            .iter()
            .map(|r| {
                let mut row = vec![r.protocol.name().to_string()];
                row.extend(
                    MissClass::all()
                        .iter()
                        .map(|&c| format!("{:.1}%", 100.0 * r.miss_class_frac(c))),
                );
                row
            })
            .collect();
        out.push_str(&md_table(&header, &rows));
        out.push('\n');

        let attributed: Vec<RunResult> =
            rs.iter().filter(|r| r.breakdown.is_some()).cloned().collect();
        if !attributed.is_empty() {
            out.push_str("### Miss latency by phase (Fig. 7 style, avg cycles)\n\n```text\n");
            out.push_str(&breakdown_latency_table(&attributed));
            out.push_str("```\n\n");
            out.push_str("### Attributed dynamic energy (Fig. 8 style, uJ)\n\n```text\n");
            out.push_str(&breakdown_energy_table(&attributed));
            out.push_str("```\n\n");
            out.push_str(&crate::vmstat::tenant_section(rs));
        }

        if rs.iter().any(|r| r.timeseries.is_some()) {
            out.push_str("### Interval series\n\n");
            let rows: Vec<Vec<String>> = rs
                .iter()
                .filter_map(|r| r.timeseries.as_ref().map(|ts| (r, ts)))
                .map(|(r, ts)| {
                    let max_util = ts
                        .samples
                        .iter()
                        .map(|s| s.link_util_max)
                        .fold(0.0f64, f64::max);
                    vec![
                        r.protocol.name().to_string(),
                        ts.samples.len().to_string(),
                        ts.interval.to_string(),
                        format!("{:.3}", max_util),
                    ]
                })
                .collect();
            out.push_str(&md_table(
                &["protocol", "samples", "interval (cycles)", "peak link util"],
                &rows,
            ));
            out.push('\n');
        }

        if rs.iter().any(|r| r.faults.is_some()) {
            out.push_str("### Fault injection\n\n");
            let rows: Vec<Vec<String>> = rs
                .iter()
                .filter_map(|r| r.faults.as_ref().map(|f| (r, f)))
                .map(|(r, f)| {
                    vec![
                        r.protocol.name().to_string(),
                        f.plan.spec(),
                        f.fired.total().to_string(),
                        r.proto_stats.retries.get().to_string(),
                        r.proto_stats.timeouts.get().to_string(),
                        r.effective_cycles
                            .map(|ec| r.cycles.saturating_sub(ec).to_string())
                            .unwrap_or_else(|| "-".to_string()),
                    ]
                })
                .collect();
            out.push_str(&md_table(
                &["protocol", "plan", "faults fired", "retries", "timeouts", "overhead cycles"],
                &rows,
            ));
            out.push('\n');
        }
    }
    out
}

/// Markdown section summarizing a chaos sweep, appended to a matrix
/// report by `cmpsim-cli chaos --report-out`.
pub fn markdown_chaos_section(report: &crate::chaos::ChaosReport) -> String {
    let mut out = String::from("## Chaos sweep\n\n");
    let _ = writeln!(
        out,
        "- cells: {}, recovered: {}, faulted: {}, violations: {}",
        report.cells.len(),
        report.recovered(),
        report.faulted(),
        report.violations().len()
    );
    let _ = writeln!(out, "- verdict: {}\n", if report.passed() { "PASS" } else { "FAIL" });
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.plan.spec(),
                c.protocol.name().to_string(),
                c.benchmark.name().to_string(),
                c.outcome.status().to_string(),
                format!("`{}`", c.manifest.run_id),
            ]
        })
        .collect();
    out.push_str(&md_table(&["plan", "protocol", "benchmark", "status", "run_id"], &rows));
    out
}

/// Splits row-major (benchmark x protocol) results into one row per
/// benchmark, in order. The first result of each row is the baseline
/// the paper normalizes to (the directory in a full matrix).
fn benchmark_rows(results: &[RunResult]) -> Vec<&[RunResult]> {
    results.chunk_by(|a, b| a.benchmark == b.benchmark).collect()
}

/// One figure table: a row per benchmark, a column per protocol, each
/// cell rendered by `cell(result, row baseline)`.
fn figure_table(results: &[RunResult], cell: impl Fn(&RunResult, &RunResult) -> String) -> String {
    let rows = benchmark_rows(results);
    let mut header = vec!["benchmark"];
    header.extend(rows.first().into_iter().flat_map(|row| row.iter()).map(|r| r.protocol.name()));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row[0].benchmark.name().to_string()];
            cells.extend(row.iter().map(|r| cell(r, &row[0])));
            cells
        })
        .collect();
    table(&header, &body)
}

/// Figure 7 — total dynamic power (cache + network), normalized to the
/// directory's **cache** consumption per the paper's caption.
fn figure7(results: &[RunResult]) -> String {
    let mut out = String::from(
        "== Figure 7: total dynamic power, normalized to the directory's cache power ==\n\
         (each cell: total | cache + link + routing shares)\n\n",
    );
    out += &figure_table(results, |r, dir| {
        let base = dir.cache_energy.total();
        format!(
            "{:.2} ({:.2}c+{:.2}l+{:.2}r)",
            r.total_dynamic_nj() / base,
            r.cache_energy.total() / base,
            r.net_energy.links / base,
            r.net_energy.routing / base,
        )
    });
    out += "\nPaper: every proposal below the directory; up to -38% in apache;\n\
            DiCo-Arin's broadcasts make JBB its worst case (-4%).\n";
    out
}

/// Figure 8a — cache dynamic power breakdown, normalized to the
/// directory.
fn figure8a(results: &[RunResult]) -> String {
    let mut out = String::from(
        "== Figure 8a: cache dynamic power, normalized to directory ==\n\
         (each cell: total | l1tag/l1data/l2tag/l2data/aux shares)\n\n",
    );
    out += &figure_table(results, |r, dir| {
        let base = dir.cache_energy.total();
        let e = &r.cache_energy;
        format!(
            "{:.2} ({:.2}/{:.2}/{:.2}/{:.2}/{:.2})",
            e.total() / base,
            e.l1_tag / base,
            e.l1_data / base,
            e.l2_tag / base,
            e.l2_data / base,
            e.aux / base,
        )
    });
    out += "\nPaper: DiCo-family tag accesses cost more at L1 (embedded directory\n\
            info) but less at L2 (smaller entries); L2 reads are rarer.\n";
    out
}

/// Figure 8b — network dynamic power breakdown, normalized to the
/// directory.
fn figure8b(results: &[RunResult]) -> String {
    let mut out = String::from(
        "== Figure 8b: network dynamic power, normalized to directory ==\n\
         (each cell: total | links + routing shares)\n\n",
    );
    out += &figure_table(results, |r, dir| {
        let base = dir.net_energy.total();
        let e = &r.net_energy;
        format!("{:.2} ({:.2}l+{:.2}r)", e.total() / base, e.links / base, e.routing / base)
    });
    out += "\nPaper: DiCo reduces network power vs the directory; providers reduce\n\
            it further; DiCo-Arin's broadcasts close the gap in JBB.\n";
    out
}

/// Figure 9a — performance normalized to the directory.
fn figure9a(results: &[RunResult]) -> String {
    let mut out = String::from(
        "== Figure 9a: performance, normalized to directory (bigger is better) ==\n\n",
    );
    out += &figure_table(results, |r, dir| format!("{:.3}", r.performance() / dir.performance()));
    out += "\nPaper: +3% (DiCo-Providers) and +6% (DiCo-Arin) in apache; -2%\n\
            (DiCo-Arin) in JBB; no significant degradation elsewhere.\n";
    out
}

/// Figure 9b — L1 misses by resolution class, one table per benchmark.
fn figure9b(results: &[RunResult]) -> String {
    let mut out = String::from("== Figure 9b: L1 misses by resolution class (fractions) ==\n\n");
    let mut header = vec!["protocol"];
    header.extend(MissClass::all().iter().map(|c| c.label()));
    for row in benchmark_rows(results) {
        let _ = writeln!(out, "{}", row[0].benchmark.name());
        let rows: Vec<Vec<String>> = row
            .iter()
            .map(|r| {
                let mut cells = vec![r.protocol.name().to_string()];
                cells.extend(
                    MissClass::all().iter().map(|&c| format!("{:.3}", r.miss_class_frac(c))),
                );
                cells
            })
            .collect();
        out += &table(&header, &rows);
        out += "\n";
    }
    out += "Paper: a significant share of requests resolve at in-area providers\n\
            (21% for apache under DiCo-Providers); predictions mostly succeed.\n";
    out
}

/// §V-D hop statistics: average links traversed per message.
fn hop_summary(results: &[RunResult]) -> String {
    let mut out = String::from("== Links traversed per message (paper §V-D) ==\n\n");
    out += &figure_table(results, |r, _| format!("{:.2}", r.avg_links_per_message()));
    out
}

/// §V-D miss-latency statistics (avg | p95 cycles).
fn latency_summary(results: &[RunResult]) -> String {
    let mut out = String::from("== Average (p95) L1-miss latency in cycles (paper §V-D) ==\n\n");
    out += &figure_table(results, |r, _| {
        format!("{:.0} ({})", r.avg_miss_latency(), r.miss_latency_percentile(95.0))
    });
    out
}

/// Every figure of a (benchmark x protocol) matrix — Figures 7, 8a,
/// 8b, 9a, 9b and the §V-D hop and latency summaries — separated by
/// blank lines.
pub fn all_figures(results: &[RunResult]) -> String {
    [figure7, figure8a, figure8b, figure9a, figure9b, hop_summary, latency_summary]
        .iter()
        .map(|f| f(results) + "\n")
        .collect()
}

/// Machine-readable export: one CSV row per (benchmark, protocol) with
/// every metric the figures use, for any plotting tool.
pub fn sweep_csv(results: &[RunResult]) -> String {
    let mut out = String::from(
        "benchmark,protocol,cycles,measured_refs,throughput,performance,\
         l1_miss_rate,l2_miss_rate,cache_nj,net_links_nj,net_routing_nj,\
         links_per_msg,broadcasts,pred_owner,pred_provider,pred_failed,\
         unpred_home,unpred_forwarded,memory\n",
    );
    for r in results {
        use MissClass as M;
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.6e},{:.4},{:.4},{:.1},{:.1},{:.1},{:.3},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.benchmark.name(),
            r.protocol.name(),
            r.cycles,
            r.measured_refs,
            r.throughput(),
            r.performance(),
            r.l1_miss_rate(),
            r.l2_miss_rate(),
            r.cache_energy.total(),
            r.net_energy.links,
            r.net_energy.routing,
            r.avg_links_per_message(),
            r.proto_stats.broadcast_invs.get(),
            r.miss_class_frac(M::PredictedOwnerHit),
            r.miss_class_frac(M::PredictedProviderHit),
            r.miss_class_frac(M::PredictionFailed),
            r.miss_class_frac(M::UnpredictedHome),
            r.miss_class_frac(M::UnpredictedForwarded),
            r.miss_class_frac(M::Memory),
        );
    }
    out
}

/// Table V — per-tile coherence storage of each protocol on the 8x8
/// chip with 4 areas, against the paper's overhead percentages.
fn table5() -> String {
    let mut out = String::from("== Table V: per-tile coherence storage (64 cores, 4 areas) ==\n\n");
    let paper = [
        (ProtocolKind::Directory, 12.56),
        (ProtocolKind::DiCo, 13.21),
        (ProtocolKind::DiCoProviders, 5.14),
        (ProtocolKind::DiCoArin, 4.49),
    ];
    for (kind, paper_pct) in paper {
        let rows: Vec<Vec<String>> = table_v_rows(kind, 64, 4)
            .iter()
            .map(|r| {
                vec![
                    r.structure.to_string(),
                    format!("{} bits", r.entry_bits),
                    r.entries.to_string(),
                    format!("{:.2} KB", r.kib),
                ]
            })
            .collect();
        let _ = writeln!(out, "{}", kind.name());
        let _ = writeln!(out, "{}", table(&["structure", "entry", "entries", "size"], &rows));
        let got = overhead_percent(kind, 64, 4);
        let _ = writeln!(out, "overhead: {got:.2}%   (paper: {paper_pct}%)\n");
    }
    out
}

/// Table VI — leakage power of the caches per tile, against the paper.
fn table6() -> String {
    let mut out = String::from(
        "== Table VI: leakage power per tile (64 cores, 4 areas, 32 nm-calibrated) ==\n\n",
    );
    let paper = [
        (ProtocolKind::Directory, 239.0, 37.0),
        (ProtocolKind::DiCo, 241.0, 39.0),
        (ProtocolKind::DiCoProviders, 222.0, 20.0),
        (ProtocolKind::DiCoArin, 219.0, 17.0),
    ];
    let dir = leakage_per_tile(ProtocolKind::Directory, 64, 4);
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(kind, p_total, p_tag)| {
            let l = leakage_per_tile(kind, 64, 4);
            vec![
                kind.name().to_string(),
                format!("{:.0} mW", l.total_mw),
                format!("{p_total:.0} mW"),
                format!("{:+.0}%", l.total_diff_percent(&dir)),
                format!("{:.0} mW", l.tag_mw),
                format!("{p_tag:.0} mW"),
                format!("{:+.0}%", l.tag_diff_percent(&dir)),
            ]
        })
        .collect();
    let header = ["protocol", "total", "paper", "vs dir", "tags", "paper", "vs dir"];
    let _ = writeln!(out, "{}", table(&header, &rows));
    out
}

/// Table VII — storage overhead of the protocols against the number of
/// cores and areas of the chip.
fn table7() -> String {
    let mut out = String::from("== Table VII: storage overhead vs cores x areas ==\n\n");
    for cores in [64u64, 128, 256, 512, 1024] {
        let areas: Vec<u64> =
            (1..=10).map(|i| 1u64 << i).filter(|&a| a <= cores && a >= 2).collect();
        let mut header: Vec<String> = vec![format!("{cores} cores")];
        header.extend(areas.iter().map(|a| format!("{a} areas")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = ProtocolKind::all()
            .iter()
            .map(|&kind| {
                let mut row = vec![kind.name().to_string()];
                row.extend(
                    areas.iter().map(|&a| format!("{:.1}%", overhead_percent(kind, cores, a))),
                );
                row
            })
            .collect();
        let _ = writeln!(out, "{}", table(&header_refs, &rows));
    }
    out += "(Directory/DiCo are area-independent; DiCo-Providers grows with the\n\
            area count; DiCo-Arin is minimized at intermediate area counts —\n\
            compare with the paper's Table VII.)\n";
    out
}

/// Average links of a two-hop round trip between distinct tiles of the
/// mesh, chip-wide or within the top-left square area of `within_area`
/// tiles.
fn avg_round_trip(cfg: NocConfig, within_area: Option<usize>) -> f64 {
    let mesh = Mesh::new(cfg);
    let tiles = cfg.tiles();
    let area_cols = (within_area.unwrap_or(tiles) as f64).sqrt() as usize;
    let in_area = |t: usize| {
        within_area.is_none() || ((t % cfg.cols) < area_cols && (t / cfg.cols) < area_cols)
    };
    let (mut sum, mut n) = (0u64, 0u64);
    for a in (0..tiles).filter(|&a| in_area(a)) {
        for b in (0..tiles).filter(|&b| b != a && in_area(b)) {
            sum += 2 * mesh.distance(a, b);
            n += 1;
        }
    }
    sum as f64 / n as f64
}

/// §V-D link-count analysis: the paper's analytic hop counts for
/// two-hop misses (10.6 links chip-wide vs 5.4 inside a 16-tile area
/// on the 8x8 mesh, and the 256-tile / 4-tile-area projection),
/// computed on the mesh model.
fn hop_analysis() -> String {
    let mut out = String::from("== Paper §V-D: links traversed by a two-hop miss ==\n\n");
    let m8 = NocConfig { cols: 8, rows: 8, ..NocConfig::default() };
    let m16 = NocConfig { cols: 16, rows: 16, ..NocConfig::default() };
    let rows: Vec<Vec<String>> = [
        ("8x8 chip-wide (paper: 10.6)", avg_round_trip(m8, None)),
        ("8x8 within a 16-tile area (paper: 5.4)", avg_round_trip(m8, Some(16))),
        ("16x16 chip-wide (paper: 21.3)", avg_round_trip(m16, None)),
        ("16x16 within a 4-tile area (paper: 2.6)", avg_round_trip(m16, Some(4))),
        ("16x16 3-hop indirection (paper: 32)", 1.5 * avg_round_trip(m16, None)),
    ]
    .iter()
    .map(|(path, links)| vec![path.to_string(), format!("{links:.1}")])
    .collect();
    let _ = writeln!(out, "{}", table(&["path", "avg links"], &rows));
    let _ = writeln!(
        out,
        "Shortened (in-area) misses traverse ~{}% fewer links than chip-wide\n\
         two-hop misses on the 8x8 mesh — the paper reports 38-40% fewer\n\
         links than DiCo for provider-resolved misses.",
        (100.0 * (1.0 - avg_round_trip(m8, Some(16)) / avg_round_trip(m8, None))) as i64
    );
    out
}

/// The analytic results: Tables V, VI, VII and the §V-D hop analysis.
pub fn tables() -> String {
    table5() + &table6() + &table7() + &hop_analysis()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn normalize_to_first() {
        assert_eq!(normalize(&[2.0, 1.0, 4.0]), vec![1.0, 0.5, 2.0]);
        assert!(normalize(&[]).is_empty());
    }

    #[test]
    fn pct_delta_signs() {
        assert_eq!(pct_delta(0.62, 1.0), "-38.0%");
        assert_eq!(pct_delta(1.06, 1.0), "+6.0%");
    }

    #[test]
    fn figures_render_one_row_per_benchmark() {
        use crate::{run_matrix, Benchmark, SystemConfig};
        let benchmarks = [Benchmark::Apache, Benchmark::Radix];
        let results =
            run_matrix(&ProtocolKind::all(), &benchmarks, &SystemConfig::smoke()).expect("run");
        let figures = all_figures(&results);
        for title in ["Figure 7", "Figure 8a", "Figure 8b", "Figure 9a", "Figure 9b", "§V-D"] {
            assert!(figures.contains(title), "{title} missing");
        }
        // Figure 9a normalizes every row to its directory cell.
        let fig9a = figure9a(&results);
        let rows: Vec<&str> = fig9a.lines().skip(4).take(benchmarks.len()).collect();
        for (row, b) in rows.iter().zip(benchmarks) {
            assert!(row.trim_start().starts_with(b.name()), "{row}");
            assert_eq!(row.split_whitespace().nth(1), Some("1.000"), "{row}");
        }
        let csv = sweep_csv(&results);
        assert_eq!(csv.lines().count(), 1 + results.len());
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 19));
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(100.0, 1.0).len(), 60);
        assert_eq!(bar(0.2, 10.0).len(), 2);
    }
}
