//! Simulated results of one cell, the pinned values they are checked
//! against, and the exact work counts that must repeat across passes.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use cmpsim::{Benchmark, CmpSimulator, ProtocolKind, RunResult, SystemConfig};

use crate::alloc;
use crate::spans::Spans;

/// The pinned simulated results of one cell. `digest` is `None` when
/// the source (a sweep artifact) does not carry the architectural state.
#[derive(Debug, Clone, Copy)]
pub struct Values {
    pub cycles: u64,
    pub refs: u64,
    pub messages: u64,
    pub flits: u64,
    pub energy_nj: f64,
    pub digest: Option<u64>,
}

impl Values {
    pub fn of(r: &RunResult) -> Self {
        Self {
            cycles: r.cycles,
            refs: r.measured_refs,
            messages: r.noc_stats.messages.get(),
            flits: r.noc_stats.flit_link_traversals.get(),
            energy_nj: r.total_dynamic_nj(),
            digest: r.arch.map(|a| a.version_digest),
        }
    }

    /// Fields that differ from `want` (energy compared bit for bit; the
    /// digest only when both sides carry one).
    pub fn mismatches(&self, want: &Values) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, got: String, want: String| {
            if got != want {
                out.push(format!("{name} {got} != {want}"));
            }
        };
        field("cycles", self.cycles.to_string(), want.cycles.to_string());
        field(
            "measured_refs",
            self.refs.to_string(),
            want.refs.to_string(),
        );
        field(
            "noc.messages",
            self.messages.to_string(),
            want.messages.to_string(),
        );
        field(
            "noc.flit_link_traversals",
            self.flits.to_string(),
            want.flits.to_string(),
        );
        field(
            "energy_nj",
            format!("{:?}", self.energy_nj),
            format!("{:?}", want.energy_nj),
        );
        if let (Some(a), Some(b)) = (self.digest, want.digest) {
            field("version_digest", format!("{a:016x}"), format!("{b:016x}"));
        }
        out
    }

    fn to_tsv(self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:?}\t{:016x}",
            self.cycles,
            self.refs,
            self.messages,
            self.flits,
            self.energy_nj,
            self.digest.unwrap_or(0)
        )
    }

    fn from_tsv(fields: &[&str]) -> Option<Self> {
        let [cycles, refs, messages, flits, energy, digest] = fields else {
            return None;
        };
        Some(Self {
            cycles: cycles.parse().ok()?,
            refs: refs.parse().ok()?,
            messages: messages.parse().ok()?,
            flits: flits.parse().ok()?,
            energy_nj: energy.parse().ok()?,
            digest: Some(u64::from_str_radix(digest, 16).ok()?),
        })
    }
}

/// Pinned values of every cell at the default seed, keyed by
/// `(workload, cell)`. Captured with `--capture-pins`.
pub struct Pins(BTreeMap<(String, String), Values>);

pub const PINS_TSV: &str = include_str!("../pins.tsv");

impl Pins {
    pub fn load() -> Self {
        let mut map = BTreeMap::new();
        for line in PINS_TSV
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            let v = (f.len() == 8).then(|| Values::from_tsv(&f[2..])).flatten();
            let v = v.unwrap_or_else(|| panic!("malformed pins.tsv line: {line}"));
            map.insert((f[0].to_string(), f[1].to_string()), v);
        }
        Self(map)
    }

    pub fn get(&self, workload: &str, cell: &str) -> Option<&Values> {
        self.0.get(&(workload.to_string(), cell.to_string()))
    }

    pub fn line(workload: &str, cell: &str, v: Values) -> String {
        format!("{workload}\t{cell}\t{}", v.to_tsv())
    }
}

/// Name of a cell: `<protocol>/<benchmark>`.
pub fn cell_name(p: ProtocolKind, b: Benchmark) -> String {
    format!("{}/{}", p.name(), b.name())
}

/// What one cold cell run produced, with its host timings.
pub struct ColdRun {
    pub result: RunResult,
    /// Allocations made by `new`, `warm_up` and `resume` on this thread.
    pub allocs: u64,
    pub new_s: f64,
    pub warmup_s: f64,
    pub resume_s: f64,
}

/// One cold run: `CmpSimulator::new`, `warm_up`, `resume`, each in its
/// own span. An error or a panic comes back as its message.
pub fn run_cold(
    kind: ProtocolKind,
    bench: Benchmark,
    cfg: &SystemConfig,
    cell: usize,
    sp: &mut Spans,
) -> Result<ColdRun, String> {
    let a0 = alloc::count();
    let t = sp.open("sim.new", Some(cell));
    let built = catch(|| Ok(CmpSimulator::new(kind, bench, cfg)));
    let new_s = sp.close(t);
    let mut sim = built?;
    let t = sp.open("sim.warm_up", Some(cell));
    let warmed = catch(|| sim.warm_up().map_err(|e| e.to_string()));
    let warmup_s = sp.close(t);
    warmed?;
    let t = sp.open("sim.resume", Some(cell));
    let result = catch(move || sim.resume().map_err(|e| e.to_string()));
    let resume_s = sp.close(t);
    let result = result?;
    Ok(ColdRun {
        result,
        allocs: alloc::count() - a0,
        new_s,
        warmup_s,
        resume_s,
    })
}

/// Runs `f`, turning a panic into an error message.
pub fn catch<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

/// Exact work and per-layer counts summed over a set of cells.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub refs_done: u64,
    pub measured_refs: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub retries: u64,
    pub broadcast_invs: u64,
    pub messages: u64,
    pub broadcasts: u64,
    pub flits: u64,
    pub contention: u64,
    pub physical_pages: u64,
    pub cow_faults: u64,
}

impl Counts {
    pub fn add(&mut self, r: &RunResult) {
        let (p, n) = (&r.proto_stats, &r.noc_stats);
        self.events += r.host.events;
        self.refs_done += r.arch.map_or(0, |a| a.refs_done);
        self.measured_refs += r.measured_refs;
        self.l1_misses += p.l1_misses.get();
        // Off-chip reads are the L2 misses (`RunResult::l2_miss_rate`).
        self.l2_misses += p.mem_reads.get();
        self.retries += p.retries.get();
        self.broadcast_invs += p.broadcast_invs.get();
        self.messages += n.messages.get();
        self.broadcasts += n.broadcasts.get();
        self.flits += n.flit_link_traversals.get();
        self.contention += n.contention_cycles.get();
        self.physical_pages += r.arch.map_or(0, |a| a.physical_pages);
        self.cow_faults += r.arch.map_or(0, |a| a.cow_faults);
    }
}

impl Counts {
    pub fn merge(&mut self, o: &Counts) {
        self.events += o.events;
        self.refs_done += o.refs_done;
        self.measured_refs += o.measured_refs;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.retries += o.retries;
        self.broadcast_invs += o.broadcast_invs;
        self.messages += o.messages;
        self.broadcasts += o.broadcasts;
        self.flits += o.flits;
        self.contention += o.contention;
        self.physical_pages += o.physical_pages;
        self.cow_faults += o.cow_faults;
    }
}

/// FNV-1a over `bytes`: a cheap fingerprint for the snapshot-image
/// exactness check.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}
