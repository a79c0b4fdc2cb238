//! Host-speed probe: scales the timed passes to a reference host.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to 3x over minutes as other machines' work comes and goes, and
//! the simulator, which is memory-bound, drifts with it. So every timed
//! piece of work (one cell of a cold pass, one sweep pass) is
//! bracketed by two runs of a fixed probe that uses none of the
//! simulator's code: random lookups into a 2 MiB hash table. A timing
//! is scaled by `REFERENCE_S` over the mean of the probes either side
//! of it, so it reads as seconds on a host where the probe takes
//! `REFERENCE_S`. A change to the simulator moves the scaled time as it
//! moves the raw one; a change in the host's speed moves the probe too
//! and cancels out.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::spans::Spans;

/// Entries of the probe's table: about 2 MiB, one core's L2. Over runs
/// whose speed drifted by 1.5x, this size slowed down with the host
/// about as much as the simulator did (log-log slope 0.9); a 32 MiB
/// table slowed down a third more than the simulator, and a 0.5 MiB one
/// a fifth less.
const ENTRIES: u64 = 1 << 16;
/// Lookups per probe sample (`REFERENCE_S` on the reference host).
const LOOKUPS: u32 = 200_000;
/// Samples per probe around a sweep pass: it lasts seconds and only two
/// probes bracket it.
pub const LONG_SAMPLES: usize = 8;
/// One probe's time on the reference host: about its time on a 2-vCPU
/// Intel Xeon VM when its shared host was quiet.
pub const REFERENCE_S: f64 = 0.007;

/// A fixed hash table with a fixed hasher, so every process probes the
/// same layout.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

pub struct Probe {
    table: Table,
    state: u64,
    /// Resident bytes the table added to the process when it was built.
    pub resident_bytes: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `VmRSS` of this process, in bytes (0 where `/proc` is absent).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

impl Probe {
    /// Builds the table at its final capacity, so it never rehashes and
    /// the process's memory peak holds exactly one copy of it.
    pub fn new() -> Self {
        let before = rss_bytes();
        let mut table = Table::with_capacity_and_hasher(ENTRIES as usize, Default::default());
        let mut x = 0x9e37_79b9_7f4a_7c15;
        while (table.len() as u64) < ENTRIES {
            table.insert(xorshift(&mut x) % (4 * ENTRIES), 1);
        }
        Self {
            table,
            state: 0x2545_f491_4f6c_dd1d,
            resident_bytes: rss_bytes().saturating_sub(before),
        }
    }

    /// Times one probe on `threads` threads at once (each its own
    /// lookups), in seconds, so work that keeps every core busy is
    /// compared with a probe that does too.
    pub fn sample(&mut self, threads: usize) -> f64 {
        let table = &self.table;
        let seed = xorshift(&mut self.state);
        let start = Instant::now();
        if threads <= 1 {
            lookups(table, seed);
        } else {
            std::thread::scope(|s| {
                for t in 1..threads as u64 {
                    s.spawn(move || lookups(table, seed ^ t.wrapping_mul(0x9e37_79b9)));
                }
                lookups(table, seed);
            });
        }
        start.elapsed().as_secs_f64()
    }
}

fn lookups(table: &Table, mut x: u64) {
    let mut acc = 0u64;
    for _ in 0..LOOKUPS {
        if let Some(v) = table.get(&(xorshift(&mut x) % (4 * ENTRIES))) {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
}

/// Raw timings interleaved with probe samples.
pub struct Timeline {
    /// Threads each probe runs on.
    threads: usize,
    /// Samples per probe; the probe's time is their median.
    samples: usize,
    probes: Vec<f64>,
    /// (index of the probe before the timing, raw seconds).
    items: Vec<(usize, f64)>,
}

impl Timeline {
    /// Starts with one probe of `samples` samples on `threads` threads.
    /// A single sample is noisy (its 16 ms see the host's fast jitter),
    /// so a long timing, bracketed by few probes, takes several.
    pub fn start(threads: usize, samples: usize, probe: &mut Probe, sp: &mut Spans) -> Self {
        let mut t = Self {
            threads,
            samples,
            probes: Vec::new(),
            items: Vec::new(),
        };
        t.probe(probe, sp);
        t
    }

    pub fn probe(&mut self, probe: &mut Probe, sp: &mut Spans) {
        let t = sp.open("host.probe", None);
        let v: Vec<f64> = (0..self.samples)
            .map(|_| probe.sample(self.threads))
            .collect();
        sp.close(t);
        let s = crate::layers::median(&v);
        self.probes.push(s);
    }

    /// Records a raw timing taken since the last probe.
    pub fn push(&mut self, raw_s: f64) {
        self.items.push((self.probes.len() - 1, raw_s));
    }

    pub fn raw(&self) -> Vec<f64> {
        self.items.iter().map(|&(_, s)| s).collect()
    }

    /// Each timing scaled to the reference host. Every timing must have
    /// a probe after it.
    pub fn scaled(&self) -> Vec<f64> {
        self.items
            .iter()
            .map(|&(k, s)| {
                let around = (self.probes[k] + self.probes[k + 1]) / 2.0;
                s * REFERENCE_S / around
            })
            .collect()
    }
}
