//! Per-layer replays for the traced run. Each one drives a single
//! crate's public API with inputs taken from the workload itself, so a
//! layer's cost can be read apart from the event loop around it.

use std::time::Instant;

use cmpsim::{Benchmark, CmpSimulator, ProtocolKind, SystemConfig};
use cmpsim_engine::{EventQueue, SimRng};
use cmpsim_noc::Mesh;
use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::harness::Harness;
use cmpsim_protocols::providers::Providers;
use cmpsim_protocols::CoherenceProtocol;
use cmpsim_virt::mem::LogicalPage;
use cmpsim_virt::MachineMemory;
use cmpsim_workloads::{CoreStream, LogicalRef};

use crate::cells::catch;
use crate::spans::Spans;

/// Repetitions of each replay; the median is reported.
const REPEATS: usize = 5;

/// Accesses per tile replayed through the protocol harness.
pub const HARNESS_REFS_PER_TILE: usize = 400;

/// Accesses per tile replayed with the invariant checker on (it
/// snapshots the whole chip on every message).
pub const CHECKER_REFS_PER_TILE: usize = 60;

/// Translated accesses of one tile, in issue order.
pub type TileStream = Vec<(u64, bool)>;

pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Builds each tile's reference stream exactly as `CmpSimulator::new`
/// does.
fn core_streams(cfg: &SystemConfig, bench: Benchmark) -> Vec<(usize, CoreStream)> {
    let mut rng = SimRng::new(cfg.seed);
    let areas = &cfg.chip.areas;
    (0..cfg.tiles())
        .map(|t| {
            let vm = cfg.placement.vm_of_tile(areas, cfg.num_vms, t);
            let core_in_vm = cfg
                .placement
                .tiles_of_vm(areas, cfg.num_vms, vm)
                .iter()
                .position(|&x| x == t)
                .expect("tile belongs to its own VM") as u64;
            let profile = bench.profile_for_vm(vm, cfg.num_vms);
            (vm, CoreStream::new(profile, core_in_vm, rng.fork(t as u64)))
        })
        .collect()
}

/// `CoreStream::next_ref` and `MachineMemory::translate` over a whole
/// run's references, tiles taking turns. Returns ns per reference for
/// each, and the translated per-tile streams.
pub fn streams(
    cfg: &SystemConfig,
    bench: Benchmark,
    sp: &mut Spans,
) -> (f64, f64, Vec<TileStream>) {
    let tiles = cfg.tiles();
    let per_core = cfg.refs_per_core as usize;
    let n = (tiles * per_core) as f64;
    let (mut gen_s, mut tr_s) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    for _ in 0..REPEATS {
        let mut cores = core_streams(cfg, bench);
        let mut refs: Vec<LogicalRef> = Vec::with_capacity(tiles * per_core);
        let t = sp.open("workloads.next_ref", None);
        for _ in 0..per_core {
            for (_, s) in cores.iter_mut() {
                refs.push(s.next_ref());
            }
        }
        gen_s.push(sp.close(t));
        let mut mem = MachineMemory::new(cfg.num_vms);
        let mut blocks: Vec<TileStream> = vec![Vec::with_capacity(per_core); tiles];
        let t = sp.open("virt.translate", None);
        for (k, r) in refs.iter().enumerate() {
            let tile = k % tiles;
            let lp = LogicalPage {
                vm: cores[tile].0,
                region: r.region,
                index: r.page_index,
            };
            blocks[tile].push((mem.translate(lp, r.block_in_page, r.is_write), r.is_write));
        }
        tr_s.push(sp.close(t));
        out = blocks;
    }
    (median(&gen_s) * 1e9 / n, median(&tr_s) * 1e9 / n, out)
}

fn replay_one<P: CoherenceProtocol>(
    proto: P,
    streams: &[TileStream],
    per_tile: usize,
    check: bool,
) -> Result<(f64, u64), String> {
    let mut h = Harness::new(proto);
    if check {
        h.enable_invariant_checker();
    }
    let mut n = 0u64;
    for (t, s) in streams.iter().enumerate() {
        for &(block, write) in s.iter().take(per_tile) {
            h.push_access(t, block, write);
            n += 1;
        }
    }
    let t = Instant::now();
    catch(|| {
        h.run(n.saturating_mul(400) + 10_000);
        Ok(())
    })?;
    let s = t.elapsed().as_secs_f64();
    if h.total_completed() != n {
        return Err(format!(
            "harness completed {} of {n} accesses",
            h.total_completed()
        ));
    }
    Ok((s, n))
}

/// Replays the first `per_tile` translated accesses of every tile
/// through `harness::Harness` for one protocol, with or without the
/// invariant checker; returns ns per access (median of the repeats).
pub fn protocol_access_ns(
    kind: ProtocolKind,
    cfg: &SystemConfig,
    streams: &[TileStream],
    per_tile: usize,
    check: bool,
    sp: &mut Spans,
    cell: usize,
) -> Result<f64, String> {
    let name = if check {
        "protocols.checker_replay"
    } else {
        "protocols.replay"
    };
    let mut samples = Vec::new();
    for _ in 0..REPEATS {
        let spec = cfg.chip.clone();
        let t = sp.open(name, Some(cell));
        let r = match kind {
            ProtocolKind::Directory => replay_one(Directory::new(spec), streams, per_tile, check),
            ProtocolKind::DiCo => replay_one(DiCo::new(spec), streams, per_tile, check),
            ProtocolKind::DiCoProviders => {
                replay_one(Providers::new(spec), streams, per_tile, check)
            }
            ProtocolKind::DiCoArin => replay_one(Arin::new(spec), streams, per_tile, check),
        };
        sp.close(t);
        let (s, n) = r?;
        samples.push(s * 1e9 / n as f64);
    }
    Ok(median(&samples))
}

/// One network message from a traced run's log.
#[derive(Debug, Clone, Copy)]
pub struct LogMsg {
    pub depart: u64,
    pub arrival: u64,
    pub src: usize,
    pub dst: usize,
    pub flits: u64,
    pub bcast: bool,
}

/// Runs one cell cold with the transaction tracer on and returns the
/// measured window's message log (depart, arrival, src, dst, category).
pub fn message_log(
    kind: ProtocolKind,
    bench: Benchmark,
    cfg: &SystemConfig,
) -> Result<Vec<LogMsg>, String> {
    let mut cfg = cfg.clone();
    cfg.check_invariants = false;
    cfg.attribution = false;
    cfg.sample_interval = None;
    let cfg = cfg.with_tracing().with_trace_capacity(1 << 18);
    let r = catch(|| {
        CmpSimulator::new(kind, bench, &cfg)
            .run()
            .map_err(|e| e.to_string())
    })?;
    let trace = r.trace.ok_or("traced run returned no trace")?;
    if trace.ring.dropped() > 0 {
        return Err(format!(
            "trace ring dropped {} events",
            trace.ring.dropped()
        ));
    }
    let arg = |ev: &cmpsim_engine::TraceEvent, k: &str| {
        ev.args.iter().find(|(n, _)| *n == k).map_or(0, |&(_, v)| v)
    };
    Ok(trace
        .ring
        .iter()
        .filter(|ev| ev.cat == "msg" || ev.cat == "bcast")
        .map(|ev| LogMsg {
            depart: ev.ts,
            arrival: ev.ts + ev.dur,
            src: arg(ev, "src") as usize,
            dst: arg(ev, "dst") as usize,
            // The log names the message kind; these carry a data block.
            flits: match ev.name.as_str() {
                "Data" | "MemData" | "SbaTransition" | "OwnershipTransfer" | "OwnershipToHome" => {
                    cfg.noc.data_flits
                }
                _ => cfg.noc.control_flits,
            },
            bcast: ev.cat == "bcast",
        })
        .collect())
}

/// Replays a message log into a fresh `Mesh` in the order the simulator
/// sent it. Returns (unicast ns per `send`, ns per `broadcast`).
pub fn noc_replay(cfg: &SystemConfig, log: &[LogMsg], sp: &mut Spans, cell: usize) -> (f64, f64) {
    let sends = log.iter().filter(|m| !m.bcast).count().max(1) as f64;
    let bcasts = log.iter().filter(|m| m.bcast).count();
    let (mut send_ns, mut bcast_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let mut mesh = Mesh::new(cfg.noc);
        let mut bcast_s = 0.0;
        let mut sink = 0u64;
        let t = sp.open("noc.replay", Some(cell));
        for m in log {
            if m.bcast {
                let tb = Instant::now();
                sink += mesh.broadcast(m.depart, m.src, m.flits).len() as u64;
                bcast_s += tb.elapsed().as_secs_f64();
            } else {
                sink += mesh.send(m.depart, m.src, m.dst, m.flits).arrival;
            }
        }
        let total = sp.close(t);
        std::hint::black_box(sink);
        send_ns.push((total - bcast_s) * 1e9 / sends);
        if bcasts > 0 {
            bcast_ns.push(bcast_s * 1e9 / bcasts as f64);
        }
    }
    (median(&send_ns), median(&bcast_ns))
}

/// Replays the log's delivery times through an `EventQueue`: messages
/// in departure order, each first popping every delivery due before
/// it departs, then pushing its own. Returns ns per push-and-pop.
pub fn queue_replay(log: &[LogMsg], sp: &mut Spans, cell: usize) -> f64 {
    let mut order: Vec<&LogMsg> = log.iter().collect();
    order.sort_by_key(|m| m.depart);
    let mut samples = Vec::new();
    for _ in 0..REPEATS {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut sink = 0u64;
        let t = sp.open("engine.queue_replay", Some(cell));
        for (i, m) in order.iter().enumerate() {
            while q.peek_time().is_some_and(|at| at < m.depart) {
                sink += q.pop().map_or(0, |(_, e)| e as u64);
            }
            q.push(m.arrival, i as u32);
        }
        while let Some((_, e)) = q.pop() {
            sink += e as u64;
        }
        let s = sp.close(t);
        std::hint::black_box(sink);
        samples.push(s * 1e9 / order.len().max(1) as f64);
    }
    median(&samples)
}
