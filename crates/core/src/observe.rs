//! The transaction observers behind one open-miss index.
//!
//! The tracer ([`crate::trace`]) and the attribution profiler
//! ([`crate::attr`]) follow the same transactions: every L1 miss from
//! issue to completion, and every network message and cache dispatch on
//! its block in between. Which open miss owns such an event is one rule,
//! kept here once:
//!
//! * each tile has at most one open miss (a core has one outstanding
//!   access), so the tile indexes the open set;
//! * the tiles with an open miss on a block form an oldest-first list,
//!   and an event on the block belongs to the first of them (none open:
//!   background traffic);
//! * an issue on a tile that still holds an open miss drops that stale
//!   entry first, and a completion unlinks the tile from its block.
//!
//! [`Observers`] owns that index and the enabled parts; the parts keep
//! only their own per-transaction payload. The simulator holds one
//! `Option<Observers>`, so with both observers off every hook site is a
//! single branch.

use crate::attr::{BreakdownLog, MsgClass, TxAttribution};
use crate::config::SystemConfig;
use crate::trace::{TraceLog, TxTracer};
use cmpsim_engine::phase::PhaseCycles;
use cmpsim_engine::{Cycle, EventCounts};
use cmpsim_protocols::common::{Block, BlockReason, Node, Tile};
use cmpsim_protocols::ProtoStats;
use std::collections::BTreeMap;

/// One open (issued, not yet completed) miss: what both observers know
/// of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenMiss {
    pub(crate) block: Block,
    pub(crate) write: bool,
    pub(crate) issued: Cycle,
}

/// One network message as the observers see it: a `[depart, arrival)`
/// span on `block`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) depart: Cycle,
    pub(crate) arrival: Cycle,
    /// Trace event name (the message kind's label).
    pub(crate) label: &'static str,
    /// Trace category: `msg`, `bcast` or `mem`.
    pub(crate) cat: &'static str,
    /// Critical-path class for attribution.
    pub(crate) class: MsgClass,
    pub(crate) block: Block,
    pub(crate) src: Node,
    pub(crate) dst: Node,
    /// Link traversals the mesh charged for it.
    pub(crate) links: u64,
    /// Flits per traversal.
    pub(crate) flits: u64,
    /// The block is backed by a deduplicated (inter-VM shared) page.
    pub(crate) dedup: bool,
}

/// The cache-structure counters attribution charges per dispatch, in
/// [`EventCounts`] field order (the two network counters are charged
/// per message instead).
fn cache_counts(ps: &ProtoStats) -> [u64; 7] {
    [
        ps.l1_tag.get(),
        ps.l1_data_read.get() + ps.l1_data_write.get(),
        ps.l2_tag.get(),
        ps.l2_data_read.get() + ps.l2_data_write.get(),
        ps.dir_access.get(),
        ps.l1c_access.get(),
        ps.l2c_access.get(),
    ]
}

/// The cache-counter movement since `base` (see [`Observers::cache_base`]).
pub(crate) fn cache_delta(base: [u64; 7], ps: &ProtoStats) -> EventCounts {
    let cur = cache_counts(ps);
    EventCounts {
        l1_tag: cur[0] - base[0],
        l1_data: cur[1] - base[1],
        l2_tag: cur[2] - base[2],
        l2_data: cur[3] - base[3],
        dir: cur[4] - base[4],
        l1c: cur[5] - base[5],
        l2c: cur[6] - base[6],
        routing: 0,
        flit_links: 0,
    }
}

/// The open-miss index plus the enabled transaction observers.
#[derive(Debug, Clone)]
pub(crate) struct Observers {
    /// The open miss of each tile.
    open: Vec<Option<OpenMiss>>,
    /// Tiles with an open miss on a block, oldest first (never empty).
    by_block: BTreeMap<Block, Vec<Tile>>,
    tracer: Option<TxTracer>,
    attr: Option<TxAttribution>,
}

impl Observers {
    /// The observers `cfg` turns on (`None` when it turns on neither);
    /// `vm_of[tile]` is the VM of each tile's core.
    pub(crate) fn new(cfg: &SystemConfig, vm_of: Vec<usize>) -> Option<Self> {
        let tiles = vm_of.len();
        let tracer = cfg.tracing.then(|| TxTracer::new(tiles, cfg.trace_capacity));
        let attr = cfg.attribution.then(|| TxAttribution::new(vm_of, cfg.num_vms));
        (tracer.is_some() || attr.is_some()).then(|| Self {
            open: vec![None; tiles],
            by_block: BTreeMap::new(),
            tracer,
            attr,
        })
    }

    /// The tile whose open miss owns an event on `block`.
    fn owner(&self, block: Block) -> Option<Tile> {
        self.by_block.get(&block).map(|tiles| tiles[0])
    }

    fn unlink(&mut self, block: Block, tile: Tile) {
        if let Some(tiles) = self.by_block.get_mut(&block) {
            tiles.retain(|&t| t != tile);
            if tiles.is_empty() {
                self.by_block.remove(&block);
            }
        }
    }

    /// An L1 miss issues at `now` on `tile`. `dedup` marks a miss on a
    /// deduplicated (inter-VM shared) block.
    pub(crate) fn on_issue(
        &mut self,
        now: Cycle,
        tile: Tile,
        block: Block,
        write: bool,
        dedup: bool,
    ) {
        // A leftover entry would mean a completion was lost, which the
        // simulator's own debug assertions catch; drop it here.
        if let Some(stale) = self.open[tile].replace(OpenMiss { block, write, issued: now }) {
            self.unlink(stale.block, tile);
        }
        self.by_block.entry(block).or_default().push(tile);
        if let Some(tr) = &mut self.tracer {
            tr.on_issue(tile);
        }
        if let Some(a) = &mut self.attr {
            a.on_issue(tile, dedup);
        }
    }

    /// One network message.
    pub(crate) fn on_message(&mut self, span: &Span) {
        let owner = self.owner(span.block);
        if let Some(tr) = &mut self.tracer {
            tr.on_message(owner, span);
        }
        if let Some(a) = &mut self.attr {
            a.on_message(owner, span);
        }
    }

    /// The miss open on `tile` completes at `now`.
    pub(crate) fn on_completion(&mut self, now: Cycle, tile: Tile) {
        let Some(miss) = self.open[tile].take() else {
            return;
        };
        self.unlink(miss.block, tile);
        if let Some(tr) = &mut self.tracer {
            tr.on_completion(now, tile, &miss);
        }
        if let Some(a) = &mut self.attr {
            a.on_completion(now, tile, &miss);
        }
    }

    /// A pre-issue core retry of `cycles` cycles on `tile`.
    pub(crate) fn on_blocked(&mut self, reason: BlockReason, cycles: u64, tile: Tile) {
        if let Some(a) = &mut self.attr {
            a.on_blocked(reason, cycles, tile);
        }
    }

    /// The cache counters before a protocol dispatch, when attribution
    /// wants the dispatch's delta ([`cache_delta`] after it).
    pub(crate) fn cache_base(&self, ps: &ProtoStats) -> Option<[u64; 7]> {
        self.attr.as_ref().map(|_| cache_counts(ps))
    }

    /// Charges one dispatch's cache-event delta on `block`.
    pub(crate) fn on_cache_events(&mut self, block: Block, delta: EventCounts) {
        let owner = self.owner(block);
        if let Some(a) = &mut self.attr {
            a.on_cache_events(owner, delta);
        }
    }

    /// Warm-up reset of both observers (open misses are kept).
    pub(crate) fn reset(&mut self) {
        if let Some(tr) = &mut self.tracer {
            tr.reset();
        }
        if let Some(a) = &mut self.attr {
            a.reset();
        }
    }

    /// Completed-miss phase totals so far (interval sampling).
    pub(crate) fn phase_totals(&self) -> Option<PhaseCycles> {
        self.attr.as_ref().map(TxAttribution::phase_totals)
    }

    /// Stall-dump lines at `now`: the last trace events and the open
    /// misses' phase timelines.
    pub(crate) fn stall_lines(&self, now: Cycle) -> (Vec<String>, Vec<String>) {
        (
            self.tracer.as_ref().map(|t| t.tail_lines(16)).unwrap_or_default(),
            self.attr.as_ref().map(|a| a.stall_lines(now, 8, &self.open)).unwrap_or_default(),
        )
    }

    /// Finalizes into the exportable trace and breakdown.
    pub(crate) fn finish(self) -> (Option<TraceLog>, Option<BreakdownLog>) {
        (self.tracer.map(TxTracer::finish), self.attr.map(TxAttribution::finish))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A `[depart, arrival)` message on `block` with unit flits.
    pub(crate) fn span(
        depart: Cycle,
        arrival: Cycle,
        block: Block,
        src: Node,
        dst: Node,
        links: u64,
    ) -> Span {
        Span {
            depart,
            arrival,
            label: "Msg",
            cat: "msg",
            class: MsgClass::Control,
            block,
            src,
            dst,
            links,
            flits: 1,
            dedup: false,
        }
    }

    fn tracer(tiles: usize) -> Observers {
        Observers::new(&SystemConfig::smoke().with_trace_capacity(64), vec![0; tiles]).unwrap()
    }

    /// A re-issue on a tile with a leftover open miss drops the stale
    /// entry from its block's list, and a completion unlinks the tile.
    #[test]
    fn reissue_drops_the_stale_entry() {
        let mut o = tracer(2);
        o.on_issue(1, 0, 0x40, false, false);
        o.on_issue(5, 0, 0x80, false, false);
        assert_eq!(o.owner(0x40), None);
        assert_eq!(o.owner(0x80), Some(0));
        o.on_message(&span(5, 8, 0x40, Node::L2(1), Node::L1(0), 2));
        o.on_completion(9, 0);
        assert!(o.by_block.is_empty());
        let trace = o.finish().0.expect("tracing on");
        assert_eq!(trace.untracked_hops, 2);
        assert_eq!((trace.completed_txs, trace.open_txs), (1, 0));
    }

    /// Without any observer turned on there is nothing to build.
    #[test]
    fn off_by_default() {
        assert!(Observers::new(&SystemConfig::smoke(), vec![0; 16]).is_none());
        let both = SystemConfig::smoke().with_tracing().with_attribution();
        let o = Observers::new(&both, vec![0; 16]).unwrap();
        assert!(o.tracer.is_some() && o.attr.is_some());
    }
}
