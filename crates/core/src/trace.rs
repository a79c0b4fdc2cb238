//! Coherence-transaction tracing.
//!
//! When [`SystemConfig::tracing`](crate::SystemConfig) is on, the
//! simulator tags every L1 miss with a transaction id and records its
//! lifecycle — issue, the request reaching the ordering point
//! (directory or owner lookup), forwards, data/ack responses, and
//! completion — into a bounded [`TraceRing`]. Every network message is
//! recorded as a span whose duration is its NoC delivery latency and
//! whose `links` argument is the hop count the mesh charged for it, so
//! the per-transaction hop totals reconcile exactly with the NoC's
//! `routing_events` counter (a property the integration tests assert).
//!
//! Tracing is observation-only: it allocates no events in the
//! simulation queue, never touches the RNG, and the simulated timing is
//! bit-identical with it on or off.

use crate::observe::{OpenMiss, Span};
use cmpsim_engine::{trace::format_event, Cycle, TraceEvent, TraceRing};
use cmpsim_protocols::common::Tile;

/// The tracer's payload of one open transaction.
#[derive(Debug, Clone)]
struct TxTrack {
    id: u64,
    hops: u64,
    msgs: u64,
}

/// Assigns transaction ids to misses and records message spans into a
/// bounded ring. Which open miss a message belongs to is decided by the
/// shared index in [`crate::observe`].
#[derive(Debug, Clone)]
pub(crate) struct TxTracer {
    ring: TraceRing,
    /// Next transaction id (0 is reserved for untracked traffic).
    next_id: u64,
    /// The open transaction of each tile.
    open: Vec<Option<TxTrack>>,
    /// Link traversals attributed to an open transaction.
    tx_hops: u64,
    /// Link traversals with no open transaction on their block
    /// (writebacks, hints, evictions and other background traffic).
    untracked_hops: u64,
    /// Transactions completed since the last reset.
    completed: u64,
}

impl TxTracer {
    /// Creates a tracer for a `tiles`-tile chip with a ring of
    /// `capacity` events.
    pub(crate) fn new(tiles: usize, capacity: usize) -> Self {
        Self {
            ring: TraceRing::new(capacity),
            next_id: 1,
            open: vec![None; tiles],
            tx_hops: 0,
            untracked_hops: 0,
            completed: 0,
        }
    }

    /// Opens a new transaction on `tile`.
    pub(crate) fn on_issue(&mut self, tile: Tile) {
        self.open[tile] = Some(TxTrack { id: self.next_id, hops: 0, msgs: 0 });
        self.next_id += 1;
    }

    /// Records one network message on the track of the transaction open
    /// on `owner`, charging its hop count to that transaction (or the
    /// untracked bucket, on track 0).
    pub(crate) fn on_message(&mut self, owner: Option<Tile>, span: &Span) {
        let tid = match owner.and_then(|t| self.open[t].as_mut()) {
            Some(tx) => {
                tx.hops += span.links;
                tx.msgs += 1;
                self.tx_hops += span.links;
                tx.id
            }
            None => {
                self.untracked_hops += span.links;
                0
            }
        };
        self.ring.push(TraceEvent {
            ts: span.depart,
            dur: span.arrival.saturating_sub(span.depart),
            name: span.label.to_string(),
            cat: span.cat,
            tid,
            args: vec![
                ("block", span.block),
                ("src", span.src.tile() as u64),
                ("dst", span.dst.tile() as u64),
                ("links", span.links),
            ],
        });
    }

    /// Records the completion at `now` of `miss`, open on `tile`,
    /// emitting its whole-lifecycle span.
    pub(crate) fn on_completion(&mut self, now: Cycle, tile: Tile, miss: &OpenMiss) {
        let Some(tx) = self.open[tile].take() else {
            return;
        };
        self.completed += 1;
        self.ring.push(TraceEvent {
            ts: miss.issued,
            dur: now.saturating_sub(miss.issued),
            name: if miss.write { "store-miss".to_string() } else { "load-miss".to_string() },
            cat: "tx",
            tid: tx.id,
            args: vec![
                ("block", miss.block),
                ("tile", tile as u64),
                ("hops", tx.hops),
                ("msgs", tx.msgs),
            ],
        });
    }

    /// Warm-up reset: discards buffered events and zeroes the hop
    /// accounting (mirroring the NoC stats reset), but keeps open
    /// transactions so misses straddling the boundary still complete.
    /// Their per-transaction accumulators restart too, so completed
    /// spans only ever report post-warm-up hops and the span sum stays
    /// reconcilable with `tx_hops`.
    pub(crate) fn reset(&mut self) {
        self.ring.clear();
        self.tx_hops = 0;
        self.untracked_hops = 0;
        self.completed = 0;
        for tx in self.open.iter_mut().flatten() {
            tx.hops = 0;
            tx.msgs = 0;
        }
    }

    /// The last `n` events rendered as text lines (for stall dumps).
    pub(crate) fn tail_lines(&self, n: usize) -> Vec<String> {
        self.ring.tail(n).map(format_event).collect()
    }

    /// Finalizes the tracer into the exportable log.
    pub(crate) fn finish(self) -> TraceLog {
        let open = self.open.iter().filter(|o| o.is_some()).count() as u64;
        TraceLog {
            ring: self.ring,
            tx_hops: self.tx_hops,
            untracked_hops: self.untracked_hops,
            completed_txs: self.completed,
            open_txs: open,
        }
    }
}

/// The trace of one finished run.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// The buffered events (tail of the run when the ring overflowed).
    pub ring: TraceRing,
    /// Post-warm-up link traversals attributed to a transaction.
    pub tx_hops: u64,
    /// Post-warm-up link traversals of background traffic.
    pub untracked_hops: u64,
    /// Transactions completed in the measured window.
    pub completed_txs: u64,
    /// Transactions still open at the end (0 on a clean drain).
    pub open_txs: u64,
}

impl TraceLog {
    /// All post-warm-up link traversals seen by the tracer; equals the
    /// NoC's `routing_events` counter.
    pub fn total_hops(&self) -> u64 {
        self.tx_hops + self.untracked_hops
    }

    /// Renders the trace as Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing` loadable).
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        self.ring.to_chrome_json(process_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{tests::span, Observers};
    use cmpsim_protocols::common::Node;

    fn tracer(tiles: usize, capacity: usize) -> Observers {
        let cfg = crate::SystemConfig::smoke().with_trace_capacity(capacity);
        Observers::new(&cfg, vec![0; tiles]).expect("tracing on")
    }

    fn finish(o: Observers) -> TraceLog {
        o.finish().0.expect("tracing on")
    }

    #[test]
    fn issue_message_complete_lifecycle() {
        let mut t = tracer(4, 64);
        t.on_issue(10, 2, 0x40, false, false);
        t.on_message(&span(10, 15, 0x40, Node::L1(2), Node::L2(0), 3));
        t.on_message(&span(15, 22, 0x40, Node::L2(0), Node::L1(2), 3));
        t.on_completion(22, 2);
        let log = finish(t);
        assert_eq!(log.completed_txs, 1);
        assert_eq!(log.open_txs, 0);
        assert_eq!(log.tx_hops, 6);
        assert_eq!(log.untracked_hops, 0);
        assert_eq!(log.ring.len(), 3);
        let tx = log.ring.iter().last().unwrap();
        assert_eq!(tx.cat, "tx");
        assert_eq!(tx.tid, 1);
        assert_eq!(tx.ts, 10);
        assert_eq!(tx.dur, 12);
        assert!(tx.args.contains(&("hops", 6)));
        assert!(tx.args.contains(&("msgs", 2)));
    }

    #[test]
    fn background_traffic_lands_on_track_zero() {
        let mut t = tracer(2, 16);
        t.on_message(&span(5, 9, 0x80, Node::L1(1), Node::L2(0), 2));
        let log = finish(t);
        assert_eq!(log.untracked_hops, 2);
        assert_eq!(log.tx_hops, 0);
        assert_eq!(log.ring.iter().next().unwrap().tid, 0);
    }

    #[test]
    fn attribution_follows_oldest_open_tx() {
        let mut t = tracer(4, 16);
        t.on_issue(1, 0, 0x40, false, false);
        t.on_issue(2, 1, 0x40, true, false);
        t.on_message(&span(3, 5, 0x40, Node::L1(0), Node::L1(1), 1));
        t.on_completion(6, 0);
        // With tile 0's transaction closed, the same block now maps to
        // tile 1's.
        t.on_message(&span(7, 9, 0x40, Node::L1(1), Node::L1(0), 1));
        let log = finish(t);
        let tids: Vec<u64> = log.ring.iter().filter(|e| e.cat == "msg").map(|e| e.tid).collect();
        assert_eq!(tids, vec![1, 2]);
    }

    #[test]
    fn reset_keeps_open_transactions() {
        let mut t = tracer(2, 16);
        t.on_issue(1, 0, 0x40, false, false);
        t.on_message(&span(1, 4, 0x40, Node::L1(0), Node::L2(1), 2));
        t.reset();
        assert_eq!(t.stall_lines(4).0.len(), 0);
        t.on_message(&span(5, 8, 0x40, Node::L2(1), Node::L1(0), 2));
        t.on_completion(8, 0);
        let log = finish(t);
        // Only the post-reset hops are counted...
        assert_eq!(log.tx_hops, 2);
        // ...but the straddling transaction still completes.
        assert_eq!(log.completed_txs, 1);
        assert_eq!(log.open_txs, 0);
    }

    #[test]
    fn tail_lines_render() {
        let mut t = tracer(2, 16);
        t.on_issue(1, 0, 0x40, true, false);
        t.on_message(&Span { label: "GetX", ..span(1, 4, 0x40, Node::L1(0), Node::L2(1), 2) });
        let (lines, phases) = t.stall_lines(4);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("GetX"), "{}", lines[0]);
        assert!(lines[0].contains("links=2"), "{}", lines[0]);
        assert!(phases.is_empty(), "attribution is off");
    }
}
