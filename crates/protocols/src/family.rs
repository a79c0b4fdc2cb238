//! The DiCo family's shared core.
//!
//! DiCo-Providers and DiCo-Arin are deltas on DiCo (paper §III-A/B,
//! Tables I and II): only *where the sharing information lives* changes.
//! [`Family`] holds everything the three protocols share — the L1, L1C$,
//! MSHR, L2 and L2C$ arrays, the Change_Owner handshake, hand-off
//! tombstones and their chase bound, vouched forwarding with the home's
//! bounce hold, self-serve completion, epoch-tagged invalidation and the
//! ownership recall — and a [`SharingPolicy`] supplies the steps the
//! tables say differ. The policy is a type parameter, so every hook is
//! statically dispatched and the hot path carries no indirection.
//!
//! A sharing code is a [`SharerSet`]. DiCo's owner keeps a chip-wide
//! full map (index = tile); the two area-based variants keep one per
//! area (index = the tile's position inside its area), which
//! `Family::scope` and `Family::member` translate.

use crate::checker::{ChipSnapshot, CopyState, CopyView, L2View};
use crate::common::*;
use cmpsim_cache::{Mshr, SetAssoc};
use cmpsim_engine::{Cycle, FxHashMap, FxHashSet, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// Hand-off notes kept per tile before the oldest is forgotten.
const TOMBSTONE_CAP: usize = 128;

/// L1 line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1State {
    /// Sharer; `hint` remembers the last known supplier (stored in the
    /// line's directory-info space, moved to the L1C$ on eviction).
    Sharer {
        /// Last known supplier.
        hint: Option<Tile>,
    },
    /// Provider (area-based variants only): serves in-area reads.
    Provider,
    /// Owner: data + sharing code live here.
    Owner {
        /// No other copies exist (E/M as opposed to O).
        exclusive: bool,
        /// Modified with respect to memory.
        dirty: bool,
    },
}

/// ProPo storage in an L1 line: DiCo-Providers' owner keeps one
/// provider pointer per area; DiCo and DiCo-Arin keep none (a zero-sized
/// slot that adds nothing to the line or its snapshot encoding).
pub trait ProposSlot: Copy + Default + fmt::Debug + Snap {
    /// The line carries ProPos (and writes invalidate providers, which
    /// answer with an `AckCount`).
    const PRESENT: bool;
    /// The stored pointers, if the slot exists.
    fn get(&self) -> Option<&Propos>;
    /// Replaces the stored pointers (no-op without a slot).
    fn set(&mut self, p: Propos);
}

/// The empty ProPo slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPropos;

impl Snap for NoPropos {
    fn save(&self, _: &mut SnapWriter) {}

    fn load(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NoPropos)
    }
}

impl ProposSlot for NoPropos {
    const PRESENT: bool = false;

    #[inline]
    fn get(&self) -> Option<&Propos> {
        None
    }

    #[inline]
    fn set(&mut self, _: Propos) {}
}

impl ProposSlot for Propos {
    const PRESENT: bool = true;

    #[inline]
    fn get(&self) -> Option<&Propos> {
        Some(self)
    }

    #[inline]
    fn set(&mut self, p: Propos) {
        *self = p;
    }
}

/// Number of live provider pointers.
pub(crate) fn propo_count(p: &Propos) -> u32 {
    p.iter().filter(|x| x.is_some()).count() as u32
}

/// An L1 line.
#[derive(Debug, Clone)]
pub struct L1Line<P: SharingPolicy> {
    pub(crate) state: L1State,
    /// Sharing code (owner; and DiCo-Providers' providers): chip-wide
    /// for DiCo, the holder's area for the area-based variants.
    pub(crate) sharers: SharerSet,
    pub(crate) propos: P::LinePropos,
    pub(crate) version: u64,
}

impl<P: SharingPolicy> L1Line<P> {
    fn new(state: L1State, sharers: SharerSet, version: u64) -> Self {
        Self { state, sharers, propos: Default::default(), version }
    }

    pub(crate) fn dirty(&self) -> bool {
        matches!(self.state, L1State::Owner { dirty: true, .. })
    }

    /// The line as the invariant checker sees it.
    fn view(&self) -> CopyView {
        let state = match self.state {
            L1State::Sharer { .. } => CopyState::Shared,
            L1State::Provider => CopyState::Provider,
            L1State::Owner { exclusive, dirty } => CopyState::Owner { exclusive, dirty },
        };
        CopyView { state, version: self.version }
    }
}

impl<P: SharingPolicy> Snap for L1Line<P> {
    fn save(&self, w: &mut SnapWriter) {
        // DiCo has no provider state, so its owner tag follows the sharer.
        let owner_tag = if P::AREAS { 2 } else { 1 };
        match self.state {
            L1State::Sharer { hint } => {
                w.u8(0);
                hint.save(w);
            }
            L1State::Provider => w.u8(1),
            L1State::Owner { exclusive, dirty } => {
                w.u8(owner_tag);
                exclusive.save(w);
                dirty.save(w);
            }
        }
        self.sharers.save(w);
        self.propos.save(w);
        self.version.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let state = match (r.u8()?, P::AREAS) {
            (0, _) => L1State::Sharer { hint: Snap::load(r)? },
            (1, true) => L1State::Provider,
            (1, false) | (2, true) => {
                L1State::Owner { exclusive: Snap::load(r)?, dirty: Snap::load(r)? }
            }
            (tag, _) => return Err(SnapError::BadTag { what: "L1State", tag }),
        };
        Ok(Self { state, sharers: Snap::load(r)?, propos: Snap::load(r)?, version: Snap::load(r)? })
    }
}

/// Home L2 data entry: exists when the home holds the data (DiCo and
/// DiCo-Providers: the ownership; DiCo-Arin: also shared-between-areas
/// blocks). `home` is the policy's sharing information.
#[derive(Debug, Clone)]
pub struct L2Entry<P: SharingPolicy> {
    pub(crate) dirty: bool,
    pub(crate) version: u64,
    pub(crate) home: P::Home,
}

impl<P: SharingPolicy> Snap for L2Entry<P> {
    fn save(&self, w: &mut SnapWriter) {
        self.dirty.save(w);
        self.version.save(w);
        self.home.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { dirty: Snap::load(r)?, version: Snap::load(r)?, home: Snap::load(r)? })
    }
}

/// Outstanding miss at the requestor.
#[derive(Debug, Clone)]
pub struct MshrEntry<P> {
    pub(crate) write: bool,
    pub(crate) issued_at: Cycle,
    /// Predicted destination, if the L1C$ produced one.
    pub(crate) predicted: Option<Tile>,
    /// In-place upgrade at the owner (no data expected).
    pub(crate) upgrade: bool,
    pub(crate) have_data: bool,
    pub(crate) fill: Option<DataInfo>,
    pub(crate) fill_from: Option<Node>,
    /// Sharer acks still owed (incremented by provider AckCounts).
    pub(crate) acks_needed: i64,
    /// Provider acks still owed (DiCo-Providers only).
    pub(crate) provider_acks_needed: i64,
    /// An invalidation for epoch `v` arrived while a read fill was in
    /// flight; a fill with `version <= v` completes but is not installed.
    pub(crate) pending_inv: Option<u64>,
    policy: PhantomData<P>,
}

impl<P: SharingPolicy> Snap for MshrEntry<P> {
    fn save(&self, w: &mut SnapWriter) {
        self.write.save(w);
        self.issued_at.save(w);
        self.predicted.save(w);
        self.upgrade.save(w);
        self.have_data.save(w);
        self.fill.save(w);
        self.fill_from.save(w);
        self.acks_needed.save(w);
        if <P::LinePropos as ProposSlot>::PRESENT {
            self.provider_acks_needed.save(w);
        }
        self.pending_inv.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            write: Snap::load(r)?,
            issued_at: Snap::load(r)?,
            predicted: Snap::load(r)?,
            upgrade: Snap::load(r)?,
            have_data: Snap::load(r)?,
            fill: Snap::load(r)?,
            fill_from: Snap::load(r)?,
            acks_needed: Snap::load(r)?,
            provider_acks_needed: if <P::LinePropos as ProposSlot>::PRESENT {
                Snap::load(r)?
            } else {
                0
            },
            pending_inv: Snap::load(r)?,
            policy: PhantomData,
        })
    }
}

/// A home transaction owned by one policy; it writes its own snapshot
/// tag (3 and up — the shared [`HomeTx`] variants use 0–2).
pub trait PolicyTx: Clone + fmt::Debug {
    /// Serializes the transaction, tag first.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes the body of a transaction whose tag was already read.
    fn load_tagged(tag: u8, r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Home-side transaction.
#[derive(Clone)]
pub enum HomeTx<T> {
    /// Off-chip fetch in flight; the triggering request is stored.
    MemFetch {
        /// The request being served.
        req: Msg,
    },
    /// L2C$ eviction recall in flight.
    Recall,
    /// The home granted ownership (from its own L2 data or from memory)
    /// and waits for the requestor's Unblock before updating the L2C$
    /// and serving the next request.
    Granting {
        /// The grantee.
        to: Tile,
    },
    /// A transaction only one policy has (its L2 evictions; DiCo-Arin's
    /// broadcast write).
    Policy(T),
}

impl<T: fmt::Debug> fmt::Debug for HomeTx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomeTx::MemFetch { req } => f.debug_struct("MemFetch").field("req", req).finish(),
            HomeTx::Recall => f.write_str("Recall"),
            HomeTx::Granting { to } => f.debug_struct("Granting").field("to", to).finish(),
            HomeTx::Policy(t) => t.fmt(f),
        }
    }
}

impl<T: PolicyTx> Snap for HomeTx<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            HomeTx::MemFetch { req } => {
                w.u8(0);
                req.save(w);
            }
            HomeTx::Recall => w.u8(1),
            HomeTx::Granting { to } => {
                w.u8(2);
                to.save(w);
            }
            HomeTx::Policy(t) => t.save(w),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => HomeTx::MemFetch { req: Snap::load(r)? },
            1 => HomeTx::Recall,
            2 => HomeTx::Granting { to: Snap::load(r)? },
            tag => HomeTx::Policy(T::load_tagged(tag, r)?),
        })
    }
}

/// Per-tile hand-off notes ("the ownership went to X"), capped FIFO.
#[derive(Debug, Clone)]
pub(crate) struct Tombstones<T> {
    notes: Vec<FxHashMap<Block, T>>,
    fifo: Vec<VecDeque<Block>>,
}

impl<T: Copy> Tombstones<T> {
    /// Empty notes for `tiles` tiles.
    pub(crate) fn new(tiles: usize) -> Self {
        Self { notes: vec![FxHashMap::default(); tiles], fifo: vec![VecDeque::new(); tiles] }
    }

    /// Records that `block` left `tile` toward `to`.
    pub(crate) fn set(&mut self, tile: Tile, block: Block, to: T) {
        if self.notes[tile].insert(block, to).is_none() {
            self.fifo[tile].push_back(block);
            if self.fifo[tile].len() > TOMBSTONE_CAP {
                if let Some(old) = self.fifo[tile].pop_front() {
                    self.notes[tile].remove(&old);
                }
            }
        }
    }

    /// Where `block` went from `tile`, if noted.
    #[inline]
    pub(crate) fn get(&self, tile: Tile, block: Block) -> Option<T> {
        self.notes[tile].get(&block).copied()
    }

    /// Drops the note (a fresh copy or transfer supersedes it).
    #[inline]
    pub(crate) fn forget(&mut self, tile: Tile, block: Block) {
        self.notes[tile].remove(&block);
    }
}

impl<T: Snap + Copy> Snap for Tombstones<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.notes.save(w);
        self.fifo.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { notes: Snap::load(r)?, fifo: Snap::load(r)? })
    }
}

/// What travels with an ownership hand-off.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    /// Dirty with respect to memory.
    dirty: bool,
    /// Data version.
    version: u64,
    /// Provider pointers (DiCo-Providers; all `None` otherwise).
    propos: Propos,
}

/// Where a DiCo-family protocol keeps its sharing information, and the
/// steps of the paper's Tables I/II that depend on it. A hook's default
/// is the rule the variants without an override share; the defaults of
/// the provider and remote-area hooks are unreachable for DiCo.
pub trait SharingPolicy: Sized + Clone + fmt::Debug + Snap + 'static {
    /// Protocol identity.
    const KIND: ProtocolKind;
    /// Sharing codes are kept per area (index = position in the area)
    /// and areas have providers. Otherwise the owner keeps a chip-wide
    /// full map (DiCo).
    const AREAS: bool;
    /// The policy's own state is serialized right after the
    /// Change_Owner sets instead of after the tombstones.
    const STATE_FIRST: bool = false;
    /// An owner's in-place write forgets its sharing code as soon as the
    /// invalidations leave, instead of when the write commits.
    const FORGET_ON_UPGRADE: bool = true;
    /// A tile that inherits the ownership while its own miss still roams
    /// also hints the sharers it inherits (Figure 5).
    const HINT_FRESH_OWNER: bool = false;
    /// Providers keep their area's sharing code (DiCo-Providers); the
    /// checker may then rely on it.
    const PROVIDERS_TRACK: bool = false;

    /// ProPo slot of an L1 line.
    type LinePropos: ProposSlot;
    /// Sharing information of a home L2 entry.
    type Home: Clone + fmt::Debug + Snap;
    /// Home transactions only this policy has.
    type Tx: PolicyTx;

    /// The policy's own state for `spec`.
    fn new(spec: &ChipSpec) -> Self;

    /// Table I: the owner receives a read from another area.
    fn owner_remote_read(
        f: &mut Family<Self>,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        req: ReqInfo,
    ) {
        let _ = (f, ctx, tile, block, req);
        unreachable!("chip-wide sharing has no remote areas")
    }

    /// Table I: a provider receives a read from its own area.
    fn provider_read(f: &mut Family<Self>, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let _ = (f, ctx, tile, block, req);
        unreachable!("no providers")
    }

    /// Table II: a provider line is replaced (silently by default).
    fn evict_provider(
        f: &mut Family<Self>,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        line: L1Line<Self>,
    ) {
        let _ = (f, ctx, tile, block, line);
    }

    /// L2C$ replacement: the stable owner gives the ownership back to the
    /// home. By default it stays on as a sharer and the home inherits
    /// its sharing code.
    fn surrender(f: &mut Family<Self>, ctx: &mut Ctx, tile: Tile, block: Block) {
        let me = f.idx(tile);
        let line = f.l1[tile].get_mut(block).expect("owner line");
        let (dirty, version, sharers) = (line.dirty(), line.version, line.sharers);
        line.state = L1State::Sharer { hint: None };
        line.sharers = SharerSet::EMPTY;
        f.stats.l1_data_read.inc();
        let home = f.home(block);
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipToHome {
                    dirty,
                    version,
                    propos: [None; MAX_AREAS],
                    sharers: sharers | SharerSet::only(me),
                    former_stays_provider: false,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            f.spec.lat.l1_hit(),
        );
    }

    /// Table I, L2 rows: a request reaches a home whose L2 holds the
    /// block.
    fn home_serve(f: &mut Family<Self>, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo);

    /// An L2 data entry is replaced (`l2_evictions` already counted).
    fn evict_home(f: &mut Family<Self>, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry<Self>);

    /// The home's sharing information after an `OwnershipToHome` from
    /// `src` carrying `sharers` and `propos`.
    fn home_from_wb(spec: &ChipSpec, src: Tile, sharers: SharerSet, propos: &Propos) -> Self::Home;

    /// An invalidation ack reaches the home (an L2 eviction collects).
    fn home_ack(
        f: &mut Family<Self>,
        ctx: &mut Ctx,
        home: Tile,
        msg: Msg,
    ) -> Result<(), ProtoError>;

    /// Chip tiles the home entry's sharing code covers for the checker;
    /// `None` when the block is tracked by broadcast instead.
    fn home_coverage(spec: &ChipSpec, home: &Self::Home) -> Option<SharerSet>;

    /// A write fill flagged `sba_write` completed (DiCo-Arin's third
    /// broadcast step).
    fn broadcast_write_done(f: &mut Family<Self>, ctx: &mut Ctx, tile: Tile, block: Block) {
        let _ = (f, ctx, tile, block);
        unreachable!("only DiCo-Arin broadcasts")
    }

    /// Messages only this policy exchanges.
    fn handle_other(f: &mut Family<Self>, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let _ = (f, ctx);
        Err(ProtoError::unexpected(Self::KIND, &msg))
    }

    /// The L1 of `tile` must not answer for `block` right now.
    fn blocked(&self, tile: Tile, block: Block) -> bool {
        let _ = (tile, block);
        false
    }

    /// No policy transaction is in flight.
    fn quiescent(&self) -> bool {
        true
    }

    /// Appends the policy's in-flight state at `tile` to a diagnostic dump.
    fn pending_summary(&self, tile: Tile, out: &mut String) {
        let _ = (tile, out);
    }
}

/// A DiCo-family protocol: the shared machinery over sharing policy `P`.
#[derive(Clone)]
pub struct Family<P: SharingPolicy> {
    pub(crate) spec: ChipSpec,
    pub(crate) stats: ProtoStats,
    pub(crate) authority: VersionAuthority,
    pub(crate) mem: MemoryImage,
    pub(crate) l1: Vec<SetAssoc<L1Line<P>>>,
    pub(crate) l1c: Vec<SetAssoc<Tile>>,
    pub(crate) mshr: Vec<Mshr<MshrEntry<P>>>,
    /// Per-L1 pending queues (owner busy with an upgrade or awaiting its
    /// Change_Owner ack).
    pub(crate) l1_queues: Vec<BlockQueues>,
    /// Blocks whose ownership we received from another L1 and whose
    /// Change_Owner ack is still outstanding.
    pub(crate) co_pending: Vec<FxHashSet<Block>>,
    /// Change_Owner acks that arrived before the data (network race).
    pub(crate) co_ack_early: Vec<FxHashSet<Block>>,
    /// Recently transferred-away blocks: new-owner tombstones.
    pub(crate) tombstones: Tombstones<Node>,
    pub(crate) l2: Vec<SetAssoc<L2Entry<P>>>,
    pub(crate) l2c: Vec<SetAssoc<Tile>>,
    pub(crate) home_queues: Vec<BlockQueues>,
    pub(crate) tx: Vec<FxHashMap<Block, HomeTx<P::Tx>>>,
    /// Requests that returned to the home while its owner pointer was
    /// provably stale; replayed on the next ownership update.
    pub(crate) bounce_hold: Vec<FxHashMap<Block, VecDeque<Msg>>>,
    pub(crate) pending_mem_writes: Vec<(Tile, Block)>,
    pub(crate) policy: P,
}

impl<P: SharingPolicy> Family<P> {
    /// Builds the protocol for `spec`.
    pub fn new(spec: ChipSpec) -> Self {
        let n = spec.tiles();
        Self {
            l1: (0..n).map(|_| SetAssoc::new(spec.l1)).collect(),
            l1c: (0..n).map(|_| SetAssoc::new(spec.aux)).collect(),
            mshr: (0..n).map(|_| Mshr::new(8)).collect(),
            l1_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            co_pending: vec![FxHashSet::default(); n],
            co_ack_early: vec![FxHashSet::default(); n],
            tombstones: Tombstones::new(n),
            l2: (0..n).map(|_| SetAssoc::new(spec.l2)).collect(),
            l2c: (0..n).map(|_| SetAssoc::new(spec.aux_home)).collect(),
            home_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            tx: (0..n).map(|_| FxHashMap::default()).collect(),
            bounce_hold: vec![FxHashMap::default(); n],
            pending_mem_writes: Vec::new(),
            policy: P::new(&spec),
            spec,
            stats: ProtoStats::default(),
            authority: VersionAuthority::default(),
            mem: MemoryImage::default(),
        }
    }

    // ----------------------------------------------------- small utils

    #[inline]
    pub(crate) fn home(&self, block: Block) -> Tile {
        self.spec.home_of(block)
    }

    /// Which sharing code `tile`'s entries index: its area, or the chip.
    #[inline]
    pub(crate) fn scope(&self, tile: Tile) -> usize {
        if P::AREAS {
            self.spec.area_of(tile)
        } else {
            0
        }
    }

    /// `tile`'s index in a sharing code of its scope.
    #[inline]
    pub(crate) fn idx(&self, tile: Tile) -> usize {
        if P::AREAS {
            self.spec.areas.local_index(tile)
        } else {
            tile
        }
    }

    /// The tile that index `i` of a sharing code of `scope` names.
    #[inline]
    pub(crate) fn member(&self, scope: usize, i: usize) -> Tile {
        if P::AREAS {
            self.spec.areas.tile_in_area(scope, i)
        } else {
            i
        }
    }

    /// Both tiles index the same sharing code.
    #[inline]
    fn same_scope(&self, a: Tile, b: Tile) -> bool {
        !P::AREAS || self.spec.area_of(a) == self.spec.area_of(b)
    }

    /// Chip tiles named by a sharing code of `scope`.
    fn members(&self, scope: usize, set: SharerSet) -> SharerSet {
        if P::AREAS {
            set.iter().map(|i| self.member(scope, i)).collect()
        } else {
            set
        }
    }

    pub(crate) fn send_req(
        &mut self,
        ctx: &mut Ctx,
        block: Block,
        src: Node,
        dst: Node,
        req: ReqInfo,
        delay: Cycle,
    ) {
        ctx.send(Msg { kind: MsgKind::Req(req), block, src, dst }, delay);
    }

    /// Sends `inv` (its `dst` is filled in) to every member of `set`.
    pub(crate) fn send_invs(
        &mut self,
        ctx: &mut Ctx,
        inv: Msg,
        scope: usize,
        set: SharerSet,
        delay: Cycle,
    ) {
        for i in set.iter() {
            self.stats.invalidations.inc();
            ctx.send(Msg { dst: Node::L1(self.member(scope, i)), ..inv }, delay);
        }
    }

    /// Invalidates every provider in `propos`; returns how many.
    pub(crate) fn send_provider_invs(
        &mut self,
        ctx: &mut Ctx,
        src: Node,
        block: Block,
        propos: &Propos,
        reply_to: Node,
    ) -> u32 {
        for p in propos.iter().flatten() {
            self.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::InvProvider { reply_to },
                    block,
                    src,
                    dst: Node::L1(*p as Tile),
                },
                self.spec.lat.l1_tag,
            );
        }
        propo_count(propos)
    }

    /// Supplier-identity hints to the members of `set` (Figure 5:
    /// predictions are refreshed when the ownership or providership
    /// moves).
    pub(crate) fn send_hints(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, set: SharerSet) {
        if !self.spec.enable_hints {
            return;
        }
        let scope = self.scope(tile);
        for i in set.iter() {
            ctx.send(
                Msg {
                    kind: MsgKind::Hint { supplier: tile },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(self.member(scope, i)),
                },
                self.spec.lat.l1_tag,
            );
        }
    }

    // --------------------------------------------------------- L1 side

    /// Prediction for the supplier of `block` at `tile` (L1C$ lookup).
    fn predict(&mut self, tile: Tile, block: Block) -> Option<Tile> {
        if !self.spec.enable_prediction {
            return None;
        }
        self.stats.l1c_access.inc();
        match self.l1c[tile].get_mut(block) {
            Some(&mut t) if t != tile => Some(t),
            _ => None,
        }
    }

    /// Records a supplier hint (line space first, else the L1C$ array).
    pub(crate) fn learn(&mut self, tile: Tile, block: Block, supplier: Tile) {
        if supplier == tile {
            return;
        }
        if let Some(line) = self.l1[tile].peek_mut(block) {
            if let L1State::Sharer { hint } = &mut line.state {
                *hint = Some(supplier);
                return;
            }
        }
        self.stats.l1c_access.inc();
        if let Some(p) = self.l1c[tile].get_mut(block) {
            *p = supplier;
        } else {
            self.l1c[tile].insert(block, supplier);
        }
    }

    fn start_miss(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, write: bool, upgrade: bool) {
        self.stats.l1_misses.inc();
        if write {
            self.stats.write_misses.inc();
        }
        // A sharer's line hint is the first prediction source.
        let line_hint = match self.l1[tile].peek(block).map(|l| &l.state) {
            Some(L1State::Sharer { hint }) => hint.filter(|&t| t != tile),
            _ => None,
        };
        let predicted = if upgrade || !self.spec.enable_prediction {
            None
        } else if line_hint.is_some() {
            self.stats.l1c_access.inc(); // embedded pointers are part of the L1C$
            line_hint
        } else {
            self.predict(tile, block)
        };
        self.mshr[tile].alloc(
            block,
            MshrEntry {
                write,
                issued_at: ctx.now,
                predicted,
                upgrade,
                have_data: upgrade,
                fill: None,
                fill_from: None,
                acks_needed: 0,
                provider_acks_needed: 0,
                pending_inv: None,
                policy: PhantomData,
            },
        );
        if upgrade {
            // In-place upgrade: we are the owner; invalidate our copies.
            let (acks, provider_acks) =
                self.invalidate_tracked(ctx, tile, block, P::FORGET_ON_UPGRADE);
            let e = self.mshr[tile].get_mut(block).expect("just allocated");
            e.acks_needed = acks;
            e.provider_acks_needed = provider_acks;
            self.l1_queues[tile].set_busy(block);
            return;
        }
        let dst = match predicted {
            Some(t) => Node::L1(t),
            None => Node::L2(self.home(block)),
        };
        self.send_req(
            ctx,
            block,
            Node::L1(tile),
            dst,
            ReqInfo {
                requestor: tile,
                write,
                forwarder: None,
                via_home: false,
                predicted: predicted.is_some(),
                vouched: false,
                hops: 0,
            },
            self.spec.lat.l1_tag,
        );
    }

    /// The owner writes in place: invalidates every copy its line
    /// tracks, acks to itself, and optionally forgets them. Returns the
    /// (sharer, provider) acks to collect.
    fn invalidate_tracked(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        forget: bool,
    ) -> (i64, i64) {
        let line = self.l1[tile].peek(block).expect("owner line");
        let (sharers, propos, version) = (line.sharers, line.propos, line.version);
        let me = Node::L1(tile);
        let inv = Msg { kind: MsgKind::Inv { reply_to: me, version }, block, src: me, dst: me };
        self.send_invs(ctx, inv, self.scope(tile), sharers, self.spec.lat.l1_tag);
        let providers = match propos.get() {
            Some(p) => self.send_provider_invs(ctx, me, block, p, me),
            None => 0,
        };
        if forget {
            let line = self.l1[tile].peek_mut(block).expect("owner line");
            line.sharers = SharerSet::EMPTY;
            line.propos = Default::default();
        }
        (sharers.len() as i64, providers as i64)
    }

    /// Our own roaming request reached us after an ownership transfer
    /// made us the owner: complete the miss in place. Reads finish
    /// immediately (the line is valid); writes convert to an in-place
    /// upgrade that invalidates the inherited copies.
    fn self_serve(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        let write = self.mshr[tile].get(block).map(|e| e.write).unwrap_or(false);
        if !write {
            let e = self.mshr[tile].release(block).expect("self-serve without MSHR");
            self.l1[tile].touch(block);
            self.stats.l1_data_read.inc();
            self.stats.record_miss(MissClass::UnpredictedForwarded, ctx.now - e.issued_at);
            ctx.complete(tile, block, self.spec.lat.l1_data);
            self.replay_l1_unless_co_pending(ctx, tile, block);
            return;
        }
        let (acks, provider_acks) = self.invalidate_tracked(ctx, tile, block, true);
        let e = self.mshr[tile].get_mut(block).expect("self-serve without MSHR");
        e.upgrade = true;
        e.have_data = true;
        e.acks_needed += acks;
        e.provider_acks_needed += provider_acks;
        self.l1_queues[tile].set_busy(block);
        self.try_complete(ctx, tile, block);
    }

    fn replay_l1(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        for m in self.l1_queues[tile].release(block) {
            ctx.replay(m);
        }
    }

    fn replay_l1_unless_co_pending(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        if !self.co_pending[tile].contains(&block) {
            self.replay_l1(ctx, tile, block);
        }
    }

    pub(crate) fn try_complete(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        let Some(e) = self.mshr[tile].get(block) else {
            return;
        };
        if !e.have_data || e.acks_needed != 0 || e.provider_acks_needed != 0 {
            return;
        }
        let e = self.mshr[tile].release(block).expect("checked");
        let lat = self.spec.lat;

        if e.upgrade {
            // Commit the in-place upgrade.
            let v = self.authority.commit(block);
            let line = self.l1[tile].peek_mut(block).expect("upgrade owner line");
            line.state = L1State::Owner { exclusive: true, dirty: true };
            line.sharers = SharerSet::EMPTY;
            line.propos = Default::default();
            line.version = v;
            self.stats.l1_data_write.inc();
            self.stats.record_miss(MissClass::PredictedOwnerHit, ctx.now - e.issued_at);
            ctx.complete(tile, block, lat.l1_data);
            self.replay_l1(ctx, tile, block);
            return;
        }

        let fill = e.fill.expect("have_data");
        let stale = e.pending_inv.map(|v| fill.version <= v).unwrap_or(false);
        let class = classify(&e, &fill);
        self.stats.record_miss(class, ctx.now - e.issued_at);

        if e.write {
            let v = self.authority.commit(block);
            let owner = L1State::Owner { exclusive: true, dirty: true };
            self.install_l1(ctx, tile, block, L1Line::new(owner, SharerSet::EMPTY, v));
            self.stats.l1_data_write.inc();
            if fill.sba_write {
                P::broadcast_write_done(self, ctx, tile, block);
            } else if fill.ownership
                && fill.supplier == Supplier::OwnerL1
                && !self.co_ack_early[tile].remove(&block)
            {
                // Wait for the home's Change_Owner ack before moving the
                // ownership again.
                self.co_pending[tile].insert(block);
                self.l1_queues[tile].set_busy(block);
            }
        } else if fill.ownership {
            let owner = L1State::Owner { exclusive: fill.exclusive, dirty: fill.dirty };
            let mut line =
                L1Line::<P>::new(owner, fill.sharers.without(self.idx(tile)), fill.version);
            line.propos.set(fill.propos);
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        } else if !stale {
            let state = if fill.make_provider {
                L1State::Provider
            } else {
                let hint = e.fill_from.map(|n| n.tile()).filter(|&t| t != tile);
                L1State::Sharer { hint }
            };
            self.install_l1(ctx, tile, block, L1Line::new(state, SharerSet::EMPTY, fill.version));
            self.stats.l1_data_write.inc();
        }
        // Home-supplied grants run under a busy flag at the home bank;
        // the Unblock releases it and commits the L2C$ owner pointer.
        if matches!(fill.supplier, Supplier::HomeL2 | Supplier::Memory) && !fill.sba_write {
            ctx.send(
                Msg {
                    kind: MsgKind::Unblock { became_owner: fill.ownership },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                0,
            );
        }
        ctx.complete(tile, block, lat.l1_data);
        self.replay_l1_unless_co_pending(ctx, tile, block);
    }

    fn install_l1(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line<P>) {
        // A fresh copy supersedes any stale hand-off note for the block.
        self.tombstones.forget(tile, block);
        if let Some(existing) = self.l1[tile].get_mut(block) {
            *existing = line;
            return;
        }
        let co = &self.co_pending[tile];
        let lq = &self.l1_queues[tile];
        let (victims, _overflow) =
            self.l1[tile].insert_filtered(block, line, |b| !co.contains(&b) && !lq.is_busy(b));
        for (vb, vline) in victims {
            self.evict_l1_line(ctx, tile, vb, vline);
        }
    }

    /// Replacements per paper Table II.
    fn evict_l1_line(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line<P>) {
        match line.state {
            L1State::Sharer { hint } => {
                // Silent data eviction; the supplier identity is retained
                // in the L1C$ for future two-hop misses (paper §IV-A2).
                if let Some(h) = hint {
                    self.stats.l1c_access.inc();
                    if let Some(p) = self.l1c[tile].get_mut(block) {
                        *p = h;
                    } else {
                        self.l1c[tile].insert(block, h);
                    }
                }
            }
            L1State::Provider => P::evict_provider(self, ctx, tile, block, line),
            L1State::Owner { dirty, .. } => {
                self.stats.l1_repl_transactions.inc();
                let propos = line.propos.get().copied().unwrap_or([None; MAX_AREAS]);
                let h = Handoff { dirty, version: line.version, propos };
                self.pass_ownership(ctx, tile, block, line.sharers, h, false);
            }
        }
    }

    /// Hands the ownership (plus sharing code and data) to the first
    /// sharer in `sharers`, or back to the home when there is none.
    /// `forwarding`: this cache silently dropped its copy and passes on a
    /// transfer it just received (paper §IV-A1); the message then keeps
    /// the target in its sharing code, as received. Updating our own
    /// tombstone keeps every forwarding pointer pointing forward in the
    /// ownership timeline (no chasing cycles).
    fn pass_ownership(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        sharers: SharerSet,
        h: Handoff,
        forwarding: bool,
    ) {
        let lat = self.spec.lat;
        let delay = if forwarding { lat.l1_tag } else { lat.l1_hit() };
        let Some(i) = sharers.first() else {
            let home = self.home(block);
            self.tombstones.set(tile, block, Node::L2(home));
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipToHome {
                        dirty: h.dirty,
                        version: h.version,
                        propos: h.propos,
                        sharers: SharerSet::EMPTY,
                        former_stays_provider: false,
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(home),
                },
                delay,
            );
            return;
        };
        let target = self.member(self.scope(tile), i);
        let rest = sharers.without(i);
        self.tombstones.set(tile, block, Node::L1(target));
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipTransfer {
                    sharers: if forwarding { sharers } else { rest },
                    propos: h.propos,
                    dirty: h.dirty,
                    version: h.version,
                    remaining: rest,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L1(target),
            },
            delay,
        );
    }

    pub(crate) fn is_owner(&self, tile: Tile, block: Block) -> bool {
        matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. }))
    }

    /// A request (predicted, home-forwarded, or chasing) arrives at an
    /// L1 — paper Table I, L1 rows.
    fn l1_handle_req(&mut self, ctx: &mut Ctx, tile: Tile, msg: Msg, req: ReqInfo) {
        self.stats.l1_tag.inc();
        let block = msg.block;
        let lat = self.spec.lat;

        // Our own request coming back. If an ownership transfer made us
        // the owner while it was roaming, it completes its MSHR here
        // (self-serve) — the single completion path guarantees a request
        // can never be served twice. Otherwise it is chasing a stale
        // owner pointer: send it home as a bounce (the home holds it
        // until the in-flight ownership update lands).
        if req.requestor == tile {
            let is_owner = self.is_owner(tile, block);
            if self.mshr[tile].contains(block) {
                if is_owner {
                    self.self_serve(ctx, tile, block);
                    return;
                }
            } else if is_owner {
                // Stale duplicate (already completed): nothing to do.
                return;
            }
            let home = Node::L2(self.home(block));
            let bounce = ReqInfo { forwarder: Some(tile), via_home: true, ..req };
            self.send_req(ctx, block, Node::L1(tile), home, bounce, lat.l1_tag);
            return;
        }

        if self.policy.blocked(tile, block) {
            self.l1_queues[tile].enqueue(msg);
            return;
        }

        match self.l1[tile].peek(block).map(|l| l.state) {
            Some(L1State::Owner { .. }) => {
                if self.l1_queues[tile].is_busy(block)
                    || (req.write && self.co_pending[tile].contains(&block))
                {
                    // Mid-upgrade or ownership not yet committed: wait.
                    self.l1_queues[tile].enqueue(msg);
                } else if req.write {
                    self.serve_write_as_owner(ctx, tile, block, req);
                } else if self.same_scope(tile, req.requestor) {
                    // Serve the read; the requestor becomes a sharer.
                    let i = self.idx(req.requestor);
                    let line = self.l1[tile].get_mut(block).expect("owner line");
                    line.sharers.insert(i);
                    if let L1State::Owner { exclusive, .. } = &mut line.state {
                        *exclusive = false;
                    }
                    let version = line.version;
                    self.stats.l1_data_read.inc();
                    ctx.send(
                        Msg {
                            kind: MsgKind::Data(DataInfo::shared(version, Supplier::OwnerL1)),
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(req.requestor),
                        },
                        lat.l1_hit(),
                    );
                } else {
                    P::owner_remote_read(self, ctx, tile, block, req);
                }
                return;
            }
            // A provider with its own write in flight is about to
            // invalidate its area: it must not hand out copies that the
            // imminent install would forget.
            Some(L1State::Provider)
                if !req.write
                    && self.same_scope(tile, req.requestor)
                    && !self.mshr[tile].contains(block) =>
            {
                P::provider_read(self, ctx, tile, block, req);
                return;
            }
            _ => {}
        }

        // Not the supplier. Park first: an in-flight transaction that
        // will make us the owner outranks any (possibly stale) hand-off
        // note.
        if let Some(e) = self.mshr[tile].get(block) {
            let ownership_incoming =
                (req.vouched && e.write) || e.fill.map(|f| f.ownership).unwrap_or(false);
            if ownership_incoming {
                self.l1_queues[tile].enqueue(msg);
                return;
            }
        }
        // Chase the hand-off note, bounded (DiCo's deadlock avoidance:
        // after MAX_CHASE_HOPS forwards the request falls back home).
        if req.hops < MAX_CHASE_HOPS {
            if let Some(next) = self.tombstones.get(tile, block) {
                let chase = ReqInfo { forwarder: Some(tile), hops: req.hops + 1, ..req };
                self.send_req(ctx, block, Node::L1(tile), next, chase, lat.l1_tag);
                return;
            }
        }
        // Fall back to the home (bounce).
        let home = Node::L2(self.home(block));
        let bounce = ReqInfo { forwarder: Some(tile), via_home: true, ..req };
        self.send_req(ctx, block, Node::L1(tile), home, bounce, lat.l1_tag);
    }

    /// We are the stable owner and a write request arrived: invalidate
    /// every tracked copy and move the ownership to the writer (paper
    /// Figure 4).
    fn serve_write_as_owner(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = self.spec.lat;
        let line = self.l1[tile].remove(block).expect("owner line");
        let mut invs = line.sharers;
        if self.same_scope(tile, req.requestor) {
            invs = invs.without(self.idx(req.requestor));
        }
        // Every provider is invalidated through InvProvider — including
        // the requestor itself when it is one: the paper's §IV-A special
        // case says the requestor-provider invalidates its area when it
        // receives "the ownership or an invalidation message"; the
        // explicit InvProvider also chases a providership hand-off that
        // may have left the requestor in the meantime.
        let acks_providers = line.propos.get().map_or(0, propo_count);
        self.stats.l1_data_read.inc();
        let writer = Node::L1(req.requestor);
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: invs.len(),
                    acks_providers,
                    dirty: line.dirty(),
                    ..DataInfo::shared(line.version, Supplier::OwnerL1)
                }),
                block,
                src: Node::L1(tile),
                dst: writer,
            },
            lat.l1_hit(),
        );
        // Invalidations from the old owner (it knows the sharers).
        let inv = Msg {
            kind: MsgKind::Inv { reply_to: writer, version: line.version },
            block,
            src: Node::L1(tile),
            dst: writer,
        };
        self.send_invs(ctx, inv, self.scope(tile), invs, lat.l1_tag);
        if let Some(p) = line.propos.get() {
            self.send_provider_invs(ctx, Node::L1(tile), block, p, writer);
        }
        // Register the new owner with the home.
        ctx.send(
            Msg {
                kind: MsgKind::ChangeOwner { new_owner: req.requestor },
                block,
                src: Node::L1(tile),
                dst: Node::L2(self.home(block)),
            },
            lat.l1_tag,
        );
        self.tombstones.set(tile, block, writer);
    }

    fn l1_handle_inv(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        reply_to: Node,
        version: u64,
    ) {
        self.stats.l1_tag.inc();
        if self.l1[tile].contains(block) {
            debug_assert!(
                !self.is_owner(tile, block),
                "invalidation reached an owner (tile {tile}, block {block:#x})"
            );
            self.l1[tile].remove(block);
        } else if let Some(e) = self.mshr[tile].get_mut(block) {
            if !e.write && !e.have_data {
                // A read fill may be in flight from the pre-write epoch.
                e.pending_inv = Some(e.pending_inv.map_or(version, |v| v.max(version)));
            }
        }
        // The collector of the acks is the next owner: remember it as the
        // supplier prediction (paper Figure 5).
        if let Node::L1(new_owner) = reply_to {
            self.learn(tile, block, new_owner);
        }
        ctx.send(
            Msg { kind: MsgKind::Ack, block, src: Node::L1(tile), dst: reply_to },
            self.spec.lat.l1_tag,
        );
    }

    fn l1_handle_transfer(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        sharers: SharerSet,
        h: Handoff,
    ) {
        self.stats.l1_tag.inc();
        // Receiving a transfer supersedes any stale hand-off note.
        self.tombstones.forget(tile, block);
        let lat = self.spec.lat;
        let mine = sharers.without(self.idx(tile));
        let owner = L1State::Owner {
            exclusive: mine.is_empty() && propo_count(&h.propos) == 0,
            dirty: h.dirty,
        };
        let change_owner = Msg {
            kind: MsgKind::ChangeOwner { new_owner: tile },
            block,
            src: Node::L1(tile),
            dst: Node::L2(self.home(block)),
        };
        // A tile with a miss outstanding and no line accepts the
        // ownership as a fresh line; its own roaming request completes
        // the MSHR when it returns (self-serve). Transfers never touch
        // MSHRs, so a request can never be satisfied twice.
        if !self.l1[tile].contains(block) && self.mshr[tile].contains(block) {
            let mut line = L1Line::<P>::new(owner, mine, h.version);
            line.propos.set(h.propos);
            self.install_l1(ctx, tile, block, line);
            if P::HINT_FRESH_OWNER {
                self.send_hints(ctx, tile, block, mine);
            }
            ctx.send(change_owner, lat.l1_tag);
            if !self.co_ack_early[tile].remove(&block) {
                self.co_pending[tile].insert(block);
            }
            return;
        }
        if let Some(line) = self.l1[tile].get_mut(block) {
            // A sharer (or provider) accepts the ownership; a provider
            // merges the area sharers it already tracks.
            line.state = owner;
            line.sharers |= mine;
            line.propos.set(h.propos);
            // Refresh the inherited sharers' predictions (Figure 5).
            self.send_hints(ctx, tile, block, mine);
            ctx.send(change_owner, lat.l1_tag);
            if !self.co_ack_early[tile].remove(&block) {
                self.co_pending[tile].insert(block);
                self.l1_queues[tile].set_busy(block);
            }
            return;
        }
        // We silently dropped our copy: pass the transfer along (paper
        // §IV-A1), or return the ownership to the home.
        self.pass_ownership(ctx, tile, block, mine, h, true);
    }

    fn l1_handle_recall(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        self.stats.l1_tag.inc();
        let home = self.home(block);
        let recall =
            Msg { kind: MsgKind::OwnershipRecall, block, src: Node::L2(home), dst: Node::L1(tile) };
        if !self.is_owner(tile, block) {
            // Ownership may be on its way to us (the home learned about
            // it through our Change_Owner before our data arrived): park
            // the recall; the completion replay honors it.
            if let Some(e) = self.mshr[tile].get(block) {
                if e.write || e.fill.map(|f| f.ownership).unwrap_or(false) {
                    self.l1_queues[tile].enqueue(recall);
                    return;
                }
            }
            ctx.send(
                Msg {
                    kind: MsgKind::RecallFailed,
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(home),
                },
                self.spec.lat.l1_tag,
            );
            return;
        }
        if self.l1_queues[tile].is_busy(block) || self.co_pending[tile].contains(&block) {
            // Owner but unstable: retry once we settle.
            self.l1_queues[tile].enqueue(recall);
            return;
        }
        P::surrender(self, ctx, tile, block);
    }

    pub(crate) fn l1_ack(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let tile = msg.dst.tile();
        let Some(e) = self.mshr[tile].get_mut(msg.block) else {
            return Err(ProtoError::new(
                P::KIND,
                msg.dst,
                msg.block,
                format!("invalidation ack without MSHR entry (from {:?})", msg.src),
            ));
        };
        e.acks_needed -= 1;
        self.try_complete(ctx, tile, msg.block);
        Ok(())
    }

    // -------------------------------------------------------- home side

    pub(crate) fn l2c_insert(&mut self, ctx: &mut Ctx, home: Tile, block: Block, owner: Tile) {
        self.stats.l2c_access.inc();
        if let Some(o) = self.l2c[home].get_mut(block) {
            *o = owner;
            return;
        }
        let hq = &self.home_queues[home];
        let (victims, _overflow) = self.l2c[home].insert_filtered(block, owner, |b| !hq.is_busy(b));
        for (vb, vo) in victims {
            // Recall the victim's ownership into the home (paper §IV-A1).
            self.home_queues[home].set_busy(vb);
            self.tx[home].insert(vb, HomeTx::Recall);
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipRecall,
                    block: vb,
                    src: Node::L2(home),
                    dst: Node::L1(vo),
                },
                self.spec.lat.l2_tag,
            );
        }
    }

    pub(crate) fn l2_insert(&mut self, ctx: &mut Ctx, home: Tile, block: Block, entry: L2Entry<P>) {
        self.stats.l2_data_write.inc();
        let hq = &self.home_queues[home];
        let (victims, _overflow) = self.l2[home].insert_filtered(block, entry, |b| !hq.is_busy(b));
        for (vb, ve) in victims {
            self.stats.l2_evictions.inc();
            P::evict_home(self, ctx, home, vb, ve);
        }
    }

    /// An L2 entry with no copies left leaves: dirty data is written
    /// back once the current handler finishes.
    pub(crate) fn write_back_later(&mut self, home: Tile, block: Block, dirty: bool, version: u64) {
        if dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, version);
            self.pending_mem_writes.push((home, block));
        }
    }

    /// An L2 eviction collected its last ack: the transaction ends and
    /// dirty data goes to memory.
    pub(crate) fn retire_eviction(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        dirty: bool,
        version: u64,
    ) {
        self.tx[home].remove(&block);
        if dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, version);
            ctx.mem_write(block, home, 0);
        }
    }

    /// The home hands the ownership to `to` with `data`, busy until the
    /// grantee's Unblock.
    pub(crate) fn home_grant(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        to: Tile,
        data: DataInfo,
    ) {
        ctx.send(
            Msg { kind: MsgKind::Data(data), block, src: Node::L2(home), dst: Node::L1(to) },
            self.spec.lat.l2_access(),
        );
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::Granting { to });
    }

    fn home_dispatch(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let lat = self.spec.lat;
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.stats.home_lookups.inc();
        if self.l2c[home].contains(block) {
            self.stats.home_hits.inc();
        }
        if let Some(&owner) = self.l2c[home].peek(block) {
            // A *vouched* request that bounced off the very cache our
            // pointer still names proves that cache lost the ownership
            // after we vouched for it — its loss notification (a
            // ChangeOwner or writeback) is guaranteed to be in flight,
            // so the request is held until it lands. Anything else is
            // (re-)forwarded with our vouch: the destination parks it if
            // its ownership is still en route.
            if req.vouched && req.forwarder == Some(owner) {
                self.bounce_hold[home]
                    .entry(block)
                    .or_default()
                    .push_back(Msg { kind: MsgKind::Req(req), ..msg });
                return;
            }
            let vouched = ReqInfo { via_home: true, vouched: true, hops: 0, ..req };
            self.send_req(ctx, block, Node::L2(home), Node::L1(owner), vouched, lat.l2_tag);
            return;
        }
        if self.l2[home].contains(block) {
            P::home_serve(self, ctx, home, msg, req);
            return;
        }
        // Uncached: fetch from memory.
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::MemFetch { req: msg });
        self.stats.mem_reads.inc();
        ctx.mem_read(block, home, lat.l2_tag);
    }

    /// Clears a replayed request's bounce markers: they predate the
    /// event that released it, so it re-evaluates from scratch.
    fn replay_fresh(ctx: &mut Ctx, mut m: Msg) {
        if let MsgKind::Req(ref mut r) = m.kind {
            r.via_home = false;
            r.forwarder = None;
            r.vouched = false;
        }
        ctx.replay(m);
    }

    /// Ends the home's busy period for `block` and replays what queued.
    pub(crate) fn release_home(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        for m in self.home_queues[home].release(block) {
            Self::replay_fresh(ctx, m);
        }
    }

    /// Replays the requests held while the owner pointer was stale.
    pub(crate) fn release_bounces(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        if let Some(q) = self.bounce_hold[home].remove(&block) {
            for m in q {
                Self::replay_fresh(ctx, m);
            }
        }
    }

    fn home_handle_unblock(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        src: Tile,
        became_owner: bool,
    ) {
        if let Some(HomeTx::Granting { to }) = self.tx[home].get(&block) {
            debug_assert_eq!(*to, src, "Unblock from a non-grantee");
            self.tx[home].remove(&block);
            if became_owner {
                self.l2c_insert(ctx, home, block, src);
            }
            self.release_home(ctx, home, block);
            self.release_bounces(ctx, home, block);
        }
        // Unblocks for superseded grants cannot occur: the grantee's
        // Unblock travels the same (src, dst) FIFO path as any later
        // message it could send about this block.
    }

    fn home_handle_memdata(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        let Some(HomeTx::MemFetch { req }) = self.tx[home].remove(&block) else {
            panic!("MemData without MemFetch");
        };
        let MsgKind::Req(req) = req.kind else { unreachable!() };
        let version = self.mem.version(block);
        // Data goes straight to the requestor, which becomes the
        // exclusive owner; the home records it in the L2C$ when the
        // requestor's Unblock commits the grant (no L2 copy).
        self.home_grant(
            ctx,
            home,
            block,
            req.requestor,
            DataInfo {
                exclusive: true,
                ownership: true,
                ..DataInfo::shared(version, Supplier::Memory)
            },
        );
    }

    fn home_handle_change_owner(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        new_owner: Tile,
    ) {
        self.stats.l2c_access.inc();
        let lat = self.spec.lat;
        let ack = Msg {
            kind: MsgKind::ChangeOwnerAck,
            block,
            src: Node::L2(home),
            dst: Node::L1(new_owner),
        };
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            // The ownership moved while we were recalling it: ack the new
            // owner and chase it with another recall.
            ctx.send(ack, lat.l2_tag);
            ctx.send(Msg { kind: MsgKind::OwnershipRecall, ..ack }, lat.l2_tag);
            self.release_bounces(ctx, home, block);
            return;
        }
        if let Some(o) = self.l2c[home].get_mut(block) {
            *o = new_owner;
        } else {
            self.l2c_insert(ctx, home, block, new_owner);
        }
        ctx.send(ack, lat.l2_tag);
        self.release_bounces(ctx, home, block);
    }

    /// The data and the ordering point come home (an owner writeback or
    /// DiCo-Arin's SBA transition); this also completes a pending recall.
    pub(crate) fn home_take_ownership(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        entry: L2Entry<P>,
    ) {
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        // The ownership is home now: drop the L2C$ pointer.
        self.l2c[home].remove(block);
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            self.tx[home].remove(&block);
            self.l2_insert(ctx, home, block, entry);
            self.release_home(ctx, home, block);
        } else {
            self.l2_insert(ctx, home, block, entry);
        }
        self.release_bounces(ctx, home, block);
    }

    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        let writes = std::mem::take(&mut self.pending_mem_writes);
        for (home, block) in writes {
            ctx.mem_write(block, home, 0);
        }
    }
}

fn classify<P>(e: &MshrEntry<P>, fill: &DataInfo) -> MissClass {
    match (e.predicted, fill.supplier) {
        (_, Supplier::Memory) => MissClass::Memory,
        (Some(p), Supplier::OwnerL1) if e.fill_from == Some(Node::L1(p)) => {
            MissClass::PredictedOwnerHit
        }
        (Some(p), Supplier::ProviderL1) if e.fill_from == Some(Node::L1(p)) => {
            MissClass::PredictedProviderHit
        }
        (Some(_), _) => MissClass::PredictionFailed,
        (None, Supplier::HomeL2) => MissClass::UnpredictedHome,
        (None, _) => MissClass::UnpredictedForwarded,
    }
}

impl<P: SharingPolicy> CoherenceProtocol for Family<P> {
    fn kind(&self) -> ProtocolKind {
        P::KIND
    }

    fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    fn core_access(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        write: bool,
    ) -> Result<AccessOutcome, ProtoError> {
        self.stats.accesses.inc();
        self.stats.l1_tag.inc();
        if self.mshr[tile].contains(block) {
            return Ok(AccessOutcome::Blocked { reason: BlockReason::MshrConflict });
        }
        if self.l1_queues[tile].is_busy(block) || self.policy.blocked(tile, block) {
            return Ok(AccessOutcome::Blocked { reason: BlockReason::BusyBlock });
        }
        enum Action {
            HitRead,
            HitWrite,
            Upgrade,
            Miss,
        }
        let action = match self.l1[tile].peek(block) {
            None => Action::Miss,
            Some(_) if !write => Action::HitRead,
            Some(line) => match line.state {
                L1State::Owner { exclusive: true, .. } => Action::HitWrite,
                // An owner whose copies are all gone writes in place.
                L1State::Owner { .. }
                    if line.sharers.is_empty()
                        && line.propos.get().is_none_or(|p| propo_count(p) == 0) =>
                {
                    Action::HitWrite
                }
                L1State::Owner { .. } => Action::Upgrade,
                L1State::Sharer { .. } | L1State::Provider => Action::Miss,
            },
        };
        let lat = self.spec.lat;
        let outcome = match action {
            Action::HitRead => {
                self.l1[tile].touch(block);
                self.stats.l1_data_read.inc();
                self.stats.l1_hits.inc();
                AccessOutcome::Hit { latency: lat.l1_hit() }
            }
            Action::HitWrite => {
                let v = self.authority.commit(block);
                let line = self.l1[tile].get_mut(block).expect("hit");
                line.version = v;
                line.state = L1State::Owner { exclusive: true, dirty: true };
                self.stats.l1_data_write.inc();
                self.stats.l1_hits.inc();
                AccessOutcome::Hit { latency: lat.l1_hit() }
            }
            Action::Upgrade | Action::Miss => {
                self.start_miss(ctx, tile, block, write, matches!(action, Action::Upgrade));
                self.drain_deferred(ctx);
                AccessOutcome::Miss
            }
        };
        Ok(outcome)
    }

    fn handle(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        match (msg.dst, msg.kind) {
            // ------------------------------------------------ L1 side
            (Node::L1(tile), MsgKind::Req(req)) => self.l1_handle_req(ctx, tile, msg, req),
            (Node::L1(tile), MsgKind::Data(d)) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        P::KIND,
                        msg.dst,
                        msg.block,
                        format!(
                            "data fill without MSHR entry ({:?} from {:?})",
                            d.supplier, msg.src
                        ),
                    ));
                };
                e.have_data = true;
                e.acks_needed += d.acks_sharers as i64;
                e.provider_acks_needed += d.acks_providers as i64;
                e.fill = Some(d);
                e.fill_from = Some(msg.src);
                if let Some(hint) = d.provider_hint {
                    self.learn(tile, msg.block, hint);
                }
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(_), MsgKind::Ack) => self.l1_ack(ctx, msg)?,
            (Node::L1(tile), MsgKind::Inv { reply_to, version }) => {
                self.l1_handle_inv(ctx, tile, msg.block, reply_to, version);
            }
            (
                Node::L1(tile),
                MsgKind::OwnershipTransfer { sharers, propos, dirty, version, .. },
            ) => {
                self.l1_handle_transfer(
                    ctx,
                    tile,
                    msg.block,
                    sharers,
                    Handoff { dirty, version, propos },
                );
            }
            (Node::L1(tile), MsgKind::OwnershipRecall) => {
                self.l1_handle_recall(ctx, tile, msg.block)
            }
            (Node::L1(tile), MsgKind::Hint { supplier }) => {
                self.stats.l1_tag.inc();
                self.learn(tile, msg.block, supplier);
            }
            (Node::L1(tile), MsgKind::ChangeOwnerAck) => {
                if self.co_pending[tile].remove(&msg.block) {
                    self.replay_l1(ctx, tile, msg.block);
                } else {
                    self.co_ack_early[tile].insert(msg.block);
                }
            }
            // ---------------------------------------------- home side
            (Node::L2(home), MsgKind::Req(req)) => {
                if self.home_queues[home].is_busy(msg.block) {
                    self.home_queues[home].enqueue(msg);
                } else {
                    self.home_dispatch(ctx, home, msg, req);
                }
            }
            (Node::L2(home), MsgKind::MemData) => self.home_handle_memdata(ctx, home, msg.block),
            (Node::L2(home), MsgKind::Unblock { became_owner }) => {
                self.home_handle_unblock(ctx, home, msg.block, msg.src.tile(), became_owner);
            }
            (Node::L2(home), MsgKind::ChangeOwner { new_owner }) => {
                self.home_handle_change_owner(ctx, home, msg.block, new_owner);
            }
            (Node::L2(home), MsgKind::OwnershipToHome { dirty, version, sharers, propos, .. }) => {
                let info = P::home_from_wb(&self.spec, msg.src.tile(), sharers, &propos);
                self.home_take_ownership(
                    ctx,
                    home,
                    msg.block,
                    L2Entry { dirty, version, home: info },
                );
            }
            // Either the ownership is moving (the pending ChangeOwner or
            // OwnershipToHome will restart or finish the recall), or the
            // recall already completed through a replacement writeback
            // that crossed this reply — ignore in both cases.
            (Node::L2(_), MsgKind::RecallFailed) => {}
            (Node::L2(home), MsgKind::Ack) => P::home_ack(self, ctx, home, msg)?,
            _ => P::handle_other(self, ctx, msg)?,
        }
        self.drain_deferred(ctx);
        Ok(())
    }

    fn stats(&self) -> &ProtoStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut ProtoStats {
        &mut self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ProtoStats::default();
    }

    fn quiescent(&self) -> bool {
        self.mshr.iter().all(|m| m.is_empty())
            && self.l1_queues.iter().all(|q| q.idle())
            && self.home_queues.iter().all(|q| q.idle())
            && self.tx.iter().all(|t| t.is_empty())
            && self.co_pending.iter().all(|s| s.is_empty())
            && self.policy.quiescent()
            && self.bounce_hold.iter().all(|b| b.values().all(|q| q.is_empty()))
    }

    fn clone_box(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.stats.save(w);
        self.authority.save(w);
        self.mem.save(w);
        self.l1.save(w);
        self.l1c.save(w);
        self.mshr.save(w);
        self.l1_queues.save(w);
        self.co_pending.save(w);
        self.co_ack_early.save(w);
        if P::STATE_FIRST {
            self.policy.save(w);
        }
        self.tombstones.save(w);
        if !P::STATE_FIRST {
            self.policy.save(w);
        }
        self.l2.save(w);
        self.l2c.save(w);
        self.home_queues.save(w);
        self.tx.save(w);
        self.bounce_hold.save(w);
        self.pending_mem_writes.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = Snap::load(r)?;
        self.authority = Snap::load(r)?;
        self.mem = Snap::load(r)?;
        self.l1 = Snap::load(r)?;
        self.l1c = Snap::load(r)?;
        self.mshr = Snap::load(r)?;
        self.l1_queues = Snap::load(r)?;
        self.co_pending = Snap::load(r)?;
        self.co_ack_early = Snap::load(r)?;
        if P::STATE_FIRST {
            self.policy = Snap::load(r)?;
        }
        self.tombstones = Snap::load(r)?;
        if !P::STATE_FIRST {
            self.policy = Snap::load(r)?;
        }
        self.l2 = Snap::load(r)?;
        self.l2c = Snap::load(r)?;
        self.home_queues = Snap::load(r)?;
        self.tx = Snap::load(r)?;
        self.bounce_hold = Snap::load(r)?;
        self.pending_mem_writes = Snap::load(r)?;
        Ok(())
    }

    fn occupancy(&self) -> Occupancy {
        let (l1_lines, l1_capacity) = occupancy_of(&self.l1);
        let (l2_lines, l2_capacity) = occupancy_of(&self.l2);
        let (c1, cap1) = occupancy_of(&self.l1c);
        let (c2, cap2) = occupancy_of(&self.l2c);
        Occupancy {
            l1_lines,
            l1_capacity,
            l2_lines,
            l2_capacity,
            aux_lines: c1 + c2,
            aux_capacity: cap1 + cap2,
        }
    }

    fn pending_summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for t in 0..self.spec.tiles() {
            for (b, e) in self.mshr[t].iter() {
                let _ = write!(
                    out,
                    "tile {t} MSHR block {b:#x}: write={} have_data={} acks={} ",
                    e.write, e.have_data, e.acks_needed
                );
                if <P::LinePropos as ProposSlot>::PRESENT {
                    let _ = write!(out, "packs={} ", e.provider_acks_needed);
                }
                let _ = writeln!(out, "upgrade={}", e.upgrade);
            }
            if !self.l1_queues[t].idle() {
                let _ = writeln!(
                    out,
                    "tile {t} l1_queue busy: {} blocks",
                    self.l1_queues[t].busy_count()
                );
            }
            let mut co: Vec<Block> = self.co_pending[t].iter().copied().collect();
            co.sort_unstable();
            for b in co {
                let _ = writeln!(out, "tile {t} co_pending block {b:#x}");
            }
            self.policy.pending_summary(t, &mut out);
            for (b, n) in self.l1_queues[t].pending_counts() {
                let _ = writeln!(
                    out,
                    "tile {t} l1_queue block {b:#x}: {n} msgs (busy={})",
                    self.l1_queues[t].is_busy(b)
                );
            }
            let mut txs: Vec<(Block, &HomeTx<P::Tx>)> =
                self.tx[t].iter().map(|(b, x)| (*b, x)).collect();
            txs.sort_unstable_by_key(|&(b, _)| b);
            for (b, tx) in txs {
                let _ = writeln!(out, "home {t} tx block {b:#x}: {tx:?}");
            }
            if !self.home_queues[t].idle() {
                let _ = writeln!(
                    out,
                    "home {t} queue busy: {} blocks",
                    self.home_queues[t].busy_count()
                );
            }
            let mut holds: Vec<(Block, usize)> = self.bounce_hold[t]
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(b, q)| (*b, q.len()))
                .collect();
            holds.sort_unstable();
            for (b, n) in holds {
                let _ = writeln!(out, "home {t} bounce_hold block {b:#x}: {n} msgs");
            }
        }
        out
    }

    fn l1_copies(&self, block: Block, out: &mut Vec<(Tile, CopyView)>) {
        out.clear();
        out.extend(
            self.l1.iter().enumerate().filter_map(|(t, l1)| l1.peek(block).map(|l| (t, l.view()))),
        );
    }

    fn snapshot(&self) -> ChipSnapshot {
        let mut snap = ChipSnapshot::new(self.spec.tiles());
        for (t, l1) in self.l1.iter().enumerate() {
            for (block, line) in l1.iter() {
                snap.l1[t].insert(block, line.view());
            }
        }
        for (home, bank) in self.l2.iter().enumerate() {
            for (block, e) in bank.iter() {
                snap.l2.insert(
                    block,
                    L2View {
                        has_data: true,
                        version: e.version,
                        dirty: e.dirty,
                        owner_in_l1: None,
                    },
                );
            }
            for (block, &o) in self.l2c[home].iter() {
                snap.l2.entry(block).or_insert(L2View {
                    has_data: false,
                    version: 0,
                    dirty: false,
                    owner_in_l1: Some(o),
                });
            }
        }
        for (b, v) in self.authority.iter() {
            snap.authority.insert(*b, *v);
            snap.memory.insert(*b, self.mem.version(*b));
        }
        // Coverage: an owner (and a DiCo-Providers provider) names itself
        // plus its sharing code and ProPos; the home names what its entry
        // tracks. Blocks tracked by broadcast are left out.
        for (t, l1) in self.l1.iter().enumerate() {
            for (block, line) in l1.iter() {
                let tracks = match line.state {
                    L1State::Owner { .. } => true,
                    L1State::Provider => P::PROVIDERS_TRACK,
                    L1State::Sharer { .. } => false,
                };
                if !tracks {
                    continue;
                }
                let mut bits = SharerSet::only(t) | self.members(self.scope(t), line.sharers);
                if let (L1State::Owner { .. }, Some(p)) = (line.state, line.propos.get()) {
                    bits |= p.iter().flatten().map(|&p| p as Tile).collect();
                }
                *snap.recorded.entry(block).or_default() |= bits;
            }
        }
        let mut broadcast = Vec::new();
        for bank in &self.l2 {
            for (block, e) in bank.iter() {
                match P::home_coverage(&self.spec, &e.home) {
                    Some(bits) => *snap.recorded.entry(block).or_default() |= bits,
                    None => broadcast.push(block),
                }
            }
        }
        for b in broadcast {
            snap.recorded.remove(&b);
        }
        snap
    }
}
