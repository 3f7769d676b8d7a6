//! Root-presorted event columns and zero-copy view partitioning.
//!
//! The classic SPRINT/C4.5 presorting idea applied to UDT's fractional
//! tuples: every numerical attribute's pdf sample points are flattened
//! into one sorted column **once at the root** ([`build_root`]), and
//! those [`RootColumns`] are **immutable** for the rest of the build.
//! The presort is one linear-time pass per attribute: a stable LSD radix
//! sort (11-bit digits, uniform digits skipped) over `(u64 total-order
//! key, source index)` pairs, where the key folds `-0.0` onto `+0.0` so
//! ties keep the order a stable comparator sort would give, and the
//! column's `(x, tuple, mass)` arrays are then copied from the gathered
//! source by index — stored bits are the sample points' own. Tree
//! recursion never rewrites the root columns; a node is described by
//!
//! * a sparse list of alive tuples with their fractional weights
//!   ([`NodeTuples::alive`] / [`NodeTuples::weights`]), and
//! * per attribute, a [`ColumnState`]: the surviving root event ids plus
//!   a sparse per-tuple *pdf scale factor* — the reciprocal of the kept
//!   pdf fraction accumulated over every ancestor split on that
//!   attribute.
//!
//! An event's current mass is reconstructed on the fly as
//! `root_mass[e] * scale[tuple_of[e]]` (the renormalisation of
//! [`udt_prob::SampledPdf::split_at`], deferred to consumption time).
//! A child's column is just the list of surviving root event ids (`4`
//! bytes per event); positions, owner tuples and masses are read through
//! the shared root columns. A depth-`d` build therefore moves `O(d)`
//! *event ids* per root event rather than copies of the
//! `(x, tuple, mass)` triple, and parallel subtree workers share the
//! immutable root instead of cloning mass vectors.
//!
//! Splitting on attribute `a` at `z` sends each event of column `a` to
//! the side its position lies on, divides the per-tuple scale by the
//! tuple's kept fraction `p` / `1 − p`, keeps every other column's events
//! wherever the tuple retains weight (scales unchanged), and multiplies
//! tuple weights by their side fractions.
//!
//! Per-node work is `O(events at the node)` for the column walks and
//! `O(alive tuples)` for the weight bookkeeping — no sorting, no dense
//! root-sized child vectors: the per-*tuple* working arrays live in a
//! [`Scratch`] reused across the whole recursion, and child weight
//! vectors are sparse `(tuple, weight)` pairs over the node's live
//! tuples, so deep narrow nodes no longer pay root-sized zeroing costs.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use crate::counts::WEIGHT_EPSILON;
use crate::events::{AttributeEvents, BufferPool};
use crate::fractional::FractionalTuple;
use crate::pool::WorkerPool;
use crate::split::SearchStats;
use udt_obs::trace;

/// One attribute's root event column: parallel arrays sorted by position,
/// built once and immutable thereafter.
#[derive(Debug, Clone)]
pub struct AttrColumn {
    /// The attribute index this column belongs to.
    pub attribute: usize,
    /// Event positions, ascending.
    pub xs: Vec<f64>,
    /// Event owner tuples (indices into the root tuple array).
    pub tuple: Vec<u32>,
    /// Event pdf masses as sampled at the root (they sum to ≈1 per
    /// tuple). Never rescaled — domain restrictions are carried by the
    /// per-node [`ColumnState::scales`] instead.
    pub mass: Vec<f64>,
    /// Precomputed end-point position indices for the unit fast path —
    /// `Some` iff every event clears the mass gate at unit weight/scale
    /// and all positions are distinct, in which case a node that keeps
    /// every event at weight exactly 1 and no scales (the root, always)
    /// shares this tree-invariant end-point structure and its cumulative
    /// matrix can be built by the gate-free fused loop
    /// (`build_events_unit_fast`).
    pub(crate) unit_fast: Option<Vec<usize>>,
}

impl AttrColumn {
    /// Number of events in the column.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the column holds no events.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The immutable per-attribute root columns shared by every node of a
/// build (and by every subtree worker on the build pool).
#[derive(Debug, Clone)]
pub struct RootColumns {
    /// One column per numerical attribute, in the builder's numerical
    /// attribute order.
    pub columns: Vec<AttrColumn>,
}

impl RootColumns {
    /// The first column, in attribute order, holding a position that is
    /// not finite, as `(attribute, owner tuple, position)`. The presort's
    /// key sorts every such position to a column end (NaNs with the sign
    /// bit set and `-inf` first, `+inf` and other NaNs last), so two
    /// events per column are all this has to look at.
    pub(crate) fn first_non_finite(&self) -> Option<(usize, usize, f64)> {
        self.columns.iter().find_map(|col| {
            let e = [0, col.len().saturating_sub(1)]
                .into_iter()
                .find(|&e| col.xs.get(e).is_some_and(|x| !x.is_finite()))?;
            Some((col.attribute, col.tuple[e] as usize, col.xs[e]))
        })
    }
}

/// One attribute's state at one node: the surviving root event ids plus
/// the sparse per-tuple pdf scale factors accumulated by ancestor splits
/// on this attribute.
#[derive(Debug, Clone)]
pub struct ColumnState {
    /// `(tuple, scale)` pairs, ascending by tuple; tuples absent from the
    /// list have scale exactly 1. An event's current mass is
    /// `root_mass * scale`.
    pub scales: Vec<(u32, f64)>,
    /// Surviving root event ids, ascending: indices into the root
    /// column's arrays.
    pub events: Vec<u32>,
}

impl ColumnState {
    /// Number of surviving events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events survive.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Visits every surviving event in ascending position order as
    /// `(position, owner tuple, root mass)`. The mass is the **root**
    /// mass; callers apply the per-tuple scale themselves.
    #[inline]
    pub fn for_each_event(&self, root: &AttrColumn, mut f: impl FnMut(f64, u32, f64)) {
        if self.events.len() == root.xs.len() {
            // Event ids are a strictly increasing subset of `0..root len`,
            // so a full-length column is the identity (true of every root
            // column): walk the root arrays directly, without the
            // per-event indirection.
            for ((&x, &t), &m) in root.xs.iter().zip(&root.tuple).zip(&root.mass) {
                f(x, t, m);
            }
        } else {
            for &e in &self.events {
                let e = e as usize;
                f(root.xs[e], root.tuple[e], root.mass[e]);
            }
        }
    }

    /// The scale factor of tuple `t` (1 when the tuple's pdf has not been
    /// restricted on this attribute). Binary search — intended for tests
    /// and diagnostics; the hot paths load the scales into a dense
    /// [`Scratch`] array instead.
    pub fn scale_of(&self, t: u32) -> f64 {
        match self.scales.binary_search_by_key(&t, |&(tuple, _)| tuple) {
            Ok(i) => self.scales[i].1,
            Err(_) => 1.0,
        }
    }

    /// Visits every surviving event as `(position, owner tuple, scaled
    /// mass)` — the node-local view of the column, for tests and
    /// diagnostics.
    pub fn for_each_scaled(&self, root: &AttrColumn, mut f: impl FnMut(f64, u32, f64)) {
        self.for_each_event(root, |x, t, m| f(x, t, m * self.scale_of(t)));
    }

    /// Heap bytes backing this column state (capacities, i.e. what the
    /// allocator actually handed out).
    pub fn heap_bytes(&self) -> u64 {
        (self.scales.capacity() * std::mem::size_of::<(u32, f64)>()
            + self.events.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// The per-node tuple state threaded through recursion. All vectors are
/// sparse over the node's live tuples — nothing here is sized to the
/// root tuple count.
#[derive(Debug, Clone)]
pub struct NodeTuples {
    /// Tuples with non-negligible weight, ascending.
    pub alive: Vec<u32>,
    /// Fractional weights, parallel to `alive`.
    pub weights: Vec<f64>,
    /// One state per numerical attribute (same order as the builder's
    /// numerical attribute list / the [`RootColumns`]).
    pub columns: Vec<ColumnState>,
}

impl NodeTuples {
    /// Heap bytes backing this node's partition state (capacities) — the
    /// quantity the partition-traffic instrumentation accumulates. The
    /// partition functions shrink every child vector to fit before
    /// accounting, so this reflects surviving data, not the parent-sized
    /// buffers the filters started from.
    pub fn heap_bytes(&self) -> u64 {
        (self.alive.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f64>()) as u64
            + self
                .columns
                .iter()
                .map(ColumnState::heap_bytes)
                .sum::<u64>()
    }

    /// Shrinks every backing vector to its length. Child states are
    /// built by filtering parent-capacity buffers; without this, a
    /// skewed split would pin a parent-sized buffer for the whole
    /// lifetime of a nearly-empty subtree, making worst-case resident
    /// memory O(depth × root events) instead of O(Σ node sizes).
    fn shrink_to_fit(&mut self) {
        self.alive.shrink_to_fit();
        self.weights.shrink_to_fit();
        for column in &mut self.columns {
            column.scales.shrink_to_fit();
            column.events.shrink_to_fit();
        }
    }
}

/// Reusable per-tuple scratch buffers (all sized to the root tuple
/// count), so the recursion's *working* passes never allocate per-tuple
/// arrays per node. Dense arrays obey a load/use/unload discipline: they
/// are all-zero (or all-one for `scale`) between uses, and resets walk
/// only the entries that were touched.
#[derive(Debug)]
pub struct Scratch {
    /// Mass at or below the split point per tuple (pass 1), then the
    /// tuple's left kept-fraction `p` (pass 2 onward).
    left_mass: Vec<f64>,
    /// Mass above the split point per tuple, then the right fraction.
    right_mass: Vec<f64>,
    /// Left-child tuple weights during one partition call.
    left_w: Vec<f64>,
    /// Right-child tuple weights during one partition call.
    right_w: Vec<f64>,
    /// The current node's tuple weights, loaded from the sparse
    /// [`NodeTuples`] lists (0 for tuples absent from the node).
    weight: Vec<f64>,
    /// The current column's per-tuple pdf scale (default 1).
    scale: Vec<f64>,
    /// Position index (into the structure being built) of the first
    /// surviving event per tuple in the current column.
    lo_idx: Vec<u32>,
    /// Position index of the last surviving event per tuple.
    hi_idx: Vec<u32>,
    /// Whether the tuple has been touched in the current pass.
    seen: Vec<bool>,
    /// Touched tuples, for cheap resets.
    touched: Vec<u32>,
    /// Reusable running per-class totals (`n_classes`-sized).
    running: Vec<f64>,
    /// Whether every weight loaded by [`load_weights`](Self::load_weights)
    /// was exactly 1.0 — one precondition of the unit fast path.
    unit_weights: bool,
}

impl Scratch {
    /// Creates scratch buffers for `n_tuples` root tuples.
    pub fn new(n_tuples: usize) -> Scratch {
        Scratch {
            left_mass: vec![0.0; n_tuples],
            right_mass: vec![0.0; n_tuples],
            left_w: vec![0.0; n_tuples],
            right_w: vec![0.0; n_tuples],
            weight: vec![0.0; n_tuples],
            scale: vec![1.0; n_tuples],
            lo_idx: vec![0; n_tuples],
            hi_idx: vec![0; n_tuples],
            seen: vec![false; n_tuples],
            touched: Vec::with_capacity(n_tuples),
            running: Vec::new(),
            unit_weights: false,
        }
    }

    /// Root tuple count these buffers were sized for.
    pub fn n_tuples(&self) -> usize {
        self.weight.len()
    }

    /// Loads the node's sparse weights into the dense `weight` array.
    /// Callers must pair this with [`unload_weights`](Self::unload_weights)
    /// on the same node before reusing the scratch for another node.
    pub fn load_weights(&mut self, node: &NodeTuples) {
        for (&t, &w) in node.alive.iter().zip(&node.weights) {
            self.weight[t as usize] = w;
        }
        self.unit_weights = node.weights.iter().all(|&w| w == 1.0);
    }

    /// Clears the dense weights loaded from `node`.
    pub fn unload_weights(&mut self, node: &NodeTuples) {
        for &t in &node.alive {
            self.weight[t as usize] = 0.0;
        }
        self.unit_weights = false;
    }

    /// Loads a column's sparse scales into the dense `scale` array.
    fn load_scales(&mut self, scales: &[(u32, f64)]) {
        for &(t, s) in scales {
            self.scale[t as usize] = s;
        }
    }

    /// Resets the dense scales loaded from `scales` back to 1.
    fn unload_scales(&mut self, scales: &[(u32, f64)]) {
        for &(t, _) in scales {
            self.scale[t as usize] = 1.0;
        }
    }

    fn reset_touched(&mut self) {
        for &t in &self.touched {
            self.seen[t as usize] = false;
            self.left_mass[t as usize] = 0.0;
            self.right_mass[t as usize] = 0.0;
            self.left_w[t as usize] = 0.0;
            self.right_w[t as usize] = 0.0;
        }
        self.touched.clear();
    }
}

thread_local! {
    /// Per-thread cache of [`Scratch`] buffers for pool tasks. A stack
    /// (not a single slot) so nested pool work on one thread — a
    /// subtree job helping with another node's event fan-out — pops a
    /// distinct scratch instead of aliasing the one in use.
    static SCRATCH_CACHE: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-cached [`Scratch`] sized for at least
/// `n_tuples` root tuples. Pool workers call this once per task, so
/// steady-state parallel building allocates no per-task scratch; the
/// cache lives as long as the (persistent) worker thread. A cached
/// scratch is only reused while its size is within 4× of the request
/// (with a small absolute floor) — within one build every request has
/// the same `n_tuples`, so reuse is perfect, while a long-lived process
/// that once built a huge model does not pin huge buffers on every
/// pool thread forever once its workloads shrink.
pub(crate) fn with_scratch<R>(n_tuples: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    let reuse_cap = n_tuples.saturating_mul(4).max(4096);
    let mut scratch = SCRATCH_CACHE
        .with(|cache| cache.borrow_mut().pop())
        .filter(|s| s.n_tuples() >= n_tuples && s.n_tuples() <= reuse_cap)
        .unwrap_or_else(|| Scratch::new(n_tuples));
    let result = f(&mut scratch);
    // On panic inside `f` the scratch is simply dropped — a possibly
    // dirty buffer must not be returned to the cache.
    SCRATCH_CACHE.with(|cache| cache.borrow_mut().push(scratch));
    result
}

/// Tuples with non-negligible weight, ascending — the shared alive list
/// every root column is built over.
fn alive_tuples(tuples: &[FractionalTuple]) -> Vec<u32> {
    tuples
        .iter()
        .enumerate()
        .filter(|(_, tuple)| tuple.weight > WEIGHT_EPSILON)
        .map(|(t, _)| t as u32)
        .collect()
}

/// The presort's working buffers, reused from one attribute to the next
/// within one presort call and dropped when it returns.
#[derive(Default)]
struct Presort {
    /// Gathered `(position, owner tuple, mass)` per event, in gather
    /// order (ascending tuple, then pdf order).
    source: Vec<(f64, u32, f64)>,
    /// `(sort key, index into source)` per event.
    keyed: Vec<(u64, u32)>,
    /// The radix sort's second buffer.
    spare: Vec<(u64, u32)>,
}

impl Presort {
    /// Builds one attribute's sorted root event column — the
    /// per-attribute unit of the root presort, independent of every
    /// other attribute and therefore freely parallel.
    fn column(
        &mut self,
        tuples: &[FractionalTuple],
        alive: &[u32],
        attribute: usize,
    ) -> AttrColumn {
        let (xs, tuple, mass) = self.sorted_events(tuples, alive, attribute, radix_key);
        let _unit_fast_span = trace::span("presort.unit_fast", "presort");
        let unit_fast = unit_fast_structure(&xs, &tuple, &mass, tuples.len());
        AttrColumn {
            attribute,
            xs,
            tuple,
            mass,
            unit_fast,
        }
    }

    /// The presorted `(xs, tuple, mass)` arrays of one attribute: every
    /// alive tuple's sample points gathered into the source buffer,
    /// ordered by the stable [`radix_order`] over `key`, and copied from
    /// the source by index into exactly reserved arrays — so stored bits
    /// are the sample points' own (`-0.0` included) and equal keys keep
    /// gather order, exactly as a stable comparator sort leaves them.
    /// `key` is [`radix_key`] outside tests.
    fn sorted_events(
        &mut self,
        tuples: &[FractionalTuple],
        alive: &[u32],
        attribute: usize,
        key: impl Fn(f64) -> u64,
    ) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
        let gather_span = trace::span("presort.gather", "presort");
        let pdfs = || {
            alive.iter().filter_map(move |&t| {
                tuples[t as usize].values[attribute]
                    .as_numeric()
                    .map(|pdf| (t, pdf))
            })
        };
        let n_events: usize = pdfs().map(|(_, pdf)| pdf.len()).sum();
        let Presort {
            source,
            keyed,
            spare,
        } = self;
        source.clear();
        source.reserve_exact(n_events);
        keyed.clear();
        keyed.reserve_exact(n_events);
        for (t, pdf) in pdfs() {
            for (x, m) in pdf.iter() {
                keyed.push((key(x), source.len() as u32));
                source.push((x, t, m));
            }
        }
        drop(gather_span);

        let _sort_span = trace::span("presort.sort", "presort");
        radix_order(keyed, spare);
        let mut xs = Vec::with_capacity(n_events);
        let mut tuple = Vec::with_capacity(n_events);
        let mut mass = Vec::with_capacity(n_events);
        for &(_, i) in keyed.iter() {
            let (x, t, m) = source[i as usize];
            xs.push(x);
            tuple.push(t);
            mass.push(m);
        }
        (xs, tuple, mass)
    }
}

/// Digit width of the presort's LSD radix sort: 11 bits, so six passes
/// cover a 64-bit key and each pass's 2048 counters stay in L1.
const RADIX_BITS: u32 = 11;
/// Buckets per radix pass.
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;
/// Passes needed to cover a 64-bit key.
const RADIX_PASSES: usize = 64_usize.div_ceil(RADIX_BITS as usize);

/// The presort's unsigned sort key of a sample point: ascending keys are
/// ascending positions (the IEEE total order: negative values with all
/// bits flipped, non-negative ones with the sign bit set). `-0.0` folds
/// onto `+0.0` first — the two compare equal, so they must share a key
/// for the stable sort to keep them in gather order. Non-finite points
/// sort to the ends, where [`RootColumns::first_non_finite`] finds them.
#[inline]
fn radix_key(x: f64) -> u64 {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Stable LSD radix sort of `(key, source index)` pairs by key, 11-bit
/// digits, with `spare` as the second buffer. One counting pass builds
/// every digit's histogram up front; a pass whose digit is the same for
/// every key would move nothing and is skipped.
fn radix_order(items: &mut Vec<(u64, u32)>, spare: &mut Vec<(u64, u32)>) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let mut counts = [[0u32; RADIX_BUCKETS]; RADIX_PASSES];
    for &(key, _) in items.iter() {
        for (pass, hist) in counts.iter_mut().enumerate() {
            hist[radix_digit(key, pass)] += 1;
        }
    }
    spare.clear();
    spare.resize(n, (0, 0));
    for (pass, hist) in counts.iter_mut().enumerate() {
        if hist[radix_digit(items[0].0, pass)] as usize == n {
            continue;
        }
        let mut offset = 0u32;
        for count in hist.iter_mut() {
            let c = *count;
            *count = offset;
            offset += c;
        }
        for &item in items.iter() {
            let slot = &mut hist[radix_digit(item.0, pass)];
            spare[*slot as usize] = item;
            *slot += 1;
        }
        std::mem::swap(items, spare);
    }
}

/// Digit `pass` (least significant first) of a radix key.
#[inline]
fn radix_digit(key: u64, pass: usize) -> usize {
    ((key >> (pass as u32 * RADIX_BITS)) as usize) & (RADIX_BUCKETS - 1)
}

/// Precomputes [`AttrColumn::unit_fast`]: `Some(end-point position
/// indices)` iff the fused construction loop over this column with every
/// weight and scale exactly 1 would open a new position for every event
/// and gate none out — i.e. all sample points are distinct and every
/// mass clears `WEIGHT_EPSILON`. Under those preconditions position `p`
/// *is* event `p`, so the per-tuple end points are the tuples'
/// first/last event indices — a tree-invariant worth computing once at
/// the root presort.
fn unit_fast_structure(
    xs: &[f64],
    tuple: &[u32],
    mass: &[f64],
    n_tuples: usize,
) -> Option<Vec<usize>> {
    if xs.is_empty() {
        return None;
    }
    let mut last = f64::NAN;
    for (&x, &m) in xs.iter().zip(mass) {
        if m <= WEIGHT_EPSILON || x == last {
            return None;
        }
        last = x;
    }
    let mut lo = vec![u32::MAX; n_tuples];
    let mut hi = vec![0u32; n_tuples];
    for (e, &t) in tuple.iter().enumerate() {
        let t = t as usize;
        if lo[t] == u32::MAX {
            lo[t] = e as u32;
        }
        hi[t] = e as u32;
    }
    let mut end: Vec<usize> = lo
        .iter()
        .zip(&hi)
        .filter(|&(&l, _)| l != u32::MAX)
        .flat_map(|(&l, &h)| [l as usize, h as usize])
        .collect();
    end.sort_unstable();
    end.dedup();
    Some(end)
}

/// Builds the immutable [`RootColumns`]: per-attribute event columns
/// sorted once — one stable radix pass per attribute; recursion below
/// only partitions. Sequential convenience over [`build_root_with`].
pub fn build_root(tuples: &[FractionalTuple], numerical: &[usize]) -> RootColumns {
    let alive = alive_tuples(tuples);
    let mut presort = Presort::default();
    RootColumns {
        columns: numerical
            .iter()
            .map(|&attribute| presort.column(tuples, &alive, attribute))
            .collect(),
    }
}

/// Builds the immutable [`RootColumns`] with the per-attribute presort
/// fanned out across `pool`, one task per attribute. A task takes a set
/// of working buffers another task has finished with, so the presort
/// allocates about one set per participating thread rather than one per
/// attribute. The columns come back in attribute order and each
/// column's construction is independent, so the result is bit-identical
/// to [`build_root`] at every thread count.
pub fn build_root_with(
    tuples: &[FractionalTuple],
    numerical: &[usize],
    pool: &WorkerPool,
) -> RootColumns {
    let alive = alive_tuples(tuples);
    let idle: Mutex<Vec<Presort>> = Mutex::new(Vec::new());
    RootColumns {
        columns: pool.map(numerical.len(), |slot| {
            let mut presort = idle
                .lock()
                .expect("presort buffers lock")
                .pop()
                .unwrap_or_default();
            let column = presort.column(tuples, &alive, numerical[slot]);
            idle.lock().expect("presort buffers lock").push(presort);
            column
        }),
    }
}

/// Builds the root [`NodeTuples`] over the given root columns: every
/// tuple with non-negligible weight is alive, no scales, and each column
/// is the identity view of its root column.
pub fn root_state(tuples: &[FractionalTuple], root: &RootColumns) -> NodeTuples {
    let mut alive = Vec::with_capacity(tuples.len());
    let mut weights = Vec::with_capacity(tuples.len());
    for (t, tuple) in tuples.iter().enumerate() {
        if tuple.weight > WEIGHT_EPSILON {
            alive.push(t as u32);
            weights.push(tuple.weight);
        }
    }
    let columns = root
        .columns
        .iter()
        .map(|col| ColumnState {
            scales: Vec::new(),
            events: (0..col.len() as u32).collect(),
        })
        .collect();
    let mut state = NodeTuples {
        alive,
        weights,
        columns,
    };
    state.shrink_to_fit();
    state
}

/// Builds the scoring structure for one column at one node. Returns
/// `None` when fewer than two distinct positions carry mass (no split
/// possible). Linear in the column length; the only allocations are the
/// output structure's own arrays.
///
/// The caller must have loaded the node's weights into `scratch` via
/// [`Scratch::load_weights`]. Event masses are reconstructed as
/// `root_mass * scale` and multiplied into the tuple weight here, at
/// consumption time — the single place the kept-fraction chain meets the
/// event weight.
///
/// One fused pass over the presorted column: filtering, aggregation and
/// end-point tracking, with the per-class accumulator in registers/L1
/// and row flushes as raw bounds-free writes (the aggregate buffers come
/// with capacity for at least every event up front, and
/// `n_pos <= n_events` by construction, so every write is in bounds).
/// Arithmetic, gates and gate *order* mirror [`AttributeEvents::build`]
/// exactly — the matrix is bit-for-bit the historical one.
pub fn events_from_column(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
) -> Option<AttributeEvents> {
    events_from_column_in(
        col,
        root_col,
        labels,
        n_classes,
        scratch,
        &BufferPool::default(),
    )
}

/// [`events_from_column`] drawing the structure's `xs` and `cum`
/// buffers from `buffers` — the builder passes its per-build pool, and
/// gets the buffers of a column without a split candidate straight back.
pub(crate) fn events_from_column_in(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
    buffers: &BufferPool,
) -> Option<AttributeEvents> {
    if col.is_empty() {
        return None;
    }
    // Unit fast path: a node that keeps every root event (a full-length
    // view — views only ever drop events, so full length means identity)
    // at weight exactly 1 with no rescales, over a column whose events
    // are all gate-clearing and distinct, produces a pure prefix sum over
    // the root arrays with the precomputed tree-invariant end points.
    // Bit-identical to the classic loop: `1.0 * m == m` exactly, every
    // gate passes, one event lands per row so add-then-store equals
    // flush-then-add, and the end-point set is the same by definition.
    if let Some(end_point_idx) = &root_col.unit_fast {
        if scratch.unit_weights && col.scales.is_empty() && col.len() == root_col.xs.len() {
            return build_events_unit_fast(root_col, labels, n_classes, end_point_idx, buffers);
        }
    }
    // Columns with no ancestor split on this attribute (the common case:
    // every column at the root, most columns below) have all-1 scales;
    // skipping the dense lookup is bitwise free (`m * 1.0 == m`). The
    // flag is a const-generic so the common no-scales loop carries no
    // per-event branch or scale load at all.
    if col.scales.is_empty() {
        build_events::<false>(col, root_col, labels, n_classes, scratch, buffers)
    } else {
        build_events::<true>(col, root_col, labels, n_classes, scratch, buffers)
    }
}

/// The largest `cum` buffer a column of `n_events` events asks the
/// [`BufferPool`] for: one row per event. The column's `xs` request is
/// smaller.
pub(crate) fn matrix_capacity(n_events: usize, n_classes: usize) -> usize {
    n_events * n_classes
}

/// Stack capacity (in classes) of the running-accumulator array; wider
/// problems accumulate into the scratch's heap vector instead.
const RUNNING_STACK_CLASSES: usize = 8;

/// The construction loop of [`events_from_column`], monomorphized on
/// whether the column carries ancestor rescales.
fn build_events<const HAS_SCALES: bool>(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
    buffers: &BufferPool,
) -> Option<AttributeEvents> {
    debug_assert_eq!(HAS_SCALES, !col.scales.is_empty());
    scratch.reset_touched();
    scratch.running.clear();
    scratch.running.resize(n_classes, 0.0);
    scratch.load_scales(&col.scales);
    let k = n_classes;
    let n_events = col.len();
    let mut xs: Vec<f64> = buffers.take(n_events);
    let mut cum: Vec<f64> = buffers.take(matrix_capacity(n_events, k));
    let xs_ptr = xs.as_mut_ptr();
    let cum_ptr = cum.as_mut_ptr();
    let mut n_pos = 0usize;
    // NaN start: the first event always opens a position, and thereafter
    // `x != last_x` is exactly `xs.last() != Some(&x)`.
    let mut last_x = f64::NAN;
    {
        let mut running_stack = [0.0f64; RUNNING_STACK_CLASSES];
        let Scratch {
            weight,
            scale,
            lo_idx,
            hi_idx,
            seen,
            touched,
            running: running_heap,
            ..
        } = scratch;
        let running: &mut [f64] = if k <= RUNNING_STACK_CLASSES {
            &mut running_stack[..k]
        } else {
            running_heap.as_mut_slice()
        };
        col.for_each_event(root_col, |x, t, m_root| {
            let t = t as usize;
            debug_assert!(t < weight.len() && t < labels.len());
            // SAFETY: tuple ids are `< n_tuples`, the length of every
            // per-tuple scratch array and of `labels`; labels are
            // `< n_classes == running.len()`.
            let w = unsafe { *weight.get_unchecked(t) };
            if w <= WEIGHT_EPSILON {
                return;
            }
            let event_weight = if HAS_SCALES {
                w * (m_root * unsafe { *scale.get_unchecked(t) })
            } else {
                w * m_root
            };
            if event_weight <= WEIGHT_EPSILON {
                // Same denormal gate as AttributeEvents::build.
                return;
            }
            if x != last_x {
                if n_pos != 0 {
                    // Flush the finished row.
                    unsafe {
                        let dst = cum_ptr.add((n_pos - 1) * k);
                        for c in 0..k {
                            dst.add(c).write(running[c]);
                        }
                    }
                }
                unsafe { xs_ptr.add(n_pos).write(x) };
                n_pos += 1;
                last_x = x;
            }
            let pos = (n_pos - 1) as u32;
            unsafe {
                *running.get_unchecked_mut(*labels.get_unchecked(t) as usize) += event_weight;
                if !*seen.get_unchecked(t) {
                    *seen.get_unchecked_mut(t) = true;
                    touched.push(t as u32);
                    *lo_idx.get_unchecked_mut(t) = pos;
                }
                *hi_idx.get_unchecked_mut(t) = pos;
            }
        });
        if n_pos != 0 {
            unsafe {
                let dst = cum_ptr.add((n_pos - 1) * k);
                for c in 0..k {
                    dst.add(c).write(running[c]);
                }
                xs.set_len(n_pos);
                cum.set_len(n_pos * k);
            }
        }
    }
    scratch.unload_scales(&col.scales);
    if n_pos < 2 {
        buffers.give(xs);
        buffers.give(cum);
        return None;
    }
    let mut end_point_idx: Vec<usize> = scratch
        .touched
        .iter()
        .flat_map(|&t| {
            [
                scratch.lo_idx[t as usize] as usize,
                scratch.hi_idx[t as usize] as usize,
            ]
        })
        .collect();
    end_point_idx.sort_unstable();
    end_point_idx.dedup();
    AttributeEvents::from_store(xs, cum, n_classes, end_point_idx)
}

/// The unit fast path of [`events_from_column`]: the fused loop with
/// all its gates statically resolved (see the gate at the dispatcher).
/// The output `xs` is the root array verbatim, the end points are the
/// precomputed [`AttrColumn::unit_fast`] structure, and the matrix is a
/// straight per-class prefix sum — no per-tuple scratch traffic, no
/// position bookkeeping, no end-point sort.
fn build_events_unit_fast(
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    end_point_idx: &[usize],
    buffers: &BufferPool,
) -> Option<AttributeEvents> {
    let n = root_col.xs.len();
    if n < 2 {
        return None;
    }
    let k = n_classes;
    let mut xs = buffers.take(n);
    xs.extend_from_slice(&root_col.xs);
    let mut cum: Vec<f64> = buffers.take(matrix_capacity(n, k));
    fill_unit_rows(root_col, labels, k, &mut cum);
    AttributeEvents::from_store(xs, cum, n_classes, end_point_idx.to_vec())
}

/// Portable prefix-sum fill of the unit fast path: row `e` stores the
/// running per-class totals after adding event `e`'s mass — exactly what
/// the classic loop's flush produces when every event opens its own
/// position.
fn fill_unit_rows(root_col: &AttrColumn, labels: &[u32], k: usize, cum: &mut Vec<f64>) {
    let n = root_col.xs.len();
    let cum_ptr = cum.as_mut_ptr();
    let mut running_stack = [0.0f64; RUNNING_STACK_CLASSES];
    let mut running_heap: Vec<f64> = if k > RUNNING_STACK_CLASSES {
        vec![0.0; k]
    } else {
        Vec::new()
    };
    let running: &mut [f64] = if k <= RUNNING_STACK_CLASSES {
        &mut running_stack[..k]
    } else {
        &mut running_heap
    };
    // SAFETY: tuple ids are `< n_tuples == labels.len()`, labels are
    // `< k == running.len()`, and the caller reserved `n * k` elements.
    unsafe {
        for e in 0..n {
            let t = *root_col.tuple.get_unchecked(e) as usize;
            debug_assert!(t < labels.len());
            let c = *labels.get_unchecked(t) as usize;
            debug_assert!(c < k);
            *running.get_unchecked_mut(c) += *root_col.mass.get_unchecked(e);
            let dst = cum_ptr.add(e * k);
            for ci in 0..k {
                dst.add(ci).write(*running.get_unchecked(ci));
            }
        }
        cum.set_len(n * k);
    }
}

/// Copies the events of `column` whose tuples keep weight (per the dense
/// `survive` lookup), in order — the shared filter used for every column
/// a split does not rescale (numeric non-split attributes and all
/// columns of a categorical partition). Scales pass through unchanged.
fn filter_column(column: &ColumnState, root_col: &AttrColumn, survive: &[f64]) -> ColumnState {
    let scales = column
        .scales
        .iter()
        .filter(|&&(t, _)| survive[t as usize] > WEIGHT_EPSILON)
        .copied()
        .collect();
    let mut events = Vec::with_capacity(column.events.len());
    for &e in &column.events {
        if survive[root_col.tuple[e as usize] as usize] > WEIGHT_EPSILON {
            events.push(e);
        }
    }
    ColumnState { scales, events }
}

/// Splits a node's tuples on `(attribute slot, z)`, producing the left
/// and right children. Implements the fractional-tuple split of §3.2
/// against the columnar layout: linear in the node's event count,
/// stable, no re-sorting, no dense root-sized child vectors. Partition
/// allocation traffic is recorded in `stats`.
pub fn partition_numeric(
    root: &RootColumns,
    node: &NodeTuples,
    slot: usize,
    z: f64,
    scratch: &mut Scratch,
    stats: &mut SearchStats,
) -> (NodeTuples, NodeTuples) {
    let started = Instant::now();
    let col = &node.columns[slot];
    let root_col = &root.columns[slot];

    // The split column's scales stay loaded across all three passes: the
    // side masses below and the child scale chain both read them.
    scratch.load_scales(&col.scales);

    // Pass 1: per-tuple mass on each side of the split.
    scratch.reset_touched();
    {
        let scratch = &mut *scratch;
        col.for_each_event(root_col, |x, t, m_root| {
            let t = t as usize;
            if scratch.weight[t] <= WEIGHT_EPSILON {
                return;
            }
            if !scratch.seen[t] {
                scratch.seen[t] = true;
                scratch.touched.push(t as u32);
            }
            let m = m_root * scratch.scale[t];
            if x <= z {
                scratch.left_mass[t] += m;
            } else {
                scratch.right_mass[t] += m;
            }
        });
    }

    // Pass 2: sparse child weights; stash each tuple's left fraction p in
    // `left_mass` and its right fraction in `right_mass` for the scale
    // chain below, and the child weights in `left_w` / `right_w` for the
    // column filters.
    let mut left_pairs: Vec<(u32, f64)> = Vec::new();
    let mut right_pairs: Vec<(u32, f64)> = Vec::new();
    for i in 0..scratch.touched.len() {
        let t = scratch.touched[i] as usize;
        let lm = scratch.left_mass[t];
        let rm = scratch.right_mass[t];
        let total = lm + rm;
        if total <= 0.0 {
            scratch.left_mass[t] = 0.0;
            scratch.right_mass[t] = 0.0;
            continue;
        }
        let p = lm / total;
        let w = scratch.weight[t];
        let wl = w * p;
        let wr = w * (1.0 - p);
        if wl > WEIGHT_EPSILON {
            scratch.left_w[t] = wl;
            left_pairs.push((t as u32, wl));
        }
        if wr > WEIGHT_EPSILON {
            scratch.right_w[t] = wr;
            right_pairs.push((t as u32, wr));
        }
        scratch.left_mass[t] = p;
        scratch.right_mass[t] = 1.0 - p;
    }
    left_pairs.sort_unstable_by_key(|&(t, _)| t);
    right_pairs.sort_unstable_by_key(|&(t, _)| t);
    let (left_alive, left_weights): (Vec<u32>, Vec<f64>) = left_pairs.into_iter().unzip();
    let (right_alive, right_weights): (Vec<u32>, Vec<f64>) = right_pairs.into_iter().unzip();

    // Pass 3: partition every column. The split attribute's events go to
    // the side their position lies on with the tuple's scale divided by
    // its kept fraction (the pdf renormalisation of the fractional
    // split, deferred to consumption time); all other columns keep their
    // events wherever the tuple survives, scales unchanged.
    let left_columns = partition_columns(node, root, slot, true, z, scratch);
    let right_columns = partition_columns(node, root, slot, false, z, scratch);

    scratch.unload_scales(&col.scales);

    let mut left = NodeTuples {
        alive: left_alive,
        weights: left_weights,
        columns: left_columns,
    };
    let mut right = NodeTuples {
        alive: right_alive,
        weights: right_weights,
        columns: right_columns,
    };
    // Release the slack the parent-capacity filter buffers carry, so a
    // skewed split does not pin parent-sized memory under a small
    // subtree — and so the byte accounting reflects surviving data.
    left.shrink_to_fit();
    right.shrink_to_fit();
    let bytes = left.heap_bytes() + right.heap_bytes();
    stats.partition_bytes += bytes;
    stats.partition_peak_bytes = stats.partition_peak_bytes.max(bytes);
    stats.partition_ns += started.elapsed().as_nanos() as u64;
    (left, right)
}

/// Builds one side's child columns for [`partition_numeric`]. Reads the
/// side fractions from `scratch.left_mass` / `scratch.right_mass` and
/// the child weights from `scratch.left_w` / `scratch.right_w`; the
/// split column's parent scales must be loaded in `scratch.scale`.
fn partition_columns(
    node: &NodeTuples,
    root: &RootColumns,
    slot: usize,
    left_side: bool,
    z: f64,
    scratch: &Scratch,
) -> Vec<ColumnState> {
    let survive: &[f64] = if left_side {
        &scratch.left_w
    } else {
        &scratch.right_w
    };
    let fractions: &[f64] = if left_side {
        &scratch.left_mass
    } else {
        &scratch.right_mass
    };
    node.columns
        .iter()
        .enumerate()
        .map(|(j, column)| {
            let root_col = &root.columns[j];
            if j != slot {
                return filter_column(column, root_col, survive);
            }
            // The split column: keep the side's events and extend the
            // per-tuple scale chain by dividing out the kept fraction.
            let mut scales: Vec<(u32, f64)> = Vec::new();
            let keep = |t: usize| survive[t] > WEIGHT_EPSILON;
            let mut events = Vec::with_capacity(column.events.len());
            for &e in &column.events {
                let t = root_col.tuple[e as usize] as usize;
                if !keep(t) {
                    continue;
                }
                let x = root_col.xs[e as usize];
                if left_side != (x <= z) {
                    continue;
                }
                events.push(e);
            }
            // One scale entry per surviving tuple whose chain is not 1,
            // in ascending tuple order (the parent's alive list covers
            // every survivor).
            for &t in node.alive.iter() {
                let t = t as usize;
                if !keep(t) {
                    continue;
                }
                let f = fractions[t];
                if f <= 0.0 {
                    continue;
                }
                let s = scratch.scale[t] / f;
                if s != 1.0 {
                    scales.push((t as u32, s));
                }
            }
            ColumnState { scales, events }
        })
        .collect()
}

/// Splits a node's tuples over the categories of categorical attribute
/// `attribute` (§7.2): bucket `v` receives every tuple with weight
/// `w · f(v)`; numerical columns are filtered to surviving tuples,
/// scales and masses unchanged. Partition allocation traffic is recorded
/// in `stats`.
pub fn partition_categorical(
    root: &RootColumns,
    node: &NodeTuples,
    tuples: &[FractionalTuple],
    attribute: usize,
    cardinality: usize,
    scratch: &mut Scratch,
    stats: &mut SearchStats,
) -> Vec<NodeTuples> {
    let started = Instant::now();
    // Clear any state a preceding partition left behind: the bucket
    // filters below repurpose `left_w` as a dense survival lookup, and
    // this makes the all-zero precondition enforced here rather than
    // relying on an intervening `events_from_column` having reset it.
    scratch.reset_touched();
    let buckets: Vec<NodeTuples> = (0..cardinality)
        .map(|v| {
            let mut alive = Vec::new();
            let mut weights = Vec::new();
            for (&t, &weight) in node.alive.iter().zip(&node.weights) {
                let Some(dist) = tuples[t as usize].values[attribute].as_categorical() else {
                    continue;
                };
                if v >= dist.cardinality() {
                    continue;
                }
                let w = weight * dist.prob(v);
                if w > WEIGHT_EPSILON {
                    alive.push(t);
                    weights.push(w);
                }
            }
            // Dense survival lookup for the column filters (reusing the
            // left-child weight scratch; reset right after).
            for (&t, &w) in alive.iter().zip(&weights) {
                scratch.left_w[t as usize] = w;
            }
            let columns = node
                .columns
                .iter()
                .zip(&root.columns)
                .map(|(column, root_col)| filter_column(column, root_col, &scratch.left_w))
                .collect();
            for &t in &alive {
                scratch.left_w[t as usize] = 0.0;
            }
            let mut bucket = NodeTuples {
                alive,
                weights,
                columns,
            };
            bucket.shrink_to_fit();
            bucket
        })
        .collect();
    let bytes: u64 = buckets.iter().map(NodeTuples::heap_bytes).sum();
    stats.partition_bytes += bytes;
    stats.partition_peak_bytes = stats.partition_peak_bytes.max(bytes);
    stats.partition_ns += started.elapsed().as_nanos() as u64;
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measure;
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn ft(points: &[f64], mass: &[f64], label: usize) -> FractionalTuple {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap(),
            )],
            label,
            weight: 1.0,
        }
    }

    fn labels(tuples: &[FractionalTuple]) -> Vec<u32> {
        tuples.iter().map(|t| t.label as u32).collect()
    }

    /// Sum of a tuple's scaled masses in one column.
    fn per_tuple_mass(state: &ColumnState, root: &AttrColumn, t: u32) -> f64 {
        let mut total = 0.0;
        state.for_each_scaled(root, |_, owner, m| {
            if owner == t {
                total += m;
            }
        });
        total
    }

    /// A valid pdf over these points: sorted, with points that compare
    /// equal (`-0.0` beside `+0.0` among them) merged into the first.
    fn sorted_pdf(points: &[f64], mass: &[f64]) -> SampledPdf {
        let mut pairs: Vec<(f64, f64)> = points.iter().copied().zip(mass.iter().copied()).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite points"));
        pairs.dedup_by(|next, kept| next.0 == kept.0);
        let (points, mass) = pairs.into_iter().unzip();
        SampledPdf::new(points, mass).expect("valid pdf")
    }

    /// The comparator presort the radix sort replaced, kept as the
    /// oracle: gather in tuple order, then a stable `sort_by` on
    /// `partial_cmp`.
    fn comparator_presort(
        tuples: &[FractionalTuple],
        attribute: usize,
    ) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
        let mut order: Vec<(f64, u32, f64)> = Vec::new();
        for t in alive_tuples(tuples) {
            if let Some(pdf) = tuples[t as usize].values[attribute].as_numeric() {
                order.extend(pdf.iter().map(|(x, m)| (x, t, m)));
            }
        }
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN in the oracle's input"));
        (
            order.iter().map(|e| e.0.to_bits()).collect(),
            order.iter().map(|e| e.1).collect(),
            order.iter().map(|e| e.2.to_bits()).collect(),
        )
    }

    fn column_bits(xs: &[f64], tuple: &[u32], mass: &[f64]) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
        (
            xs.iter().map(|x| x.to_bits()).collect(),
            tuple.to_vec(),
            mass.iter().map(|m| m.to_bits()).collect(),
        )
    }

    /// Seeded tuples whose two numerical attributes mix `-0.0` and
    /// `+0.0`, positions shared across tuples, subnormals, and negative
    /// and extreme magnitudes. Tuple 0 holds `+0.0` and tuple 1
    /// `-0.0` on attribute 0, so a stable sort must keep `+0.0` first.
    fn adversarial_tuples(seed: u64) -> Vec<FractionalTuple> {
        use rand::{Rng, SeedableRng};
        let palette = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            -f64::MAX,
            -1e300,
            1e300,
            -2.5,
            1.5,
            3.0,
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut tuples: Vec<FractionalTuple> = (0..80)
            .map(|i| {
                let values = (0..2)
                    .map(|_| {
                        let n = rng.gen_range(1..10usize);
                        let points: Vec<f64> = (0..n)
                            .map(|_| {
                                if rng.gen_range(0..3usize) == 0 {
                                    rng.gen_range(-50.0..50.0)
                                } else {
                                    palette[rng.gen_range(0..palette.len())]
                                }
                            })
                            .collect();
                        let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
                        UncertainValue::Numeric(sorted_pdf(&points, &mass))
                    })
                    .collect();
                FractionalTuple {
                    values,
                    label: i % 3,
                    // Every seventh tuple is dead and must not be gathered.
                    weight: if i % 7 == 6 { 0.0 } else { 1.0 },
                }
            })
            .collect();
        tuples[0].values[0] = UncertainValue::Numeric(sorted_pdf(&[0.0, 7.0], &[0.5, 0.5]));
        tuples[1].values[0] = UncertainValue::Numeric(sorted_pdf(&[-0.0, 7.0], &[0.5, 0.5]));
        tuples
    }

    #[test]
    fn radix_presort_matches_the_comparator_oracle_bit_for_bit() {
        for seed in [1, 2, 3, 2009] {
            let tuples = adversarial_tuples(seed);
            let root = build_root(&tuples, &[0, 1]);
            let pool = WorkerPool::for_concurrency(2);
            assert_eq!(
                format!("{:?}", build_root_with(&tuples, &[0, 1], &pool)),
                format!("{root:?}"),
                "seed {seed}: pooled and sequential presorts agree"
            );
            for (attribute, col) in root.columns.iter().enumerate() {
                assert_eq!(col.attribute, attribute);
                assert_eq!(
                    column_bits(&col.xs, &col.tuple, &col.mass),
                    comparator_presort(&tuples, attribute),
                    "seed {seed}, attribute {attribute}"
                );
            }
            // Validated pdfs hold finite points only.
            assert_eq!(root.first_non_finite(), None);
            // The fixture really contains what it claims to.
            let xs = &root.columns[0].xs;
            assert!(xs.iter().any(|x| x.to_bits() == (-0.0f64).to_bits()));
            assert!(xs.iter().any(|x| x.to_bits() == 0.0f64.to_bits()));
            assert!(xs.contains(&f64::MAX));
            assert!(xs.iter().any(|x| x.is_subnormal()));
        }
        // A column with infinities at its ends (where the presort key
        // puts them) is reported by its first non-finite position.
        let column = |attribute, xs: Vec<f64>| AttrColumn {
            attribute,
            tuple: (0..xs.len() as u32).collect(),
            mass: vec![0.5; xs.len()],
            xs,
            unit_fast: None,
        };
        let root = RootColumns {
            columns: vec![
                column(0, vec![-1.0, 2.0]),
                column(1, vec![-1.0, 2.0, f64::INFINITY]),
                column(2, vec![f64::NEG_INFINITY, 0.0]),
            ],
        };
        assert_eq!(root.first_non_finite(), Some((1, 2, f64::INFINITY)));
    }

    #[test]
    fn a_radix_key_without_the_negative_zero_fold_fails_the_oracle() {
        // The mutation the parity test must catch: the IEEE total-order
        // key without folding `-0.0` onto `+0.0` sorts tuple 1's `-0.0`
        // ahead of tuple 0's `+0.0`, which compare equal.
        let unfolded = |x: f64| {
            let bits = x.to_bits();
            if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            }
        };
        let tuples = adversarial_tuples(1);
        let alive = alive_tuples(&tuples);
        let (xs, tuple, mass) = Presort::default().sorted_events(&tuples, &alive, 0, unfolded);
        assert_ne!(
            column_bits(&xs, &tuple, &mass),
            comparator_presort(&tuples, 0)
        );
        let (xs, tuple, mass) = Presort::default().sorted_events(&tuples, &alive, 0, radix_key);
        assert_eq!(
            column_bits(&xs, &tuple, &mass),
            comparator_presort(&tuples, 0)
        );
    }

    #[test]
    fn radix_order_is_stable_and_keys_follow_positions() {
        // Keys differing only in their lowest digit (the other five
        // passes are uniform and skipped): equal keys keep input order.
        let mut items: Vec<(u64, u32)> = [5u64, 3, 5, 1, 3, 5]
            .iter()
            .enumerate()
            .map(|(i, &k)| ((7 << 60) | k, i as u32))
            .collect();
        radix_order(&mut items, &mut Vec::new());
        let order: Vec<u32> = items.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, vec![3, 1, 4, 0, 2, 5]);
        // Every key ordered like its position, across signs and zeros.
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            1e-310,
            2.0,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(radix_key(w[0]) <= radix_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(radix_key(-0.0), radix_key(0.0));
        // NaNs land outside the infinities, at the column ends.
        assert!(radix_key(f64::NAN) > radix_key(f64::INFINITY));
        assert!(radix_key(-f64::NAN) < radix_key(f64::NEG_INFINITY));
    }

    /// Six tuples over distinct positions (so the root column qualifies
    /// for the unit fast path), labelled round-robin over `n_classes`.
    fn spread_tuples(n_classes: usize) -> Vec<FractionalTuple> {
        (0..6)
            .map(|i| {
                let lo = 0.75 * i as f64;
                ft(
                    &[lo, lo + 0.1, lo + 1.3],
                    &[1.0, 2.0 + i as f64, 1.0],
                    i % n_classes,
                )
            })
            .collect()
    }

    fn matrix_bits(ev: &AttributeEvents) -> Vec<u64> {
        ev.cum().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn root_events_match_direct_build_in_both_modes() {
        // Both construction modes — the unit fast path (every weight 1)
        // and the fused loop (fractional weights) — for a narrow and a
        // wide class count.
        for n_classes in [2, 6] {
            for unit in [true, false] {
                let mut tuples = spread_tuples(n_classes);
                if !unit {
                    for (i, t) in tuples.iter_mut().enumerate() {
                        t.weight = 0.25 + 0.125 * i as f64;
                    }
                }
                let root = build_root(&tuples, &[0]);
                assert!(root.columns[0].unit_fast.is_some());
                let direct = AttributeEvents::build(&tuples, 0, n_classes).unwrap();
                let state = root_state(&tuples, &root);
                let mut scratch = Scratch::new(tuples.len());
                scratch.load_weights(&state);
                assert_eq!(scratch.unit_weights, unit);
                let from_col = events_from_column(
                    &state.columns[0],
                    &root.columns[0],
                    &labels(&tuples),
                    n_classes,
                    &mut scratch,
                )
                .unwrap();
                let case = format!("{n_classes} classes, unit {unit}");
                assert_eq!(from_col.xs(), direct.xs(), "{case}");
                assert_eq!(
                    from_col.end_point_indices(),
                    direct.end_point_indices(),
                    "{case}"
                );
                assert_eq!(matrix_bits(&from_col), matrix_bits(&direct), "{case}");
                for i in 0..direct.n_positions() - 1 {
                    assert_eq!(
                        from_col.score_at(i, Measure::Entropy).to_bits(),
                        direct.score_at(i, Measure::Entropy).to_bits(),
                        "{case}, score {i}"
                    );
                }
            }
        }
    }

    /// The matrix a plain scalar loop over a node's scaled events gives:
    /// `weight × (root mass × scale)` per event, events under the mass
    /// gate dropped, one row per distinct position.
    fn scalar_matrix(
        node: &NodeTuples,
        root_col: &AttrColumn,
        labels: &[u32],
        n_classes: usize,
    ) -> (Vec<f64>, Vec<u64>) {
        let weight = |t: u32| {
            node.alive
                .iter()
                .position(|&a| a == t)
                .map_or(0.0, |i| node.weights[i])
        };
        let (mut xs, mut cum) = (Vec::new(), Vec::new());
        let mut running = vec![0.0f64; n_classes];
        node.columns[0].for_each_scaled(root_col, |x, t, m| {
            let w = weight(t);
            if w <= WEIGHT_EPSILON || w * m <= WEIGHT_EPSILON {
                return;
            }
            if xs.last() != Some(&x) {
                if !xs.is_empty() {
                    cum.extend_from_slice(&running);
                }
                xs.push(x);
            }
            running[labels[t as usize] as usize] += w * m;
        });
        cum.extend_from_slice(&running);
        (xs, cum.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn profile_construction_matches_scalar_bit_for_bit() {
        for n_classes in [3, 6] {
            let tuples = spread_tuples(n_classes);
            let labels = labels(&tuples);
            let root = build_root(&tuples, &[0]);
            let state = root_state(&tuples, &root);
            let mut scratch = Scratch::new(tuples.len());
            let mut stats = SearchStats::default();
            scratch.load_weights(&state);
            // A numeric partition gives the left child non-trivial pdf
            // scales, so the comparison also exercises the has-scales
            // loop.
            let (left, _right) = partition_numeric(&root, &state, 0, 2.0, &mut scratch, &mut stats);
            scratch.unload_weights(&state);
            assert!(!left.columns[0].scales.is_empty());
            for node in [&state, &left] {
                scratch.load_weights(node);
                let ev = events_from_column(
                    &node.columns[0],
                    &root.columns[0],
                    &labels,
                    n_classes,
                    &mut scratch,
                )
                .unwrap();
                scratch.unload_weights(node);
                let (xs, want) = scalar_matrix(node, &root.columns[0], &labels, n_classes);
                assert_eq!(ev.xs(), xs.as_slice(), "{n_classes} classes");
                assert_eq!(matrix_bits(&ev), want, "{n_classes} classes");
            }
        }
    }

    #[test]
    fn numeric_partition_matches_fractional_split() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[0.25, 0.25, 0.25, 0.25], 0),
            ft(&[2.0, 3.0, 4.0, 5.0], &[0.25, 0.25, 0.25, 0.25], 1),
        ];
        let root = build_root(&tuples, &[0]);
        let state = root_state(&tuples, &root);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        scratch.load_weights(&state);
        let (left, right) = partition_numeric(&root, &state, 0, 2.0, &mut scratch, &mut stats);
        scratch.unload_weights(&state);
        // Tuple 0 keeps 3/4 of its mass left, tuple 1 keeps 1/4 left.
        let weight_of = |node: &NodeTuples, t: u32| -> f64 {
            node.alive
                .iter()
                .position(|&a| a == t)
                .map_or(0.0, |i| node.weights[i])
        };
        assert!((weight_of(&left, 0) - 0.75).abs() < 1e-12);
        assert!((weight_of(&left, 1) - 0.25).abs() < 1e-12);
        assert!((weight_of(&right, 0) - 0.25).abs() < 1e-12);
        assert!((weight_of(&right, 1) - 0.75).abs() < 1e-12);
        // The split column's scaled masses are renormalised per tuple.
        for node in [&left, &right] {
            for t in [0u32, 1] {
                let total = per_tuple_mass(&node.columns[0], &root.columns[0], t);
                assert!((total - 1.0).abs() < 1e-9, "mass {total} for tuple {t}");
            }
        }
        // Columns stay sorted.
        for node in [&left, &right] {
            let mut prev = f64::NEG_INFINITY;
            node.columns[0].for_each_event(&root.columns[0], |x, _, _| {
                assert!(prev <= x);
                prev = x;
            });
        }
        // Reference: the same split through the fractional-tuple path.
        for (t, tuple) in tuples.iter().enumerate() {
            let (l, r) = tuple.split_numeric(0, 2.0);
            assert!((l.map_or(0.0, |x| x.weight) - weight_of(&left, t as u32)).abs() < 1e-12);
            assert!((r.map_or(0.0, |x| x.weight) - weight_of(&right, t as u32)).abs() < 1e-12);
        }
        // Partition traffic was recorded.
        assert!(stats.partition_bytes > 0);
        assert_eq!(stats.partition_peak_bytes, stats.partition_bytes);
    }

    #[test]
    fn partitioned_columns_reproduce_fractional_tuple_events() {
        // After one split, the child columns must yield the same scoring
        // structure as rebuilding from explicitly split fractional tuples.
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[1.0, 2.0, 2.0, 1.0], 0),
            ft(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0, 1.0], 1),
            ft(&[2.0, 3.0, 4.0, 5.0], &[2.0, 1.0, 1.0, 2.0], 0),
        ];
        let root = build_root(&tuples, &[0]);
        let z = 2.0;
        // Reference: split every tuple fractionally, rebuild from scratch.
        let left_tuples: Vec<FractionalTuple> = tuples
            .iter()
            .filter_map(|t| t.split_numeric(0, z).0)
            .collect();
        let reference = AttributeEvents::build(&left_tuples, 0, 2).unwrap();
        let state = root_state(&tuples, &root);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        scratch.load_weights(&state);
        let (left, _right) = partition_numeric(&root, &state, 0, z, &mut scratch, &mut stats);
        scratch.unload_weights(&state);
        scratch.load_weights(&left);
        let got = events_from_column(
            &left.columns[0],
            &root.columns[0],
            &labels(&tuples),
            2,
            &mut scratch,
        )
        .unwrap();
        scratch.unload_weights(&left);
        assert_eq!(got.xs(), reference.xs());
        for i in 0..reference.n_positions() {
            let g = got.left_counts(i);
            let r = reference.left_counts(i);
            for c in 0..2 {
                assert!(
                    (g.get(c) - r.get(c)).abs() < 1e-12,
                    "row {i} class {c}: {} vs {}",
                    g.get(c),
                    r.get(c)
                );
            }
        }
    }

    #[test]
    fn categorical_partition_scales_weights() {
        use udt_prob::DiscreteDist;
        let tuples = vec![FractionalTuple {
            values: vec![
                UncertainValue::Categorical(DiscreteDist::new(vec![0.5, 0.0, 0.5]).unwrap()),
                UncertainValue::point(1.0),
            ],
            label: 0,
            weight: 0.8,
        }];
        let root = build_root(&tuples, &[1]);
        let state = root_state(&tuples, &root);
        assert_eq!(state.weights, vec![0.8]);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        let buckets = partition_categorical(&root, &state, &tuples, 0, 3, &mut scratch, &mut stats);
        assert_eq!(buckets.len(), 3);
        assert!((buckets[0].weights[0] - 0.4).abs() < 1e-12);
        assert!(buckets[1].alive.is_empty());
        assert!((buckets[2].weights[0] - 0.4).abs() < 1e-12);
        // Numerical columns follow the surviving tuples.
        assert_eq!(buckets[0].columns[0].len(), 1);
        assert_eq!(buckets[1].columns[0].len(), 0);
        assert!(stats.partition_bytes > 0);
    }
}
