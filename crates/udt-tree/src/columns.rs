//! Root-presorted event columns and zero-copy view partitioning.
//!
//! The classic SPRINT/C4.5 presorting idea applied to UDT's fractional
//! tuples: every numerical attribute's pdf sample points are flattened
//! into one sorted column **once at the root** ([`build_root_with`]), and
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
//! Splitting on attribute `a` at `z` multiplies tuple weights by their
//! side fractions `p` / `1 − p`, then reads each of the node's columns
//! once and writes both children: column `a` sends each event to the
//! side its position lies on and divides the per-tuple scale by the
//! tuple's kept fraction; every other column keeps its events in each
//! child where the tuple retains weight, scales unchanged. A categorical
//! split works the same way with one child per category: one walk per
//! column writes every bucket. Which children keep a tuple is one dense
//! bit mask per tuple in the [`Scratch`].
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
use crate::events::{event_tag, position_end, AttributeEvents, BufferPool};
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
#[derive(Debug, Clone, Default)]
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
    /// buffers the walks started from.
    pub fn heap_bytes(&self) -> u64 {
        (self.alive.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f64>()) as u64
            + self
                .columns
                .iter()
                .map(ColumnState::heap_bytes)
                .sum::<u64>()
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
    /// Which children keep each tuple during one partition call: bit
    /// `c` is set when child `c` does (a numeric split's left child is
    /// bit 0, its right child bit 1; a categorical split's bucket `v` is
    /// bit `v mod 64`).
    keep: Vec<u64>,
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
}

impl Scratch {
    /// Creates scratch buffers for `n_tuples` root tuples.
    pub fn new(n_tuples: usize) -> Scratch {
        Scratch {
            left_mass: vec![0.0; n_tuples],
            right_mass: vec![0.0; n_tuples],
            keep: vec![0; n_tuples],
            weight: vec![0.0; n_tuples],
            scale: vec![1.0; n_tuples],
            lo_idx: vec![0; n_tuples],
            hi_idx: vec![0; n_tuples],
            seen: vec![false; n_tuples],
            touched: Vec::with_capacity(n_tuples),
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
    }

    /// Clears the dense weights loaded from `node`.
    pub fn unload_weights(&mut self, node: &NodeTuples) {
        for &t in &node.alive {
            self.weight[t as usize] = 0.0;
        }
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
            self.keep[t as usize] = 0;
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
fn alive_tuples(tuples: &[FractionalTuple<'_>]) -> Vec<u32> {
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
        tuples: &[FractionalTuple<'_>],
        alive: &[u32],
        attribute: usize,
    ) -> AttrColumn {
        let (xs, tuple, mass) = self.sorted_events(tuples, alive, attribute, radix_key);
        AttrColumn {
            attribute,
            xs,
            tuple,
            mass,
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
        tuples: &[FractionalTuple<'_>],
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
/// for the stable sort to keep them in gather order.
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

/// Builds the immutable [`RootColumns`]: per-attribute event columns
/// sorted once — one stable radix pass per attribute; recursion below
/// only partitions. The per-attribute presort fans out across `pool`,
/// one task per attribute (`WorkerPool::for_concurrency(1)` runs it
/// inline). A task takes a set of working buffers another task has
/// finished with, so the presort allocates about one set per
/// participating thread rather than one per attribute. The columns come
/// back in attribute order and each column's construction is
/// independent, so the result is bit-identical at every thread count.
pub fn build_root_with(
    tuples: &[FractionalTuple<'_>],
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
pub fn root_state(tuples: &[FractionalTuple<'_>], root: &RootColumns) -> NodeTuples {
    let mut alive = Vec::with_capacity(tuples.len());
    let mut weights = Vec::with_capacity(tuples.len());
    for (t, tuple) in tuples.iter().enumerate() {
        if tuple.weight > WEIGHT_EPSILON {
            alive.push(t as u32);
            weights.push(tuple.weight);
        }
    }
    alive.shrink_to_fit();
    weights.shrink_to_fit();
    let columns = root
        .columns
        .iter()
        .map(|col| ColumnState {
            scales: Vec::new(),
            events: (0..col.len() as u32).collect(),
        })
        .collect();
    NodeTuples {
        alive,
        weights,
        columns,
    }
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
/// One fused pass over the presorted column does the filtering,
/// aggregation and end-point tracking: it writes each position once and
/// each surviving event as a `(class, weight)` run entry, as raw
/// bounds-free writes (the buffers come with capacity for every event up
/// front, and `n_pos <= n_kept <= n_events` by construction, so every
/// write is in bounds). A second, running-sum pass over the runs then
/// stores the cumulative rows of the end points only
/// ([`AttributeEvents`] replays every other row on demand). Arithmetic,
/// gates and gate *order* mirror [`AttributeEvents::build`] exactly, so
/// every row, stored or replayed, is bit-for-bit the historical one.
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

/// [`events_from_column`] drawing the structure's buffers from
/// `buffers` — the builder passes its per-build pool, and gets the
/// buffers of a column without a split candidate straight back.
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

/// The largest buffer a column of `n_events` events over `n_tuples`
/// alive tuples asks the [`BufferPool`] for: its event runs (two slots
/// per event) or its end-point rows (at most two end points per tuple
/// and one per event, `n_classes` wide). Its positions ask for less.
pub(crate) fn largest_request(n_events: usize, n_tuples: usize, n_classes: usize) -> usize {
    (2 * n_events).max(n_events.min(2 * n_tuples) * n_classes)
}

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
    scratch.load_scales(&col.scales);
    let n_events = col.len();
    let mut xs: Vec<f64> = buffers.take(n_events);
    let mut runs: Vec<f64> = buffers.take(2 * n_events);
    let xs_ptr = xs.as_mut_ptr();
    let runs_ptr = runs.as_mut_ptr();
    let mut n_pos = 0usize;
    let mut n_kept = 0usize;
    // NaN start: the first event always opens a position, and thereafter
    // `x != last_x` is exactly `xs.last() != Some(&x)`.
    let mut last_x = f64::NAN;
    {
        let Scratch {
            weight,
            scale,
            lo_idx,
            hi_idx,
            seen,
            touched,
            ..
        } = scratch;
        col.for_each_event(root_col, |x, t, m_root| {
            let t = t as usize;
            debug_assert!(t < weight.len() && t < labels.len());
            // SAFETY: tuple ids are `< n_tuples`, the length of every
            // per-tuple scratch array and of `labels`.
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
            // SAFETY: at most `n_events` events are kept, each opening at
            // most one position, within the buffers' capacities.
            unsafe {
                if x != last_x {
                    if n_kept != 0 {
                        // The previous event ends the finished position.
                        let tag = runs_ptr.add(2 * (n_kept - 1));
                        tag.write(position_end(*tag));
                    }
                    xs_ptr.add(n_pos).write(x);
                    n_pos += 1;
                    last_x = x;
                }
                let slot = runs_ptr.add(2 * n_kept);
                slot.write(event_tag(*labels.get_unchecked(t)));
                slot.add(1).write(event_weight);
            }
            n_kept += 1;
            let pos = (n_pos - 1) as u32;
            unsafe {
                if !*seen.get_unchecked(t) {
                    *seen.get_unchecked_mut(t) = true;
                    touched.push(t as u32);
                    *lo_idx.get_unchecked_mut(t) = pos;
                }
                *hi_idx.get_unchecked_mut(t) = pos;
            }
        });
        if n_kept != 0 {
            // SAFETY: as above; the writes initialised every element.
            unsafe {
                let tag = runs_ptr.add(2 * (n_kept - 1));
                tag.write(position_end(*tag));
                xs.set_len(n_pos);
                runs.set_len(2 * n_kept);
            }
        }
    }
    scratch.unload_scales(&col.scales);
    if n_pos < 2 {
        buffers.give(xs);
        buffers.give(runs);
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
    let end_rows = buffers.take(end_point_idx.len() * n_classes);
    Some(AttributeEvents::from_runs(
        xs,
        runs,
        n_classes,
        end_point_idx,
        end_rows,
    ))
}

/// The children whose bit is set in a tuple's survival mask, ascending.
#[inline]
fn kept_by(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let c = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(c)
    })
}

/// An empty child column with room for every event of its parent
/// column, the most a child can keep.
fn child_column(parent: &ColumnState) -> ColumnState {
    ColumnState {
        scales: Vec::new(),
        events: Vec::with_capacity(parent.events.len()),
    }
}

/// Appends one finished column to each child, shrunk to fit: a split
/// holds at most one column of parent-sized buffers per child, and a
/// skewed split does not pin parent-sized memory under a small subtree.
fn adopt(children: &mut [NodeTuples], columns: impl IntoIterator<Item = ColumnState>) {
    for (child, mut column) in children.iter_mut().zip(columns) {
        column.scales.shrink_to_fit();
        column.events.shrink_to_fit();
        child.columns.push(column);
    }
}

/// The shared partition walk over one column a split does not rescale:
/// reads the parent's event ids once, in order, and appends each event
/// to every child whose bit is set in its owner tuple's `keep` mask. The
/// `(tuple, scale)` list is filtered the same way, scales unchanged.
fn walk_column(column: &ColumnState, root_col: &AttrColumn, keep: &[u64], into: &mut [NodeTuples]) {
    let mut outs: Vec<ColumnState> = into.iter().map(|_| child_column(column)).collect();
    for &e in &column.events {
        for c in kept_by(keep[root_col.tuple[e as usize] as usize]) {
            outs[c].events.push(e);
        }
    }
    for &(t, s) in &column.scales {
        for c in kept_by(keep[t as usize]) {
            outs[c].scales.push((t, s));
        }
    }
    adopt(into, outs);
}

/// The tail of every partition: shrinks each child's tuple lists (its
/// columns were shrunk as they were finished), so the byte accounting
/// reflects surviving data, then records the split's bytes and time.
fn finish(children: &mut [NodeTuples], started: Instant, stats: &mut SearchStats) {
    let mut bytes = 0;
    for child in children.iter_mut() {
        child.alive.shrink_to_fit();
        child.weights.shrink_to_fit();
        bytes += child.heap_bytes();
    }
    stats.partition_bytes += bytes;
    stats.partition_peak_bytes = stats.partition_peak_bytes.max(bytes);
    stats.partition_ns += started.elapsed().as_nanos() as u64;
}

/// Splits a node's tuples on `(attribute slot, z)`, producing the left
/// and right children. Implements the fractional-tuple split of §3.2
/// against the columnar layout: linear in the node's event count, each
/// column read once, stable, no re-sorting, no dense root-sized child
/// vectors. Partition allocation traffic is recorded in `stats`.
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

    // Pass 2: sparse child weights, left then right; stash each tuple's
    // left fraction p in `left_mass` and its right fraction in
    // `right_mass` for the scale chain, and the sides that keep it in
    // `keep` (bit 0 left, bit 1 right) for the column walks.
    let mut pairs: [Vec<(u32, f64)>; 2] = Default::default();
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
        for (side, w) in [w * p, w * (1.0 - p)].into_iter().enumerate() {
            if w > WEIGHT_EPSILON {
                scratch.keep[t] |= 1 << side;
                pairs[side].push((t as u32, w));
            }
        }
        scratch.left_mass[t] = p;
        scratch.right_mass[t] = 1.0 - p;
    }
    let mut children: [NodeTuples; 2] = Default::default();
    for (child, mut pairs) in children.iter_mut().zip(pairs) {
        pairs.sort_unstable_by_key(|&(t, _)| t);
        (child.alive, child.weights) = pairs.into_iter().unzip();
    }

    // Pass 3: one walk per column. Every column but the split one keeps
    // its events wherever the tuple survives, scales unchanged. The split
    // column sends each kept event to the side of its position (`x <= z`
    // goes left), and one loop over the alive tuples extends both sides'
    // scale chains by dividing out the kept fraction (the pdf
    // renormalisation of the fractional split, deferred to consumption
    // time); a chain that comes out at exactly 1 stays implicit.
    let keep = &scratch.keep;
    for (j, (column, root_col)) in node.columns.iter().zip(&root.columns).enumerate() {
        if j != slot {
            walk_column(column, root_col, keep, &mut children);
            continue;
        }
        let mut sides = [child_column(column), child_column(column)];
        for &e in &column.events {
            let side = if root_col.xs[e as usize] <= z { 0 } else { 1 };
            if keep[root_col.tuple[e as usize] as usize] & (1 << side) != 0 {
                sides[side].events.push(e);
            }
        }
        let fractions = [&scratch.left_mass, &scratch.right_mass];
        for &t in &node.alive {
            for side in kept_by(keep[t as usize]) {
                let f = fractions[side][t as usize];
                if f <= 0.0 {
                    continue;
                }
                let s = scratch.scale[t as usize] / f;
                if s != 1.0 {
                    sides[side].scales.push((t, s));
                }
            }
        }
        adopt(&mut children, sides);
    }
    scratch.unload_scales(&col.scales);

    finish(&mut children, started, stats);
    let [left, right] = children;
    (left, right)
}

/// Splits a node's tuples over the categories of categorical attribute
/// `attribute` (§7.2): bucket `v` receives every tuple with weight
/// `w · f(v)`; numerical columns are filtered to surviving tuples,
/// scales and masses unchanged. Up to 64 buckets share one walk per
/// column, one bit of the survival mask each. Partition allocation
/// traffic is recorded in `stats`.
pub fn partition_categorical(
    root: &RootColumns,
    node: &NodeTuples,
    tuples: &[FractionalTuple<'_>],
    attribute: usize,
    cardinality: usize,
    scratch: &mut Scratch,
    stats: &mut SearchStats,
) -> Vec<NodeTuples> {
    let started = Instant::now();
    // Clear the masks a preceding numeric partition left behind.
    scratch.reset_touched();
    let mut buckets = vec![NodeTuples::default(); cardinality];
    for (g, group) in buckets.chunks_mut(u64::BITS as usize).enumerate() {
        for (&t, &weight) in node.alive.iter().zip(&node.weights) {
            let Some(dist) = tuples[t as usize].values[attribute].as_categorical() else {
                continue;
            };
            for (c, bucket) in group.iter_mut().enumerate() {
                let w = weight * dist.prob(g * u64::BITS as usize + c);
                if w > WEIGHT_EPSILON {
                    bucket.alive.push(t);
                    bucket.weights.push(w);
                    scratch.keep[t as usize] |= 1 << c;
                }
            }
        }
        for (column, root_col) in node.columns.iter().zip(&root.columns) {
            walk_column(column, root_col, &scratch.keep, group);
        }
        for &t in &node.alive {
            scratch.keep[t as usize] = 0;
        }
    }
    finish(&mut buckets, started, stats);
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measure;
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn ft(points: &[f64], mass: &[f64], label: usize) -> FractionalTuple<'static> {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap(),
            )]
            .into(),
            label,
            weight: 1.0,
        }
    }

    fn labels(tuples: &[FractionalTuple<'_>]) -> Vec<u32> {
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
        tuples: &[FractionalTuple<'_>],
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
    fn adversarial_tuples(seed: u64) -> Vec<FractionalTuple<'static>> {
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
        let mut tuples: Vec<FractionalTuple<'_>> = (0..80)
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
        tuples[0].values.to_mut()[0] =
            UncertainValue::Numeric(sorted_pdf(&[0.0, 7.0], &[0.5, 0.5]));
        tuples[1].values.to_mut()[0] =
            UncertainValue::Numeric(sorted_pdf(&[-0.0, 7.0], &[0.5, 0.5]));
        tuples
    }

    #[test]
    fn radix_presort_matches_the_comparator_oracle_bit_for_bit() {
        for seed in [1, 2, 3, 2009] {
            let tuples = adversarial_tuples(seed);
            let root = build_root_with(&tuples, &[0, 1], &WorkerPool::for_concurrency(1));
            let pool = WorkerPool::for_concurrency(2);
            assert_eq!(
                format!("{:?}", build_root_with(&tuples, &[0, 1], &pool)),
                format!("{root:?}"),
                "seed {seed}: presorts at 1 and 2 threads agree"
            );
            for (attribute, col) in root.columns.iter().enumerate() {
                assert_eq!(col.attribute, attribute);
                assert_eq!(
                    column_bits(&col.xs, &col.tuple, &col.mass),
                    comparator_presort(&tuples, attribute),
                    "seed {seed}, attribute {attribute}"
                );
            }
            // The fixture really contains what it claims to.
            let xs = &root.columns[0].xs;
            assert!(xs.iter().any(|x| x.to_bits() == (-0.0f64).to_bits()));
            assert!(xs.iter().any(|x| x.to_bits() == 0.0f64.to_bits()));
            assert!(xs.contains(&f64::MAX));
            assert!(xs.iter().any(|x| x.is_subnormal()));
        }
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

    /// Six tuples over distinct positions (one event per matrix row at
    /// unit weights), labelled round-robin over `n_classes`.
    fn spread_tuples(n_classes: usize) -> Vec<FractionalTuple<'static>> {
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
        // Unit and fractional root weights, for a narrow and a wide class
        // count.
        for n_classes in [2, 6] {
            for unit in [true, false] {
                let mut tuples = spread_tuples(n_classes);
                if !unit {
                    for (i, t) in tuples.iter_mut().enumerate() {
                        t.weight = 0.25 + 0.125 * i as f64;
                    }
                }
                let root = build_root_with(&tuples, &[0], &WorkerPool::for_concurrency(1));
                let direct = AttributeEvents::build(&tuples, 0, n_classes).unwrap();
                let state = root_state(&tuples, &root);
                let mut scratch = Scratch::new(tuples.len());
                scratch.load_weights(&state);
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
            let root = build_root_with(&tuples, &[0], &WorkerPool::for_concurrency(1));
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

    /// Tuples whose event weights span about 2^53 in magnitude (tuple
    /// weights 2^40 and 2^-8 times normalised masses from about 1/84 to
    /// 1/2), on a quarter grid
    /// where every position holds several events of each class, so the
    /// order a running sum adds them in changes its rounding. Long pdfs
    /// between sparse end points leave interiors of up to 19 positions
    /// (batch-kernel ranges); short pdfs inside them leave interiors of
    /// one and three (exact-formula ranges).
    fn order_sensitive_tuples() -> Vec<FractionalTuple<'static>> {
        (0..24)
            .map(|i| {
                let lo = 5.0 * (i % 3) as f64;
                let (first, n) = if i % 4 == 0 { (lo + 1.0, 3) } else { (lo, 21) };
                let points: Vec<f64> = (0..n).map(|j| first + 0.25 * j as f64).collect();
                let mass: Vec<f64> = (0..n).map(|j| 1.0 + ((i * 5 + j * 3) % 7) as f64).collect();
                let mut tuple = ft(&points, &mass, i % 3);
                tuple.weight = if i % 2 == 0 {
                    2f64.powi(40)
                } else {
                    2f64.powi(-8)
                };
                tuple
            })
            .collect()
    }

    /// The root and the rescaled left child of a split of
    /// [`order_sensitive_tuples`], with the root column and the labels.
    fn order_sensitive_nodes() -> (RootColumns, Vec<u32>, Vec<NodeTuples>) {
        let tuples = order_sensitive_tuples();
        let root = build_root_with(&tuples, &[0], &WorkerPool::for_concurrency(1));
        let state = root_state(&tuples, &root);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        scratch.load_weights(&state);
        let (left, _right) = partition_numeric(&root, &state, 0, 7.3, &mut scratch, &mut stats);
        scratch.unload_weights(&state);
        assert!(!left.columns[0].scales.is_empty(), "the child is rescaled");
        (root, labels(&tuples), vec![state, left])
    }

    /// The node's structure and its dense oracle matrix (row-major, `k`
    /// wide, from [`scalar_matrix`]).
    fn structure_and_oracle(
        node: &NodeTuples,
        root: &RootColumns,
        labels: &[u32],
    ) -> (AttributeEvents, Vec<f64>) {
        let mut scratch = Scratch::new(labels.len());
        scratch.load_weights(node);
        let ev = events_from_column(&node.columns[0], &root.columns[0], labels, 3, &mut scratch)
            .expect("a splittable column");
        scratch.unload_weights(node);
        let (xs, bits) = scalar_matrix(node, &root.columns[0], labels, 3);
        assert_eq!(ev.xs(), xs.as_slice());
        (ev, bits.into_iter().map(f64::from_bits).collect())
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Rows replayed by a test-local running sum that adds each
    /// position's events in `order`, from zero.
    fn replay_with_order(ev: &AttributeEvents, reverse: bool) -> Vec<f64> {
        let mut running = vec![0.0f64; ev.n_classes()];
        let mut rows = Vec::new();
        for mut events in ev.position_events() {
            if reverse {
                events.reverse();
            }
            for (class, weight) in events {
                running[class] += weight;
            }
            rows.extend_from_slice(&running);
        }
        rows
    }

    /// Rows derived by subtracting each position's later events from the
    /// stored row of the next end point at or above it.
    fn replay_from_the_right(ev: &AttributeEvents, oracle: &[f64]) -> Vec<f64> {
        let k = ev.n_classes();
        let positions = ev.position_events();
        let mut rows = oracle.to_vec();
        for w in ev.end_point_indices().windows(2) {
            let mut running = oracle[w[1] * k..(w[1] + 1) * k].to_vec();
            for i in (w[0] + 1..w[1]).rev() {
                for &(class, weight) in &positions[i + 1] {
                    running[class] -= weight;
                }
                rows[i * k..(i + 1) * k].copy_from_slice(&running);
            }
        }
        rows
    }

    #[test]
    fn replayed_and_end_point_rows_match_the_dense_oracle_bit_for_bit() {
        let (root, labels, nodes) = order_sensitive_nodes();
        for (which, node) in ["root", "child"].iter().zip(&nodes) {
            let (ev, oracle) = structure_and_oracle(node, &root, &labels);
            let k = ev.n_classes();
            assert_eq!(bits(&ev.cum()), bits(&oracle), "{which}: replayed matrix");
            // Every row through the public accessor: stored at the end
            // points, replayed everywhere else.
            let ends = ev.end_point_indices().to_vec();
            assert!(ends.len() >= 4 && ends.len() < ev.n_positions() / 2);
            let mut scratch = Vec::new();
            for i in 0..ev.n_positions() {
                let row = ev.counts_below_into(i, &mut scratch);
                assert_eq!(
                    bits(row.as_slice()),
                    bits(&oracle[i * k..(i + 1) * k]),
                    "{which}: row {i} (end point: {})",
                    ends.contains(&i)
                );
            }
            // Every interval's interior, scored as the search scores it,
            // against the same scoring of the oracle's rows.
            let total = &oracle[oracle.len() - k..];
            let grand_total: f64 = total.iter().sum();
            let (mut short, mut long) = (0, 0);
            let mut got = Vec::new();
            for measure in [Measure::Entropy, Measure::Gini, Measure::GainRatio] {
                for interval in ev.intervals() {
                    let range = ev.interior_candidates(&interval);
                    if range.is_empty() {
                        continue;
                    }
                    ev.score_range_into(range.clone(), measure, &mut got);
                    let mut want = vec![0.0; range.len()];
                    if range.len() >= crate::events::SIMD_MIN_BATCH {
                        long += 1;
                        crate::kernel::simd::score_range_into(
                            measure,
                            &oracle,
                            k,
                            total,
                            grand_total,
                            range.clone(),
                            &mut want,
                        );
                    } else {
                        short += 1;
                        for (slot, i) in want.iter_mut().zip(range.clone()) {
                            *slot = measure.split_score_cum(&oracle[i * k..(i + 1) * k], total);
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "{which}: {measure:?} {range:?}");
                }
            }
            assert!(short > 0 && long > 0, "{which}: both scoring paths ran");
        }
    }

    #[test]
    fn replays_in_another_summation_order_fail_the_oracle() {
        // The mutations the oracle test must catch: adding a position's
        // events in reverse order, or deriving interior rows by
        // subtracting from the right end point, rounds differently on
        // this column. Column-order summation from zero passes.
        let (root, labels, nodes) = order_sensitive_nodes();
        for (which, node) in ["root", "child"].iter().zip(&nodes) {
            let (ev, oracle) = structure_and_oracle(node, &root, &labels);
            assert_eq!(
                bits(&replay_with_order(&ev, false)),
                bits(&oracle),
                "{which}"
            );
            assert_ne!(
                bits(&replay_with_order(&ev, true)),
                bits(&oracle),
                "{which}: reversed within positions"
            );
            assert_ne!(
                bits(&replay_from_the_right(&ev, &oracle)),
                bits(&oracle),
                "{which}: subtracted from the right"
            );
        }
    }

    #[test]
    fn numeric_partition_matches_fractional_split() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[0.25, 0.25, 0.25, 0.25], 0),
            ft(&[2.0, 3.0, 4.0, 5.0], &[0.25, 0.25, 0.25, 0.25], 1),
        ];
        let root = build_root_with(&tuples, &[0], &WorkerPool::for_concurrency(1));
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
        let root = build_root_with(&tuples, &[0], &WorkerPool::for_concurrency(1));
        let z = 2.0;
        // Reference: split every tuple fractionally, rebuild from scratch.
        let left_tuples: Vec<FractionalTuple<'_>> = tuples
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
        let (mut got_scratch, mut reference_scratch) = (Vec::new(), Vec::new());
        for i in 0..reference.n_positions() {
            let g = got.counts_below_into(i, &mut got_scratch);
            let r = reference.counts_below_into(i, &mut reference_scratch);
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
            ]
            .into(),
            label: 0,
            weight: 0.8,
        }];
        let root = build_root_with(&tuples, &[1], &WorkerPool::for_concurrency(1));
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
    /// The old two-pass partition's column filter, kept as the oracle of
    /// the single walk: copies the events and scales whose tuple keeps a
    /// weight in the dense `survive` lookup.
    fn two_pass_filter(
        column: &ColumnState,
        root_col: &AttrColumn,
        survive: &[f64],
    ) -> ColumnState {
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

    fn shrunk(mut node: NodeTuples) -> NodeTuples {
        node.alive.shrink_to_fit();
        node.weights.shrink_to_fit();
        for column in &mut node.columns {
            column.scales.shrink_to_fit();
            column.events.shrink_to_fit();
        }
        node
    }

    /// The old `partition_numeric` over dense arrays of its own: side
    /// masses, side weights, then one walk over every column per side.
    fn two_pass_numeric(
        root: &RootColumns,
        node: &NodeTuples,
        slot: usize,
        z: f64,
        n_tuples: usize,
    ) -> (NodeTuples, NodeTuples) {
        let mut weight = vec![0.0; n_tuples];
        for (&t, &w) in node.alive.iter().zip(&node.weights) {
            weight[t as usize] = w;
        }
        let mut scale = vec![1.0; n_tuples];
        for &(t, s) in &node.columns[slot].scales {
            scale[t as usize] = s;
        }
        let (mut left_mass, mut right_mass) = (vec![0.0; n_tuples], vec![0.0; n_tuples]);
        let mut seen = vec![false; n_tuples];
        let mut touched = Vec::new();
        node.columns[slot].for_each_event(&root.columns[slot], |x, t, m_root| {
            let t = t as usize;
            if weight[t] <= WEIGHT_EPSILON {
                return;
            }
            if !seen[t] {
                seen[t] = true;
                touched.push(t);
            }
            let m = m_root * scale[t];
            if x <= z {
                left_mass[t] += m;
            } else {
                right_mass[t] += m;
            }
        });
        let (mut left_w, mut right_w) = (vec![0.0; n_tuples], vec![0.0; n_tuples]);
        let (mut left_pairs, mut right_pairs) = (Vec::new(), Vec::new());
        for &t in &touched {
            let total = left_mass[t] + right_mass[t];
            if total <= 0.0 {
                left_mass[t] = 0.0;
                right_mass[t] = 0.0;
                continue;
            }
            let p = left_mass[t] / total;
            let (wl, wr) = (weight[t] * p, weight[t] * (1.0 - p));
            if wl > WEIGHT_EPSILON {
                left_w[t] = wl;
                left_pairs.push((t as u32, wl));
            }
            if wr > WEIGHT_EPSILON {
                right_w[t] = wr;
                right_pairs.push((t as u32, wr));
            }
            left_mass[t] = p;
            right_mass[t] = 1.0 - p;
        }
        let side = |mut pairs: Vec<(u32, f64)>, survive: &[f64], fractions: &[f64], left: bool| {
            pairs.sort_unstable_by_key(|&(t, _)| t);
            let (alive, weights) = pairs.into_iter().unzip();
            let columns = node
                .columns
                .iter()
                .zip(&root.columns)
                .enumerate()
                .map(|(j, (column, root_col))| {
                    if j != slot {
                        return two_pass_filter(column, root_col, survive);
                    }
                    let keep = |t: usize| survive[t] > WEIGHT_EPSILON;
                    let mut events = Vec::with_capacity(column.events.len());
                    for &e in &column.events {
                        let t = root_col.tuple[e as usize] as usize;
                        if keep(t) && left == (root_col.xs[e as usize] <= z) {
                            events.push(e);
                        }
                    }
                    let mut scales = Vec::new();
                    for &t in &node.alive {
                        let t = t as usize;
                        if !keep(t) || fractions[t] <= 0.0 {
                            continue;
                        }
                        let s = scale[t] / fractions[t];
                        if s != 1.0 {
                            scales.push((t as u32, s));
                        }
                    }
                    ColumnState { scales, events }
                })
                .collect();
            shrunk(NodeTuples {
                alive,
                weights,
                columns,
            })
        };
        (
            side(left_pairs, &left_w, &left_mass, true),
            side(right_pairs, &right_w, &right_mass, false),
        )
    }

    /// The old `partition_categorical`: one filter walk over every
    /// column per bucket.
    fn per_bucket_categorical(
        root: &RootColumns,
        node: &NodeTuples,
        tuples: &[FractionalTuple<'_>],
        attribute: usize,
        cardinality: usize,
    ) -> Vec<NodeTuples> {
        let mut survive = vec![0.0; tuples.len()];
        (0..cardinality)
            .map(|v| {
                let (mut alive, mut weights) = (Vec::new(), Vec::new());
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
                for (&t, &w) in alive.iter().zip(&weights) {
                    survive[t as usize] = w;
                }
                let columns = node
                    .columns
                    .iter()
                    .zip(&root.columns)
                    .map(|(column, root_col)| two_pass_filter(column, root_col, &survive))
                    .collect();
                for &t in &alive {
                    survive[t as usize] = 0.0;
                }
                shrunk(NodeTuples {
                    alive,
                    weights,
                    columns,
                })
            })
            .collect()
    }

    type NodeBits = (Vec<u32>, Vec<u64>, Vec<(Vec<u32>, Vec<(u32, u64)>)>, u64);

    /// Everything a child carries, as bits, and its heap bytes.
    fn node_bits(node: &NodeTuples) -> NodeBits {
        let columns = node
            .columns
            .iter()
            .map(|c| {
                let scales = c.scales.iter().map(|&(t, s)| (t, s.to_bits())).collect();
                (c.events.clone(), scales)
            })
            .collect();
        (
            node.alive.clone(),
            bits(&node.weights),
            columns,
            node.heap_bytes(),
        )
    }

    /// The position of the middle event of `node`'s column `slot`: a
    /// split there has events at `x == z`.
    fn middle_position(root: &RootColumns, node: &NodeTuples, slot: usize) -> f64 {
        let events = &node.columns[slot].events;
        root.columns[slot].xs[events[events.len() / 2] as usize]
    }

    fn checked_numeric(
        root: &RootColumns,
        node: &NodeTuples,
        slot: usize,
        scratch: &mut Scratch,
        what: &str,
    ) -> (NodeTuples, NodeTuples) {
        let z = middle_position(root, node, slot);
        let mut stats = SearchStats::default();
        scratch.load_weights(node);
        let (left, right) = partition_numeric(root, node, slot, z, scratch, &mut stats);
        scratch.unload_weights(node);
        let (want_left, want_right) = two_pass_numeric(root, node, slot, z, scratch.n_tuples());
        assert_eq!(node_bits(&left), node_bits(&want_left), "{what}: left");
        assert_eq!(node_bits(&right), node_bits(&want_right), "{what}: right");
        assert_eq!(
            stats.partition_bytes,
            want_left.heap_bytes() + want_right.heap_bytes()
        );
        (left, right)
    }

    fn checked_categorical(
        root: &RootColumns,
        node: &NodeTuples,
        tuples: &[FractionalTuple<'_>],
        (attribute, cardinality): (usize, usize),
        scratch: &mut Scratch,
        what: &str,
    ) {
        let mut stats = SearchStats::default();
        scratch.load_weights(node);
        let buckets = partition_categorical(
            root,
            node,
            tuples,
            attribute,
            cardinality,
            scratch,
            &mut stats,
        );
        scratch.unload_weights(node);
        let want = per_bucket_categorical(root, node, tuples, attribute, cardinality);
        for (v, (got, want)) in buckets.iter().zip(&want).enumerate() {
            assert_eq!(node_bits(got), node_bits(want), "{what}: bucket {v}");
        }
        let want_bytes: u64 = want.iter().map(NodeTuples::heap_bytes).sum();
        assert_eq!(stats.partition_bytes, want_bytes, "{what}");
        // The fixture really has an empty bucket and tuples that land in
        // several buckets.
        assert!(buckets[cardinality - 1].alive.is_empty(), "{what}");
        let in_several = |&t: &u32| buckets.iter().filter(|b| b.alive.contains(&t)).count() > 1;
        assert!(node.alive.iter().any(in_several), "{what}");
    }

    /// Seeded tuples over a mixed schema: numerical attributes 0 and 2 on
    /// a half-unit grid, so splits meet sample points exactly, with
    /// zero-mass points among them, and categorical attribute 1 spread
    /// over several of its `cardinality` categories but never the last.
    fn mixed_tuples(seed: u64, cardinality: usize) -> Vec<FractionalTuple<'static>> {
        use rand::{Rng, SeedableRng};
        fn grid_pdf(rng: &mut rand_chacha::ChaCha8Rng) -> UncertainValue {
            let n = rng.gen_range(1..8usize);
            let (start, step) = (rng.gen_range(0..8usize), rng.gen_range(1..3usize));
            let points = (0..n).map(|k| 0.5 * (start + k * step) as f64).collect();
            let mut mass: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => 0.0,
                    _ => rng.gen_range(0.05..1.0),
                })
                .collect();
            mass[n / 2] = 0.5;
            UncertainValue::Numeric(SampledPdf::new(points, mass).unwrap())
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..60)
            .map(|i| {
                let first = grid_pdf(&mut rng);
                let mut probs: Vec<f64> = (0..cardinality)
                    .map(|_| match rng.gen_range(0..3usize) {
                        0 => 0.0,
                        _ => rng.gen_range(0.1..1.0),
                    })
                    .collect();
                probs[i % (cardinality - 1)] = 0.5;
                probs[cardinality - 1] = 0.0;
                let category =
                    UncertainValue::Categorical(udt_prob::DiscreteDist::new(probs).unwrap());
                FractionalTuple {
                    values: vec![first, category, grid_pdf(&mut rng)].into(),
                    label: i % 3,
                    // Every ninth tuple is dead.
                    weight: if i % 9 == 8 { 0.0 } else { 1.0 },
                }
            })
            .collect()
    }

    /// Splits the root on column 0, then each child again on column 0
    /// (whose split column now carries scales), on column 1, and over the
    /// categorical attribute when there is one, checking every partition
    /// against the two-pass oracle.
    fn check_partition_sequence(
        tuples: &[FractionalTuple<'_>],
        numerical: &[usize],
        categorical: Option<(usize, usize)>,
        what: &str,
    ) {
        let root = build_root_with(tuples, numerical, &WorkerPool::for_concurrency(1));
        let state = root_state(tuples, &root);
        let mut scratch = Scratch::new(tuples.len());
        let (left, right) = checked_numeric(&root, &state, 0, &mut scratch, what);
        for (side, child) in [("left", &left), ("right", &right)] {
            let what = format!("{what}, {side}");
            assert!(!child.columns[0].scales.is_empty(), "{what}");
            let (grandchild, _) = checked_numeric(&root, child, 0, &mut scratch, &what);
            assert!(!grandchild.columns[0].scales.is_empty(), "{what}");
            checked_numeric(&root, child, 1, &mut scratch, &what);
            if let Some(split) = categorical {
                checked_categorical(&root, child, tuples, split, &mut scratch, &what);
                checked_categorical(&root, &grandchild, tuples, split, &mut scratch, &what);
            }
        }
    }

    #[test]
    fn one_walk_partitions_match_the_two_pass_oracle_bit_for_bit() {
        for seed in [1, 2, 3, 2009] {
            let what = format!("adversarial seed {seed}");
            check_partition_sequence(&adversarial_tuples(seed), &[0, 1], None, &what);
        }
        // Cardinality 70 takes two groups of bucket masks.
        for (seed, cardinality) in [(5, 3), (6, 4), (7, 5), (8, 5), (9, 70)] {
            let tuples = mixed_tuples(seed, cardinality);
            let root = build_root_with(&tuples, &[0, 2], &WorkerPool::for_concurrency(1));
            assert!(root.columns[0].mass.contains(&0.0), "zero-mass points");
            let what = format!("mixed seed {seed}");
            check_partition_sequence(&tuples, &[0, 2], Some((1, cardinality)), &what);
        }
    }
}
