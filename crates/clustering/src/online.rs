//! The online-clustering engine (paper §4, Algorithm 1).
//!
//! Maintains `|C|` clusters over an endless packet stream. Every packet is
//! seen exactly once and triggers an irrevocable action (the
//! online-clustering framework of Def. 4.2):
//!
//! * **Fast search** (deployable on Tofino): assign the packet to its
//!   closest cluster and expand that cluster to cover it.
//! * **Exhaustive search** (simulation upper bound): additionally consider
//!   merging the two closest clusters and starting a fresh cluster at the
//!   packet, choosing whichever action increases total cost least.
//!
//! Distances: Manhattan and Anime operate on range-based clusters;
//! Euclidean on center-based clusters — the design space of §4.2.

use crate::cluster::{CenterCluster, Dim, NominalMode, RangeCluster};
use crate::feature::{FeatureBatch, FeatureKind, FeatureSet};
use crate::kernel::{
    batch_nearest, block_gaps, narrow_nearest, nearest_portable, slot_gap, BatchNearest, Lane,
    LaneColumns, Lanes, Nearest,
};
use accturbo_netsim::Packet;

/// Reference (pre-specialization) kernel control, compiled only with the
/// `reference` cargo feature. The differential tests and the
/// `xp bench-export` baseline flip this switch to run the original
/// per-cluster `DistanceKind`-matched scan side by side with the
/// specialized kernels and assert byte-identical figure output.
#[cfg(feature = "reference")]
pub mod reference {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FORCE: AtomicBool = AtomicBool::new(false);

    /// Forces every [`OnlineClusterer`](super::OnlineClusterer)
    /// constructed *after* this call to use the original generic distance
    /// scan instead of the specialized kernels. The flag is sampled once
    /// at construction so the per-packet path stays branch-predictable.
    pub fn force_reference_kernels(on: bool) {
        FORCE.store(on, Ordering::SeqCst);
    }

    /// Whether reference kernels are currently forced.
    pub fn reference_kernels_forced() -> bool {
        FORCE.load(Ordering::SeqCst)
    }
}

/// A specialized nearest-cluster scan over range representations: one
/// pass, no per-cluster `DistanceKind` dispatch. Returns the first index
/// attaining the minimum distance (ties keep the earliest slot, exactly
/// like the original strict `d < best` scan).
type RangeScan = fn(&[Option<Repr>], &[u32]) -> Option<(usize, f64)>;

/// A specialized pairwise merge-cost kernel for range representations.
type RangeMergeCost = fn(&RangeCluster, &RangeCluster) -> f64;

fn scan_manhattan(clusters: &[Option<Repr>], values: &[u32]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, u64)> = None;
    let mut bound = u64::MAX;
    for (i, slot) in clusters.iter().enumerate() {
        let Some(Repr::Range(c)) = slot else { continue };
        // Any partial sum >= bound is rejected below exactly like the full
        // distance would be, so the early exit never changes the winner.
        let d = c.manhattan_bounded(values, bound);
        if best.is_none() || d < bound {
            best = Some((i, d));
            bound = d;
            if d == 0 {
                // Covered: no later cluster can beat a strict `< 0`.
                break;
            }
        }
    }
    best.map(|(i, d)| (i, d as f64))
}

fn scan_anime(clusters: &[Option<Repr>], values: &[u32]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, slot) in clusters.iter().enumerate() {
        let Some(Repr::Range(c)) = slot else { continue };
        let d = c.anime(values);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best
}

/// Per-slot window bookkeeping in three flat columns of `width`-long
/// rows: row `k` of `lo` / `hi` is the per-feature min / max of every
/// value *assigned* to slot `k` this window, row `k` of `rep` the last
/// vector assigned to it, and the extra last row of `lo` / `hi` the
/// range of every value observed since the last reset. An empty range is
/// `lo = u32::MAX, hi = 0` on every feature, so recording is a
/// branch-free min/max and "empty" is `lo[0] > hi[0]`; a slot has a
/// representative exactly when its window range is non-empty (both are
/// written by every assignment and cleared by every reset). Separate
/// columns keep every block of the default profile below 1 KiB; a
/// single interleaved buffer measured about 5% slower per packet on the
/// CICDDoS attack day (DESIGN.md §14).
///
/// The observed row is not written per packet. Every assigned value is
/// recorded in exactly one slot's window row, and only a reset clears
/// the window rows, so the range observed since the last reset is always
/// their union: [`derive_observed`] folds them into the last row at the
/// reset that reads it. Widening one shared row on every packet made the
/// whole stream one serial dependency chain.
///
/// [`derive_observed`]: Ledger::derive_observed
#[derive(Debug, Clone)]
struct Ledger {
    width: usize,
    slots: usize,
    lo: Vec<u32>,
    hi: Vec<u32>,
    rep: Vec<u32>,
}

impl Ledger {
    fn new(slots: usize, width: usize) -> Self {
        Ledger {
            width,
            slots,
            lo: vec![u32::MAX; (slots + 1) * width],
            hi: vec![0; (slots + 1) * width],
            rep: vec![0; slots * width],
        }
    }

    fn row(&self, k: usize) -> std::ops::Range<usize> {
        k * self.width..(k + 1) * self.width
    }

    /// Row `k`'s range, `None` when empty.
    fn range(&self, k: usize) -> Option<(&[u32], &[u32])> {
        let (lo, hi) = (&self.lo[self.row(k)], &self.hi[self.row(k)]);
        (lo[0] <= hi[0]).then_some((lo, hi))
    }

    /// Records `values` as assigned to slot `k`, in one pass over the
    /// row: widens slot `k`'s window range to cover them and makes them
    /// the slot's representative.
    fn record(&mut self, k: usize, values: &[u32]) {
        debug_assert!(k < self.slots);
        let row = self.row(k);
        let slot = self.lo[row.clone()]
            .iter_mut()
            .zip(&mut self.hi[row.clone()]);
        for (((l, h), r), &v) in slot.zip(&mut self.rep[row]).zip(values) {
            *l = (*l).min(v);
            *h = (*h).max(v);
            *r = v;
        }
    }

    /// Writes the union of the slot window rows into the observed row:
    /// the range of every value assigned since the last reset.
    fn derive_observed(&mut self) {
        let observed = self.row(self.slots);
        let (lo, obs_lo) = self.lo.split_at_mut(observed.start);
        let (hi, obs_hi) = self.hi.split_at_mut(observed.start);
        obs_lo.fill(u32::MAX);
        obs_hi.fill(0);
        for (lo, hi) in lo.chunks_exact(self.width).zip(hi.chunks_exact(self.width)) {
            for ((ol, oh), (&l, &h)) in obs_lo
                .iter_mut()
                .zip(obs_hi.iter_mut())
                .zip(lo.iter().zip(hi))
            {
                *ol = (*ol).min(l);
                *oh = (*oh).max(h);
            }
        }
    }

    /// Per-feature `(lo, hi)` of every value observed since the last
    /// reset, as of the last [`derive_observed`](Self::derive_observed);
    /// `None` when nothing was.
    fn observed(&self) -> Option<(&[u32], &[u32])> {
        self.range(self.slots)
    }

    /// Slot `k`'s per-feature window range; `None` when no traffic was
    /// assigned to it this window (or `k` is out of range).
    fn window(&self, k: usize) -> Option<(&[u32], &[u32])> {
        (k < self.slots).then(|| self.range(k)).flatten()
    }

    /// The last vector assigned to slot `k` this window, if any.
    fn representative(&self, k: usize) -> Option<&[u32]> {
        self.window(k)?;
        Some(&self.rep[self.row(k)])
    }

    /// Clears every slot's window range, and with them the observed
    /// range, their union.
    fn clear_windows(&mut self) {
        let end = self.slots * self.width;
        self.lo[..end].fill(u32::MAX);
        self.hi[..end].fill(0);
    }
}

fn merge_cost_manhattan(a: &RangeCluster, b: &RangeCluster) -> f64 {
    a.manhattan_merge_cost(b) as f64
}

fn merge_cost_anime(a: &RangeCluster, b: &RangeCluster) -> f64 {
    a.anime_merge_cost(b)
}

/// Distance function (paper §4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// Sum of per-feature gaps — deployable (linear output space).
    Manhattan,
    /// Product-volume increase — the faithful cost of Def. 4.1 (needs up
    /// to 2^157, so not deployable; computed in `f64` here).
    Anime,
    /// Squared distance to a centroid (center-based representation).
    Euclidean,
}

/// Search strategy (paper §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Linear scan, assign-to-nearest only (deployable).
    Fast,
    /// Also consider merging two clusters to free a slot (quadratic).
    Exhaustive,
}

/// How cluster slots are (re-)initialized.
///
/// Algorithm 1 in the paper *requires* initial ranges ("Require: `p`: New
/// packet, `min`, `max`: Initial ranges"): clusters exist before the first
/// packet and are never empty. [`InitMode::Anchors`] implements that:
/// slot `k` starts as a singleton at the diagonal point
/// `(2k+1)·space_f / 2|C|` of every feature's value space, so slots have
/// stable spatial semantics across resets and a high-rate attack cannot
/// monopolize them. [`InitMode::FromTraffic`] is the classic
/// online-clustering alternative (first packets seed the slots), kept for
/// the initialization ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMode {
    /// Pre-initialized singleton clusters on the feature-space diagonal.
    Anchors,
    /// Empty slots seeded by the first arriving packets.
    FromTraffic,
}

/// Configuration of the clustering engine.
#[derive(Debug, Clone)]
pub struct ClusteringConfig {
    /// Number of cluster slots `|C|`.
    pub num_clusters: usize,
    /// The features to cluster on.
    pub features: FeatureSet,
    /// Distance function (also selects the representation).
    pub distance: DistanceKind,
    /// Search strategy.
    pub search: SearchKind,
    /// Nominal-feature set storage.
    pub nominal: NominalMode,
    /// Learning rate for center-based updates (§4.2.2).
    pub learning_rate: f64,
    /// Cluster initialization.
    pub init: InitMode,
    /// Maximum total range *growth* (in Manhattan-cost units) per cluster
    /// per window (`None` = unlimited). Models the Tofino prototype's
    /// resubmission-based cluster update (§6): resubmission bandwidth is
    /// scarce, so a cluster can only grow a bounded amount between polls.
    /// Packets beyond the budget are still assigned to their nearest
    /// cluster but no longer expand it — which keeps a hot cluster from
    /// snowballing across the feature space within one control period.
    pub update_budget: Option<u64>,
    /// How a cluster's re-seeding representative is chosen at each reset.
    pub rep: RepMode,
}

/// Where an active cluster re-seeds at a reset (anchor initialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepMode {
    /// The last packet assigned in the window (a per-cluster register
    /// overwritten per packet): biased toward the cluster's dominant
    /// flow, so a high-rate attack becomes its own seed within a window.
    LastPacket,
    /// The midpoint of the cluster's final ranges (read from the same
    /// min/max registers the controller already polls): more stable for
    /// diffuse benign clusters, slower to lock onto a new attack.
    RangeMidpoint,
}

impl ClusteringConfig {
    /// The deployable configuration ACC-Turbo ships: Manhattan distance,
    /// fast search, exact nominal sets, anchor initialization (Alg. 1).
    pub fn deployable(num_clusters: usize, features: FeatureSet) -> Self {
        ClusteringConfig {
            num_clusters,
            features,
            distance: DistanceKind::Manhattan,
            search: SearchKind::Fast,
            nominal: NominalMode::Exact,
            learning_rate: 0.3,
            init: InitMode::Anchors,
            update_budget: Some(256),
            rep: RepMode::LastPacket,
        }
    }

    /// Switches to traffic seeding (the initialization ablation).
    pub fn with_init(mut self, init: InitMode) -> Self {
        self.init = init;
        self
    }

    /// Overrides the per-cluster per-window growth budget.
    pub fn with_update_budget(mut self, budget: Option<u64>) -> Self {
        self.update_budget = budget;
        self
    }

    /// Overrides the representative mode.
    pub fn with_rep(mut self, rep: RepMode) -> Self {
        self.rep = rep;
        self
    }
}

/// What happened structurally when a packet was assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignAction {
    /// The packet was already covered (or absorbed without growth).
    Covered,
    /// An empty/reused slot was seeded at the packet.
    Seeded,
    /// Two clusters merged to free the slot, which was seeded at the
    /// packet (exhaustive search only).
    Merged {
        /// The slot that was emptied (and re-seeded at the packet).
        from: u32,
        /// The slot that absorbed `from`'s extent and counters.
        into: u32,
    },
    /// The nearest cluster expanded (or would have, absent budget) to
    /// admit the packet; `grew` is whether it actually changed shape.
    Expanded {
        /// Whether the cluster's geometry actually grew.
        grew: bool,
    },
}

/// One packet's assignment record: its cluster, its distance to it
/// before any expansion, and what the assignment did to the clusters;
/// all a per-packet observer needs. `u32` indices keep a record at 24
/// bytes, so a batch of them shares L1 with its packets and features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Index of the cluster the packet was assigned to.
    pub cluster: u32,
    /// Distance from the packet to that cluster before expansion
    /// (0 when the packet was covered or seeded a slot).
    pub distance: f64,
    /// What the assignment did to the clusters.
    pub action: AssignAction,
}

/// One cluster's internal representation.
#[derive(Debug, Clone)]
pub enum Repr {
    /// Range-based (Manhattan / Anime).
    Range(RangeCluster),
    /// Center-based (Euclidean).
    Center(CenterCluster),
}

/// Per-cluster traffic counters since the last [`OnlineClusterer::take_window`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Packets assigned in the window.
    pub pkts: u64,
    /// Bytes assigned in the window.
    pub bytes: u64,
}

/// The online clustering engine.
#[derive(Debug, Clone)]
pub struct OnlineClusterer {
    cfg: ClusteringConfig,
    clusters: Vec<Option<Repr>>,
    window: Vec<WindowStats>,
    totals: Vec<WindowStats>,
    scratch: Vec<u32>,
    /// The per-packet bookkeeping, in flat columns (see [`Ledger`]):
    ///
    /// * Per-feature (min, max) of every value observed since the last
    ///   reset, derived at the reset from the window ranges below.
    ///   Under anchor initialization, the next reset spreads the
    ///   anchors of *idle* slots over these ranges, so the anchor grid
    ///   adapts to the value ranges traffic actually uses (declared
    ///   field widths like ip.len's 16 bits are mostly unused; see
    ///   DESIGN.md §4).
    /// * Per-cluster per-feature (min, max) of every value *assigned* in
    ///   the current window — independent of the budget-limited
    ///   geometry. This is what the P4 min/max registers report to the
    ///   controller, and it is what the `/Size` rankings divide by: the
    ///   cluster's statistical spread, not its (stabilized) geometric
    ///   shape.
    /// * The *last* feature vector assigned to each cluster in the
    ///   current window. At the next reset each active slot is re-seeded
    ///   at its representative, so slots track the traffic aggregates
    ///   they captured. "Last packet" is (a) trivially implementable in
    ///   the data plane (a per-cluster register overwritten on every
    ///   packet, read by the control plane at the poll) and (b) biased
    ///   toward the cluster's dominant flow — exactly the property that
    ///   makes a high-rate attack become its own seed and release any
    ///   benign traffic it dragged in.
    ///
    /// Sized once at construction, so steady state allocates nothing.
    ledger: Ledger,
    /// Remaining growth budget per cluster in the current window.
    budget: Vec<u64>,
    /// Scratch for re-seed points at resets (reused across resets).
    point_scratch: Vec<u32>,
    /// Lane-blocked columns of the range clusters' ordinal extents — the
    /// store the default Manhattan scan reads. Maintained at every
    /// geometry mutation (seed, admit, merge, reset) with the same
    /// O(width) writes the mutation itself performs.
    lanes: LaneColumns,
    /// Range slots fill lowest index first, are re-seeded in place
    /// (merges) and vacate all at once (resets), so the occupied range
    /// slots are always exactly `0..live`: the scan's bound, and `live`
    /// is the first empty range slot when below `num_clusters`.
    live: usize,
    /// Feature positions holding nominal (set-based) dimensions, in
    /// order — the second pass of the lane scan.
    nominal_dims: Vec<usize>,
    /// The ordinal-only `i32`-lane scan, resolved from the CPU once at
    /// construction (AVX2 or portable).
    narrow: Nearest<i32>,
    /// The batch pass of [`assign_batch`](Self::assign_batch), resolved
    /// like `narrow`.
    batch_kernel: BatchNearest,
    /// Per-packet nearest distance and slot of the batch in flight, and
    /// the slots admissions have grown since its batch pass; grown on the
    /// first batch, so construction allocates nothing here.
    batch_best: Vec<i32>,
    batch_arg: Vec<u32>,
    batch_grown: Vec<usize>,
    /// Nearest-cluster scan kernel, resolved from `cfg.distance` once at
    /// construction (never consulted in Euclidean mode, which is
    /// center-based and has its own kernel).
    range_scan: RangeScan,
    /// Pairwise merge-cost kernel for exhaustive search, resolved once at
    /// construction.
    range_merge_cost: RangeMergeCost,
    /// Snapshot of [`reference::reference_kernels_forced`] taken at
    /// construction; always `false` without the `reference` feature.
    use_reference: bool,
}

impl OnlineClusterer {
    /// Creates an engine with all cluster slots empty; the first packets
    /// seed them (the standard online-clustering initialization).
    pub fn new(cfg: ClusteringConfig) -> Self {
        assert!(cfg.num_clusters >= 1, "need at least one cluster");
        assert!(
            cfg.learning_rate > 0.0 && cfg.learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        if cfg.search == SearchKind::Exhaustive {
            assert!(
                matches!(cfg.nominal, NominalMode::Exact),
                "exhaustive merges require exact nominal sets"
            );
        }
        let n = cfg.num_clusters;
        let (range_scan, range_merge_cost): (RangeScan, RangeMergeCost) = match cfg.distance {
            DistanceKind::Manhattan => (scan_manhattan, merge_cost_manhattan),
            DistanceKind::Anime => (scan_anime, merge_cost_anime),
            // Euclidean mode is center-based; these kernels are never
            // consulted, any valid pair keeps the fields total.
            DistanceKind::Euclidean => (scan_manhattan, merge_cost_manhattan),
        };
        #[cfg(feature = "reference")]
        let use_reference = reference::reference_kernels_forced();
        #[cfg(not(feature = "reference"))]
        let use_reference = false;
        let width = cfg.features.len();
        let lanes = LaneColumns::new(&cfg.features, n);
        let nominal_dims: Vec<usize> = cfg
            .features
            .specs()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == FeatureKind::Nominal)
            .map(|(f, _)| f)
            .collect();
        let mut oc = OnlineClusterer {
            cfg,
            clusters: vec![None; n],
            window: vec![WindowStats::default(); n],
            totals: vec![WindowStats::default(); n],
            scratch: Vec::new(),
            ledger: Ledger::new(n, width),
            budget: vec![0; n],
            point_scratch: Vec::with_capacity(width),
            lanes,
            live: 0,
            nominal_dims,
            narrow: narrow_nearest(),
            batch_kernel: batch_nearest(),
            batch_best: Vec::new(),
            batch_arg: Vec::new(),
            batch_grown: Vec::new(),
            range_scan,
            range_merge_cost,
            use_reference,
        };
        oc.init_clusters();
        oc
    }

    /// Rewrites slot `i`'s lanes from its cluster's current dimensions
    /// (empty and center slots leave the occupied prefix).
    fn sync_lanes(&mut self, i: usize) {
        let w = self.cfg.features.len();
        match &self.clusters[i] {
            Some(Repr::Range(c)) => {
                let extents = c
                    .dims()
                    .iter()
                    .zip(self.cfg.features.specs())
                    .map(|(dim, spec)| {
                        match dim {
                            Dim::Range { min, max } => (*min, *max),
                            // Zero ordinal gap for every in-range value: set
                            // membership is resolved in the scan's second pass.
                            Dim::Set(_) => (0, (spec.feature.space() - 1) as u32),
                        }
                    });
                self.lanes.set_slot(w, i, extents);
                debug_assert!(i <= self.live, "range slots fill lowest index first");
                self.live = self.live.max(i + 1);
            }
            _ => self.live = self.live.min(i),
        }
    }

    fn sync_all_lanes(&mut self) {
        for i in 0..self.clusters.len() {
            self.sync_lanes(i);
        }
    }

    /// The anchor coordinate of slot `k` on feature `f`: the diagonal
    /// point of the per-feature range `observed` since the last reset
    /// (the declared field width before any traffic has been seen).
    fn anchor_coord(&self, k: usize, f: usize, observed: Option<(&[u32], &[u32])>) -> u32 {
        let n = self.cfg.num_clusters as u64;
        let (lo, hi) = match observed {
            Some((lo, hi)) => (lo[f] as u64, hi[f] as u64),
            None => (0, self.cfg.features.specs()[f].feature.space() - 1),
        };
        let span = hi - lo + 1;
        (lo + ((2 * k as u64 + 1) * span) / (2 * n)).min(hi) as u32
    }

    /// Writes the full anchor point of slot `k` into `out`.
    fn anchor_into(&self, k: usize, out: &mut Vec<u32>) {
        out.clear();
        let observed = self.ledger.observed();
        for f in 0..self.cfg.features.len() {
            out.push(self.anchor_coord(k, f, observed));
        }
    }

    /// Writes the midpoint of cluster `k`'s current representation into
    /// `out`; returns `false` (leaving `out` untouched) for empty slots.
    fn midpoint_into(&self, k: usize, out: &mut Vec<u32>) -> bool {
        match &self.clusters[k] {
            Some(Repr::Range(c)) => {
                out.clear();
                for (f, dim) in c.dims().iter().enumerate() {
                    out.push(match dim {
                        Dim::Range { min, max } => min + (max - min) / 2,
                        // Sets have no midpoint; fall back to the anchor
                        // coordinate for this feature.
                        Dim::Set(_) => self.anchor_coord(k, f, self.ledger.observed()),
                    });
                }
                true
            }
            Some(Repr::Center(c)) => {
                out.clear();
                out.extend(c.center().iter().map(|&v| v as u32));
                true
            }
            None => false,
        }
    }

    /// (Re-)seeds slot `k` at `point`, reusing the slot's existing
    /// representation storage when its kind already matches.
    fn seed_slot(&mut self, k: usize, point: &[u32]) {
        match (self.cfg.distance, &mut self.clusters[k]) {
            (DistanceKind::Euclidean, Some(Repr::Center(c))) => c.reseed(point),
            (DistanceKind::Euclidean, slot) => {
                *slot = Some(Repr::Center(CenterCluster::seed(point)));
            }
            (_, Some(Repr::Range(c))) => c.reseed(point),
            (_, slot) => {
                *slot = Some(Repr::Range(RangeCluster::seed(
                    &self.cfg.features,
                    point,
                    &self.cfg.nominal,
                )));
            }
        }
    }

    fn init_clusters(&mut self) {
        match self.cfg.init {
            InitMode::FromTraffic => {
                self.clusters.iter_mut().for_each(|c| *c = None);
            }
            InitMode::Anchors => {
                // The anchors spread over the ranges observed since the
                // last reset.
                self.ledger.derive_observed();
                let mut point = std::mem::take(&mut self.point_scratch);
                for k in 0..self.cfg.num_clusters {
                    // Active slots re-seed at their representative; idle
                    // slots fall back to the diagonal anchor over the
                    // observed ranges.
                    match (self.cfg.rep, self.ledger.representative(k)) {
                        (RepMode::RangeMidpoint, Some(_)) => {
                            if !self.midpoint_into(k, &mut point) {
                                self.anchor_into(k, &mut point);
                            }
                        }
                        (_, Some(rep)) => {
                            point.clear();
                            point.extend_from_slice(rep);
                        }
                        (_, None) => self.anchor_into(k, &mut point),
                    }
                    self.seed_slot(k, &point);
                }
                self.point_scratch = point;
            }
        }
        self.ledger.clear_windows();
        let budget = self.cfg.update_budget.unwrap_or(u64::MAX);
        self.budget.iter_mut().for_each(|b| *b = budget);
        self.sync_all_lanes();
    }

    /// The configuration.
    pub fn config(&self) -> &ClusteringConfig {
        &self.cfg
    }

    /// Number of cluster slots.
    pub fn num_clusters(&self) -> usize {
        self.cfg.num_clusters
    }

    /// Assigns `pkt` to a cluster and returns the cluster index.
    pub fn assign(&mut self, pkt: &Packet) -> usize {
        self.assign_record(pkt).cluster as usize
    }

    /// Like [`assign`](Self::assign), but returns the packet's whole
    /// [`Assignment`] record.
    pub fn assign_record(&mut self, pkt: &Packet) -> Assignment {
        let mut values = std::mem::take(&mut self.scratch);
        self.cfg.features.extract_into(pkt, &mut values);
        let record = self.assign_values_inner(&values, pkt.size);
        self.scratch = values;
        record
    }

    /// Assigns a pre-extracted feature vector carrying `bytes` of payload.
    ///
    /// `values` holds one value per feature, in [`FeatureSet`] order, and
    /// each value must lie below its feature's
    /// [`space`](crate::Feature::space) — exactly what
    /// [`FeatureSet::extract_into`] produces. The nearest-cluster kernel's
    /// lanes are exact only inside that range. The arity is always
    /// checked; the range only in debug builds.
    pub fn assign_values(&mut self, values: &[u32], bytes: u32) -> usize {
        self.assign_values_inner(values, bytes).cluster as usize
    }

    /// Assigns every packet of `batch`, in order, and writes their
    /// [`Assignment`] records into `out` (cleared first): exactly
    /// [`assign_values`](Self::assign_values) on each packet's feature
    /// vector and byte count in turn, with the same records, clusters,
    /// counters, window ranges and geometry afterwards. The values obey
    /// the same contract.
    ///
    /// On the deployable configuration (Manhattan distance, fast search,
    /// ordinal features in `i32` lanes) with every slot occupied, only
    /// admitting a packet changes geometry, so the batch is first
    /// classified against the frozen geometry in one packet-major pass
    /// (eight packets per vector, one cluster and one feature at a time,
    /// a vertical minimum with the first slot kept on ties). The commit
    /// then walks the batch in order. A packet first re-checks the slots
    /// admissions have grown since the pass (growth only shrinks a slot's
    /// distances and leaves the others' alone, so the nearest slot is
    /// the pass's, or a grown slot strictly nearer, or equally near with
    /// a lower index). A zero distance is covered; otherwise the packet
    /// is admitted within the slot's budget. A batch with no growth pays
    /// nothing for the re-check, and one where every packet grows a slot
    /// pays at most a scalar scan per packet. Any other configuration (seeding, merges,
    /// nominal sets, `i64` lanes, Anime or Euclidean distance, forced
    /// reference kernels) runs `assign_values` per packet.
    pub fn assign_batch(&mut self, batch: &FeatureBatch, out: &mut Vec<Assignment>) {
        out.clear();
        let frozen = !self.use_reference
            && self.cfg.distance == DistanceKind::Manhattan
            && self.cfg.search == SearchKind::Fast
            && self.nominal_dims.is_empty()
            && self.live == self.cfg.num_clusters;
        let lanes = match &self.lanes {
            LaneColumns::Narrow(lanes) if frozen => lanes,
            _ => {
                for j in 0..batch.len() {
                    out.push(self.assign_values_inner(batch.row(j), batch.bytes(j)));
                }
                return;
            }
        };
        let (w, n, stride) = (batch.width(), batch.len(), batch.stride());
        assert_eq!(w, self.cfg.features.len(), "feature vector arity mismatch");
        let cols = batch.columns();
        let (mut best, mut arg, mut grown) = (
            std::mem::take(&mut self.batch_best),
            std::mem::take(&mut self.batch_arg),
            std::mem::take(&mut self.batch_grown),
        );
        best.resize(stride, 0);
        arg.resize(stride, 0);
        grown.clear();
        (self.batch_kernel)(lanes, w, self.live, cols, stride, &mut best, &mut arg);
        for j in 0..n {
            let values = batch.row(j);
            self.debug_assert_in_range(values);
            let (mut i, mut d) = (arg[j] as usize, best[j]);
            if !grown.is_empty() {
                let LaneColumns::Narrow(lanes) = &self.lanes else {
                    unreachable!("the lane type is fixed at construction")
                };
                for &c in &grown {
                    let dc = slot_gap(lanes, w, c, values);
                    if (dc, c) < (d, i) {
                        (d, i) = (dc, c);
                    }
                }
            }
            let d = d as u64;
            let grew = d > 0 && self.budget[i] >= d;
            if grew {
                self.budget[i] -= d;
                let Some(Repr::Range(c)) = self.clusters[i].as_mut() else {
                    unreachable!("every slot is occupied")
                };
                c.admit(values);
                self.sync_lanes(i);
                if !grown.contains(&i) {
                    grown.push(i);
                }
            }
            self.count(i, values, batch.bytes(j));
            out.push(Assignment {
                cluster: i as u32,
                distance: d as f64,
                action: match d {
                    0 => AssignAction::Covered,
                    _ => AssignAction::Expanded { grew },
                },
            });
        }
        self.batch_best = best;
        self.batch_arg = arg;
        self.batch_grown = grown;
    }

    /// Debug-build check of the value-range contract of
    /// [`assign_values`](Self::assign_values).
    fn debug_assert_in_range(&self, values: &[u32]) {
        debug_assert_eq!(values.len(), self.cfg.features.len());
        for (spec, &v) in self.cfg.features.specs().iter().zip(values) {
            debug_assert!(
                u64::from(v) < spec.feature.space(),
                "feature value {v} out of range for {}",
                spec.feature
            );
        }
    }

    fn assign_values_inner(&mut self, values: &[u32], bytes: u32) -> Assignment {
        assert_eq!(
            values.len(),
            self.cfg.features.len(),
            "feature vector arity mismatch"
        );
        self.debug_assert_in_range(values);
        let (cluster, distance, action) = match self.cfg.distance {
            DistanceKind::Euclidean => self.assign_center(values),
            _ => self.assign_range(values),
        };
        self.count(cluster, values, bytes);
        Assignment {
            cluster: cluster as u32,
            distance,
            action,
        }
    }

    /// Books `values` (`bytes` of payload) to slot `idx`: the ledger and
    /// the window and total counters.
    fn count(&mut self, idx: usize, values: &[u32], bytes: u32) {
        self.ledger.record(idx, values);
        self.window[idx].pkts += 1;
        self.window[idx].bytes += bytes as u64;
        self.totals[idx].pkts += 1;
        self.totals[idx].bytes += bytes as u64;
    }

    /// The original generic scan: per-cluster dispatch on
    /// `cfg.distance`, full (unbounded) distances. The baseline the
    /// specialized kernels are benchmarked and differentially tested
    /// against.
    #[cfg(feature = "reference")]
    fn scan_range_reference(&self, values: &[u32]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, slot) in self.clusters.iter().enumerate() {
            if let Some(Repr::Range(c)) = slot {
                let d = match self.cfg.distance {
                    DistanceKind::Manhattan => c.manhattan_reference(values) as f64,
                    DistanceKind::Anime => c.anime(values),
                    DistanceKind::Euclidean => unreachable!("handled separately"),
                };
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
        }
        best
    }

    #[cfg(not(feature = "reference"))]
    fn scan_range_reference(&self, _values: &[u32]) -> Option<(usize, f64)> {
        unreachable!("reference kernels require the `reference` cargo feature")
    }

    /// The lane-blocked Manhattan scan: per block of sixteen clusters, a
    /// branch-free fixed-width pass over the feature-major min/max lanes,
    /// then the block's argmin. With only ordinal features the argmin is
    /// branch-free too: the minimum over the live lanes and the first
    /// lane equal to it, in AVX2 intrinsics for `i32` lanes when the CPU
    /// has them and in the portable body otherwise. With nominal
    /// features the portable gap pass is followed by an in-order pass
    /// that runs the set lookups only for clusters whose ordinal gap is
    /// still below the running best. Winner and
    /// tie-break are exactly those of [`scan_aos`](Self::scan_aos): a
    /// full ordinal gap at or above the running bound is rejected
    /// precisely like a bounded partial sum would be (the
    /// `manhattan_bounded` argument), the first index attaining the
    /// minimum wins, and a zero distance ends the scan. `values` must
    /// obey the contract of [`assign_values`](Self::assign_values).
    pub fn scan_soa(&self, values: &[u32]) -> Option<(usize, f64)> {
        debug_assert_eq!(self.cfg.distance, DistanceKind::Manhattan);
        self.debug_assert_in_range(values);
        let (w, live) = (self.cfg.features.len(), self.live);
        let best = match (&self.lanes, self.nominal_dims.is_empty()) {
            (LaneColumns::Narrow(lanes), true) => (self.narrow)(lanes, w, live, values),
            (LaneColumns::Wide(lanes), true) => nearest_portable(lanes, w, live, values),
            (LaneColumns::Narrow(lanes), false) => self.scan_nominal(lanes, values),
            (LaneColumns::Wide(lanes), false) => self.scan_nominal(lanes, values),
        };
        best.map(|(i, d)| (i, d as f64))
    }

    /// The lane scan with nominal dimensions: per block, the ordinal gap
    /// sums, then an in-order pass that adds the set misses of each lane
    /// still below the running best.
    fn scan_nominal<L: Lane>(&self, lanes: &Lanes<L>, values: &[u32]) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        let mut bound = u64::MAX;
        for (base, mins, maxs) in lanes.blocks(self.cfg.features.len(), self.live) {
            let gaps = block_gaps(mins, maxs, values);
            for (j, gap) in gaps.iter().enumerate().take(self.live - base) {
                let mut d = gap.distance();
                // Nominal misses only add: a lane already at the bound
                // cannot win.
                if d >= bound {
                    continue;
                }
                let i = base + j;
                let Some(Repr::Range(c)) = &self.clusters[i] else {
                    unreachable!("occupied lane implies a range cluster")
                };
                let dims = c.dims();
                for &k in &self.nominal_dims {
                    let Dim::Set(set) = &dims[k] else {
                        unreachable!("nominal_dims indexes set dimensions")
                    };
                    d += u64::from(!set.contains(values[k]));
                    if d >= bound {
                        break;
                    }
                }
                if d < bound {
                    best = Some((i, d));
                    bound = d;
                    if d == 0 {
                        // Covered: no later cluster can beat a strict `< 0`.
                        return best;
                    }
                }
            }
        }
        best
    }

    /// The per-cluster (array-of-structs) scan the lane-blocked kernel
    /// replaced on the Manhattan path — kept as the benchmark baseline and
    /// differential oracle for [`scan_soa`](Self::scan_soa). For other
    /// distances this *is* the live kernel.
    pub fn scan_aos(&self, values: &[u32]) -> Option<(usize, f64)> {
        (self.range_scan)(&self.clusters, values)
    }

    fn assign_range(&mut self, values: &[u32]) -> (usize, f64, AssignAction) {
        // Distance to every occupied slot, via the column scan (the
        // Manhattan default), the kernel resolved at construction, or
        // the original generic scan when forced.
        let best = if self.use_reference {
            self.scan_range_reference(values)
        } else if self.cfg.distance == DistanceKind::Manhattan {
            self.scan_soa(values)
        } else {
            (self.range_scan)(&self.clusters, values)
        };

        match best {
            // Covered by an existing cluster: no growth needed.
            Some((i, d)) if d <= 0.0 => (i, 0.0, AssignAction::Covered),
            // Not covered. An empty slot (initialization phase) always
            // wins: seeding costs nothing.
            _ if self.live < self.clusters.len() => {
                let slot = self.live;
                debug_assert_eq!(Some(slot), self.first_empty());
                self.clusters[slot] = Some(Repr::Range(RangeCluster::seed(
                    &self.cfg.features,
                    values,
                    &self.cfg.nominal,
                )));
                self.sync_lanes(slot);
                (slot, 0.0, AssignAction::Seeded)
            }
            Some((i, d)) => {
                if self.cfg.search == SearchKind::Exhaustive {
                    if let Some((a, b, merge_cost)) = self.cheapest_range_merge() {
                        // Hysteresis: only restructure when merging is
                        // *clearly* cheaper than expanding — a bare
                        // `merge_cost < d` lets every far outlier trigger a
                        // merge of two nearby clusters, cascading until one
                        // mega-cluster absorbs the space.
                        if merge_cost * 4.0 < d {
                            // Merge b into a, seed b with the new packet.
                            let other = self.clusters[b].take().expect("occupied");
                            let Repr::Range(other) = other else {
                                unreachable!("range mode holds range clusters")
                            };
                            let Some(Repr::Range(target)) = self.clusters[a].as_mut() else {
                                unreachable!("range mode holds range clusters")
                            };
                            target.merge(&other);
                            self.fold_stats(b, a);
                            self.clusters[b] = Some(Repr::Range(RangeCluster::seed(
                                &self.cfg.features,
                                values,
                                &self.cfg.nominal,
                            )));
                            self.sync_lanes(a);
                            self.sync_lanes(b);
                            return (
                                b,
                                0.0,
                                AssignAction::Merged {
                                    from: b as u32,
                                    into: a as u32,
                                },
                            );
                        }
                    }
                }
                // The Manhattan distance *is* the cost growth admitting
                // the packet would cause; only admit within budget.
                let growth = d as u64;
                let grew = self.budget[i] >= growth;
                if grew {
                    self.budget[i] -= growth;
                    let Some(Repr::Range(c)) = self.clusters[i].as_mut() else {
                        unreachable!("best index is occupied")
                    };
                    c.admit(values);
                    self.sync_lanes(i);
                }
                (i, d, AssignAction::Expanded { grew })
            }
            None => unreachable!("no clusters and no empty slot is impossible"),
        }
    }

    /// The original center scan: full (unbounded) squared distances.
    #[cfg(feature = "reference")]
    fn scan_center_reference(&self, values: &[u32]) -> (usize, f64) {
        let mut best: (usize, f64) = (0, f64::INFINITY);
        for (i, slot) in self.clusters.iter().enumerate() {
            if let Some(Repr::Center(c)) = slot {
                let d = c.euclidean_sq(values);
                if d < best.1 {
                    best = (i, d);
                }
            }
        }
        best
    }

    #[cfg(not(feature = "reference"))]
    fn scan_center_reference(&self, _values: &[u32]) -> (usize, f64) {
        unreachable!("reference kernels require the `reference` cargo feature")
    }

    /// Single-pass center scan with early-exit partial sums: a running
    /// sum of squares that reaches the best-so-far bound already loses the
    /// strict `d < best` comparison, and a zero distance can never be
    /// beaten, so both exits leave the winner (and its exact `f64`
    /// distance) unchanged.
    fn scan_center(&self, values: &[u32]) -> (usize, f64) {
        let mut best: (usize, f64) = (0, f64::INFINITY);
        for (i, slot) in self.clusters.iter().enumerate() {
            if let Some(Repr::Center(c)) = slot {
                let d = c.euclidean_sq_bounded(values, best.1);
                if d < best.1 {
                    best = (i, d);
                    if d == 0.0 {
                        break;
                    }
                }
            }
        }
        best
    }

    fn assign_center(&mut self, values: &[u32]) -> (usize, f64, AssignAction) {
        if let Some(slot) = self.first_empty() {
            self.clusters[slot] = Some(Repr::Center(CenterCluster::seed(values)));
            return (slot, 0.0, AssignAction::Seeded);
        }
        let (i, d) = if self.use_reference {
            self.scan_center_reference(values)
        } else {
            self.scan_center(values)
        };
        if self.cfg.search == SearchKind::Exhaustive && d > 0.0 {
            if let Some((a, b, merge_cost)) = self.cheapest_center_merge() {
                if merge_cost * 4.0 < d {
                    let other = self.clusters[b].take().expect("occupied");
                    let Repr::Center(other) = other else {
                        unreachable!("center mode holds center clusters")
                    };
                    let Some(Repr::Center(target)) = self.clusters[a].as_mut() else {
                        unreachable!("center mode holds center clusters")
                    };
                    target.merge(&other);
                    self.fold_stats(b, a);
                    self.clusters[b] = Some(Repr::Center(CenterCluster::seed(values)));
                    return (
                        b,
                        0.0,
                        AssignAction::Merged {
                            from: b as u32,
                            into: a as u32,
                        },
                    );
                }
            }
        }
        let Some(Repr::Center(c)) = self.clusters[i].as_mut() else {
            unreachable!("best index is occupied")
        };
        c.admit(values, self.cfg.learning_rate);
        (i, d, AssignAction::Expanded { grew: d > 0.0 })
    }

    fn first_empty(&self) -> Option<usize> {
        self.clusters.iter().position(|c| c.is_none())
    }

    fn cheapest_range_merge(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..self.clusters.len() {
            // Only clusters that actually captured traffic this window are
            // merge candidates: consolidating two *active* aggregates frees
            // a slot for a new one. Merging idle anchors would only erode
            // the initialization grid.
            if self.window[a].pkts == 0 {
                continue;
            }
            let Some(Repr::Range(ca)) = &self.clusters[a] else {
                continue;
            };
            for b in (a + 1)..self.clusters.len() {
                if self.window[b].pkts == 0 {
                    continue;
                }
                let Some(Repr::Range(cb)) = &self.clusters[b] else {
                    continue;
                };
                let cost = (self.range_merge_cost)(ca, cb);
                if best.is_none_or(|(_, _, bc)| cost < bc) {
                    best = Some((a, b, cost));
                }
            }
        }
        best
    }

    fn cheapest_center_merge(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..self.clusters.len() {
            if self.window[a].pkts == 0 {
                continue;
            }
            let Some(Repr::Center(ca)) = &self.clusters[a] else {
                continue;
            };
            for b in (a + 1)..self.clusters.len() {
                if self.window[b].pkts == 0 {
                    continue;
                }
                let Some(Repr::Center(cb)) = &self.clusters[b] else {
                    continue;
                };
                let cost = ca.merge_cost(cb);
                if best.is_none_or(|(_, _, bc)| cost < bc) {
                    best = Some((a, b, cost));
                }
            }
        }
        best
    }

    /// Moves cluster `from`'s counters into cluster `to` (after a merge).
    fn fold_stats(&mut self, from: usize, to: usize) {
        let w = std::mem::take(&mut self.window[from]);
        self.window[to].pkts += w.pkts;
        self.window[to].bytes += w.bytes;
        let t = std::mem::take(&mut self.totals[from]);
        self.totals[to].pkts += t.pkts;
        self.totals[to].bytes += t.bytes;
    }

    /// Returns and clears the per-cluster window counters — what the
    /// control plane polls each period (§5.2).
    pub fn take_window(&mut self) -> Vec<WindowStats> {
        let mut out = Vec::with_capacity(self.window.len());
        self.take_window_into(&mut out);
        out
    }

    /// Allocation-free variant of [`take_window`](Self::take_window):
    /// copies the window counters into `out` (cleared first) and zeroes
    /// them in place. The control loop calls this every period, so the
    /// caller-owned buffer keeps the steady-state tick allocation-free.
    pub fn take_window_into(&mut self, out: &mut Vec<WindowStats>) {
        out.clear();
        out.extend_from_slice(&self.window);
        self.window
            .iter_mut()
            .for_each(|w| *w = WindowStats::default());
    }

    /// Cumulative per-cluster counters since construction.
    pub fn totals(&self) -> &[WindowStats] {
        &self.totals
    }

    /// The cluster's representation, if seeded (operator interpretability,
    /// §10: the exact packet-to-cluster mapping is inspectable).
    pub fn repr(&self, idx: usize) -> Option<&Repr> {
        self.clusters.get(idx).and_then(|c| c.as_ref())
    }

    /// The cluster's cost (its "size" `δ(c)`), used by the `/Size` ranking
    /// algorithms: the statistical per-feature spread of the traffic
    /// assigned this window (what the data plane's min/max registers
    /// report), falling back to the geometric cost when the slot saw no
    /// traffic. `None` for never-seeded slots.
    pub fn cost(&self, idx: usize) -> Option<f64> {
        if let Some((lo, hi)) = self.ledger.window(idx) {
            let extents = lo.iter().zip(hi).map(|(&lo, &hi)| hi - lo);
            let spread = match self.cfg.distance {
                DistanceKind::Anime => extents.map(|e| e as f64 + 1.0).product(),
                _ => extents.map(|e| e as f64).sum(),
            };
            return Some(spread);
        }
        match self.clusters.get(idx)?.as_ref()? {
            Repr::Range(c) => Some(match self.cfg.distance {
                DistanceKind::Anime => c.anime_cost(),
                _ => c.manhattan_cost() as f64,
            }),
            Repr::Center(c) => Some(c.weight as f64),
        }
    }

    /// Re-initializes every cluster slot per the configured [`InitMode`]
    /// (the controller's periodic reset; see DESIGN.md §4). Counters are
    /// preserved. Under anchor initialization the slots keep their spatial
    /// semantics, so priority mappings computed from the previous window
    /// remain meaningful.
    pub fn reset_clusters(&mut self) {
        // Clearing the window ranges also starts a fresh observation
        // window for the next re-anchoring.
        self.init_clusters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureSet, FeatureSpec};
    use crate::kernel::{batch_kernels, narrow_kernels};
    use accturbo_netsim::SimTime;
    use std::net::Ipv4Addr;

    fn cfg(n: usize, distance: DistanceKind, search: SearchKind) -> ClusteringConfig {
        ClusteringConfig {
            num_clusters: n,
            features: FeatureSet::new(vec![
                FeatureSpec::ordinal(Feature::DstIpByte(3)),
                FeatureSpec::ordinal(Feature::SrcPort),
            ]),
            distance,
            search,
            nominal: NominalMode::Exact,
            learning_rate: 0.3,
            init: InitMode::FromTraffic,
            update_budget: None,
            rep: RepMode::LastPacket,
        }
    }

    fn pkt(dst_last: u8, sport: u16) -> Packet {
        Packet::new(SimTime::ZERO)
            .with_dst(Ipv4Addr::new(198, 18, 0, dst_last))
            .with_ports(sport, 80)
            .with_size(100)
    }

    #[test]
    fn first_packets_seed_distinct_clusters() {
        let mut oc = OnlineClusterer::new(cfg(3, DistanceKind::Manhattan, SearchKind::Fast));
        let a = oc.assign(&pkt(1, 1000));
        let b = oc.assign(&pkt(100, 30000));
        let c = oc.assign(&pkt(200, 60000));
        let set: std::collections::HashSet<_> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 3, "three distant packets get three clusters");
    }

    #[test]
    fn covered_packets_reuse_their_cluster() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        let a = oc.assign(&pkt(10, 1000));
        let _ = oc.assign(&pkt(200, 50000));
        let again = oc.assign(&pkt(10, 1000));
        assert_eq!(a, again);
    }

    #[test]
    fn nearby_packets_join_the_nearest_cluster_and_expand_it() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        let a = oc.assign(&pkt(10, 1000));
        let _b = oc.assign(&pkt(200, 50000));
        let c = oc.assign(&pkt(12, 1010)); // near cluster a
        assert_eq!(a, c);
        // The cluster has grown to cover the new point.
        let d = oc.assign(&pkt(11, 1005));
        assert_eq!(d, a);
    }

    #[test]
    fn window_stats_accumulate_and_clear() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        oc.assign(&pkt(10, 1000));
        oc.assign(&pkt(10, 1000));
        oc.assign(&pkt(200, 50000));
        let w = oc.take_window();
        let total_pkts: u64 = w.iter().map(|s| s.pkts).sum();
        let total_bytes: u64 = w.iter().map(|s| s.bytes).sum();
        assert_eq!(total_pkts, 3);
        assert_eq!(total_bytes, 300);
        let w2 = oc.take_window();
        assert!(w2.iter().all(|s| s.pkts == 0));
        assert_eq!(oc.totals().iter().map(|s| s.pkts).sum::<u64>(), 3);
    }

    #[test]
    fn reset_clusters_reseeds_but_keeps_totals() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        oc.assign(&pkt(10, 1000));
        oc.reset_clusters();
        assert!(oc.repr(0).is_none());
        assert_eq!(oc.totals()[0].pkts, 1);
        let idx = oc.assign(&pkt(250, 60000));
        assert_eq!(idx, 0, "first packet after reset seeds slot 0");
    }

    #[test]
    fn exhaustive_merges_when_cheaper() {
        // Two clusters seeded close together; a distant packet should
        // cause a merge + fresh cluster rather than a huge expansion.
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Exhaustive));
        let a = oc.assign(&pkt(10, 1000));
        let b = oc.assign(&pkt(12, 1005)); // nearby -> another slot (seeding)
        assert_ne!(a, b);
        let c = oc.assign(&pkt(250, 64000)); // far away
                                             // The far packet gets its own (reused) slot; the two near clusters
                                             // are now one.
        let d = oc.assign(&pkt(11, 1002));
        assert_ne!(c, d);
        assert!(oc.repr(c).is_some() && oc.repr(d).is_some());
    }

    #[test]
    fn fast_never_merges() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        oc.assign(&pkt(10, 1000));
        oc.assign(&pkt(12, 1005));
        let c = oc.assign(&pkt(250, 64000));
        // Fast search must expand one of the existing clusters.
        let cost: f64 = (0..2).filter_map(|i| oc.cost(i)).sum();
        assert!(cost > 1000.0, "one cluster must have stretched: {cost}");
        assert!(c < 2);
    }

    #[test]
    fn euclidean_centers_track_points() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Euclidean, SearchKind::Fast));
        let a = oc.assign(&pkt(10, 1000));
        let _ = oc.assign(&pkt(200, 60000));
        for _ in 0..20 {
            assert_eq!(oc.assign(&pkt(10, 1000)), a);
        }
        let Some(Repr::Center(c)) = oc.repr(a) else {
            panic!("expected a center cluster");
        };
        assert!((c.center()[0] - 10.0).abs() < 1.0);
        assert!((c.center()[1] - 1000.0).abs() < 50.0);
    }

    #[test]
    fn anime_distance_mode_works_end_to_end() {
        let mut oc = OnlineClusterer::new(cfg(3, DistanceKind::Anime, SearchKind::Fast));
        let a = oc.assign(&pkt(10, 1000));
        let b = oc.assign(&pkt(11, 1001));
        let c = oc.assign(&pkt(240, 64000));
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Repeat points stay put.
        assert_eq!(oc.assign(&pkt(10, 1000)), a);
    }

    #[test]
    fn cost_reports_cluster_size() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        assert_eq!(oc.cost(0), None);
        oc.assign(&pkt(10, 1000));
        assert_eq!(oc.cost(0), Some(0.0));
        oc.assign(&pkt(200, 50000)); // slot 1
        oc.assign(&pkt(20, 1100)); // expands slot 0 by 10 + 100
        assert_eq!(oc.cost(0), Some(110.0));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_is_rejected() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        oc.assign_values(&[1, 2, 3], 100);
    }

    #[test]
    fn anchors_fill_all_slots_on_construction() {
        let c = cfg(4, DistanceKind::Manhattan, SearchKind::Fast).with_init(InitMode::Anchors);
        let oc = OnlineClusterer::new(c);
        for k in 0..4 {
            assert!(oc.repr(k).is_some(), "anchor slot {k} must be seeded");
        }
    }

    #[test]
    fn anchors_are_spread_over_the_space() {
        let c = cfg(4, DistanceKind::Manhattan, SearchKind::Fast).with_init(InitMode::Anchors);
        let mut oc = OnlineClusterer::new(c);
        // Packets at the space's extremes must land in different slots.
        let low = oc.assign(&pkt(0, 1));
        let high = oc.assign(&pkt(255, 65000));
        assert_ne!(low, high);
        assert_eq!(low, 0, "lowest point maps to the first anchor");
        assert_eq!(high, 3, "highest point maps to the last anchor");
    }

    #[test]
    fn anchor_slots_are_stable_across_resets() {
        let c = cfg(4, DistanceKind::Manhattan, SearchKind::Fast).with_init(InitMode::Anchors);
        let mut oc = OnlineClusterer::new(c);
        let before = oc.assign(&pkt(10, 2000));
        oc.reset_clusters();
        let after = oc.assign(&pkt(10, 2000));
        assert_eq!(before, after, "same point, same slot after reset");
    }

    #[test]
    fn assignment_records_report_seed_assign_and_merge() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Exhaustive));
        // Two seeds, then a nearby point (covered), then a far point that
        // triggers a merge (same scenario as `exhaustive_merges_when_cheaper`).
        let a = oc.assign_record(&pkt(10, 1000));
        let b = oc.assign_record(&pkt(12, 1005));
        let near = oc.assign_record(&pkt(10, 1000));
        let far = oc.assign_record(&pkt(250, 64000));
        let seeded = |cluster| Assignment {
            cluster,
            distance: 0.0,
            action: AssignAction::Seeded,
        };
        assert_eq!(a, seeded(0));
        assert_eq!(b, seeded(1));
        assert_eq!(
            near,
            Assignment {
                cluster: a.cluster,
                distance: 0.0,
                action: AssignAction::Covered,
            }
        );
        assert_eq!(
            far,
            Assignment {
                cluster: 1,
                distance: 0.0,
                action: AssignAction::Merged { from: 1, into: 0 },
            }
        );
    }

    #[test]
    fn an_assignment_record_stays_at_24_bytes() {
        assert_eq!(std::mem::size_of::<Assignment>(), 24);
    }

    #[test]
    fn take_window_into_matches_take_window() {
        let mut a = OnlineClusterer::new(cfg(3, DistanceKind::Manhattan, SearchKind::Fast));
        let mut b = a.clone();
        for i in 0..50u32 {
            let p = pkt((i * 31 % 251) as u8, (i * 773 % 60000) as u16);
            a.assign(&p);
            b.assign(&p);
        }
        let via_alloc = a.take_window();
        let mut via_scratch = Vec::new();
        b.take_window_into(&mut via_scratch);
        assert_eq!(via_alloc, via_scratch);
        assert!(a.take_window().iter().all(|w| w.pkts == 0));
        b.take_window_into(&mut via_scratch);
        assert!(via_scratch.iter().all(|w| w.pkts == 0));
    }

    /// The specialized kernels must be assignment-identical to the
    /// original generic scan across all three distance kinds, searches
    /// and resets (the in-crate differential backstop; the figure-level
    /// one lives in `tests/fastpath_equivalence.rs`).
    #[cfg(feature = "reference")]
    #[test]
    fn specialized_kernels_match_reference_scan() {
        for distance in [
            DistanceKind::Manhattan,
            DistanceKind::Anime,
            DistanceKind::Euclidean,
        ] {
            for init in [InitMode::FromTraffic, InitMode::Anchors] {
                let base = cfg(4, distance, SearchKind::Fast).with_init(init);
                reference::force_reference_kernels(true);
                let mut slow = OnlineClusterer::new(base.clone());
                reference::force_reference_kernels(false);
                let mut fast = OnlineClusterer::new(base);
                for i in 0..400u32 {
                    let p = pkt((i * 37 % 251) as u8, (i * 997 % 60000) as u16);
                    let is = slow.assign(&p);
                    let ifa = fast.assign(&p);
                    assert_eq!(is, ifa, "{distance:?}/{init:?} diverged at packet {i}");
                    if i % 97 == 0 {
                        assert_eq!(slow.take_window(), fast.take_window());
                        slow.reset_clusters();
                        fast.reset_clusters();
                    }
                }
                for k in 0..4 {
                    assert_eq!(slow.cost(k), fast.cost(k), "{distance:?}/{init:?} slot {k}");
                }
            }
        }
    }

    /// A deterministic varied packet stream exercising every feature the
    /// profiles below extract (addresses, ports, TTL, IP length), with
    /// enough repetition that clusters are revisited, expanded and merged.
    fn varied_pkt(i: u32) -> Packet {
        let x = i.wrapping_mul(2654435761); // Knuth multiplicative hash
        Packet::new(SimTime::from_micros(u64::from(i)))
            .with_src(Ipv4Addr::new(
                10,
                (x >> 8) as u8 % 4,
                (x >> 16) as u8,
                (x >> 24) as u8,
            ))
            .with_dst(Ipv4Addr::new(
                198,
                18,
                (x >> 4) as u8 % 8,
                (i * 37 % 251) as u8,
            ))
            .with_ports((x % 60000) as u16, [53, 80, 443, 123][(i % 4) as usize])
            .with_proto(if i.is_multiple_of(3) { 17 } else { 6 })
            .with_ttl((32 + x % 96) as u8)
            .with_size(64 + i % 1400)
    }

    #[test]
    fn soa_scan_matches_aos_scan_while_streaming() {
        // The lane-blocked scan must agree with the per-cluster scan on
        // winner index AND exact distance, at every point of a live
        // packet stream, across feature profiles (ordinal-only, mixed
        // nominal), search modes, init modes, and budgets.
        let profiles: Vec<(FeatureSet, SearchKind, InitMode, Option<u64>)> = vec![
            (
                FeatureSet::hardware_fig6(),
                SearchKind::Fast,
                InitMode::FromTraffic,
                None,
            ),
            (
                FeatureSet::hardware_fig6(),
                SearchKind::Exhaustive,
                InitMode::FromTraffic,
                None,
            ),
            (
                FeatureSet::simulation_default(),
                SearchKind::Fast,
                InitMode::Anchors,
                None,
            ),
            (
                FeatureSet::hardware_dst_bytes(),
                SearchKind::Fast,
                InitMode::FromTraffic,
                Some(500),
            ),
        ];
        for (features, search, init, budget) in profiles {
            let fs = features.clone();
            let mut c = cfg(5, DistanceKind::Manhattan, search).with_init(init);
            c.features = features;
            c.update_budget = budget;
            let mut oc = OnlineClusterer::new(c);
            let mut values = Vec::new();
            for i in 0..600u32 {
                let p = varied_pkt(i);
                fs.extract_into(&p, &mut values);
                assert_eq!(
                    oc.scan_soa(&values),
                    oc.scan_aos(&values),
                    "{search:?}/{init:?} diverged before packet {i}"
                );
                oc.assign(&p);
                if i == 300 {
                    // The lanes must survive a control-plane reset.
                    oc.reset_clusters();
                }
            }
        }
    }

    /// A seeded feature-vector stream over `features`: values at the
    /// space edges (0 and `space − 1`), near a few hot spots (so
    /// clusters are revisited, grown and merged), and uniform.
    fn edge_stream(features: &FeatureSet, seed: u64, len: usize) -> Vec<Vec<u32>> {
        use accturbo_prng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let spaces: Vec<u64> = features.specs().iter().map(|s| s.feature.space()).collect();
        let hot: Vec<Vec<u64>> = (0..6)
            .map(|_| spaces.iter().map(|&s| rng.gen_range(0..s)).collect())
            .collect();
        (0..len)
            .map(|_| {
                let h = &hot[rng.gen_range(0..hot.len())];
                spaces
                    .iter()
                    .zip(h)
                    .map(|(&s, &c)| {
                        let v = match rng.gen_range(0u8..8) {
                            0 => 0,
                            1 => s - 1,
                            2..=5 => (c + rng.gen_range(0..=s / 64)).min(s - 1),
                            _ => rng.gen_range(0..s),
                        };
                        v as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// Every shipped profile, the fig9 single full-address features (the
    /// `i64`-lane path) and a wide set with a nominal dimension.
    fn lane_profiles() -> Vec<(&'static str, FeatureSet, bool)> {
        vec![
            ("fig6", FeatureSet::hardware_fig6(), false),
            ("dst4", FeatureSet::hardware_dst_bytes(), false),
            ("sim", FeatureSet::simulation_default(), false),
            (
                "daddr",
                FeatureSet::new(vec![FeatureSpec::ordinal(Feature::DstIp)]),
                true,
            ),
            (
                "saddr",
                FeatureSet::new(vec![FeatureSpec::ordinal(Feature::SrcIp)]),
                true,
            ),
            (
                "daddr+sport",
                FeatureSet::new(vec![
                    FeatureSpec::ordinal(Feature::DstIp),
                    FeatureSpec::natural(Feature::SrcPort),
                ]),
                true,
            ),
        ]
    }

    #[test]
    fn lane_scan_matches_the_oracles_across_block_boundaries() {
        // Cluster counts straddling the 16-lane block size, on every
        // profile, both searches and both inits, with resets: the lane
        // scan must equal the per-cluster scan (and, with the `reference`
        // feature, the generic full-distance scan and a reference-kernel
        // clusterer run in lockstep) before every assignment.
        let mut merges = 0;
        for (name, features, wide) in lane_profiles() {
            let stream = edge_stream(&features, 0x1A9E ^ features.len() as u64, 360);
            for n in [1, 10, 15, 16, 17, 33] {
                for search in [SearchKind::Fast, SearchKind::Exhaustive] {
                    for init in [InitMode::FromTraffic, InitMode::Anchors] {
                        let label = format!("{name}/n={n}/{search:?}/{init:?}");
                        let mut c = cfg(n, DistanceKind::Manhattan, search).with_init(init);
                        c.features = features.clone();
                        c.update_budget = Some(1 << 20);
                        let mut oc = OnlineClusterer::new(c);
                        assert_eq!(matches!(oc.lanes, LaneColumns::Wide(_)), wide, "{label}");
                        #[cfg(feature = "reference")]
                        let mut slow = {
                            let mut slow = oc.clone();
                            slow.use_reference = true;
                            slow
                        };
                        let detected = oc.narrow;
                        for (i, v) in stream.iter().enumerate() {
                            let lanes = oc.scan_soa(v);
                            assert_eq!(lanes, oc.scan_aos(v), "{label}: aos, vector {i}");
                            // Every kernel the CPU runs, portable included.
                            for (kernel, k) in narrow_kernels() {
                                oc.narrow = k;
                                assert_eq!(oc.scan_soa(v), lanes, "{label}: {kernel}, vector {i}");
                            }
                            oc.narrow = detected;
                            #[cfg(feature = "reference")]
                            assert_eq!(
                                lanes,
                                oc.scan_range_reference(v),
                                "{label}: reference, vector {i}"
                            );
                            let Assignment {
                                cluster: idx,
                                action,
                                ..
                            } = oc.assign_values_inner(v, 100);
                            merges += usize::from(matches!(action, AssignAction::Merged { .. }));
                            #[cfg(feature = "reference")]
                            assert_eq!(
                                idx as usize,
                                slow.assign_values(v, 100),
                                "{label}: lockstep, vector {i}"
                            );
                            let _ = idx;
                            if i % 120 == 119 {
                                #[cfg(feature = "reference")]
                                {
                                    assert_eq!(oc.take_window(), slow.take_window(), "{label}");
                                    for k in 0..n {
                                        assert_eq!(oc.cost(k), slow.cost(k), "{label}: slot {k}");
                                    }
                                    slow.reset_clusters();
                                }
                                oc.reset_clusters();
                            }
                        }
                    }
                }
            }
        }
        assert!(merges > 0, "exhaustive runs must exercise merges");
    }

    #[test]
    fn lane_distances_are_exact_at_the_space_edges() {
        // A single cluster collapsed at the origin, probed at the far
        // corner: the distance is the full Σ (space − 1), which needs
        // the `i64` lanes for full addresses.
        for (name, features, _) in lane_profiles() {
            let mut c = cfg(1, DistanceKind::Manhattan, SearchKind::Fast);
            c.features = features.clone();
            let mut oc = OnlineClusterer::new(c);
            let origin = vec![0; features.len()];
            oc.assign_values(&origin, 100);
            let corner: Vec<u32> = features
                .specs()
                .iter()
                .map(|s| (s.feature.space() - 1) as u32)
                .collect();
            let want: u64 = features
                .specs()
                .iter()
                .map(|s| match s.kind {
                    FeatureKind::Ordinal => s.feature.space() - 1,
                    FeatureKind::Nominal => 1,
                })
                .sum();
            assert_eq!(oc.scan_soa(&corner), Some((0, want as f64)), "{name}");
            assert_eq!(oc.scan_soa(&corner), oc.scan_aos(&corner), "{name}");
            assert_eq!(oc.scan_soa(&origin), Some((0, 0.0)), "{name}");
        }
        let sim: u64 = FeatureSet::simulation_default()
            .specs()
            .iter()
            .map(|s| s.feature.space() - 1)
            .sum();
        assert_eq!(sim, 198_900, "the simulation default's i32 headroom");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_values_are_rejected_in_debug_builds() {
        let mut oc = OnlineClusterer::new(cfg(2, DistanceKind::Manhattan, SearchKind::Fast));
        // DstIpByte(3) spans 0..256.
        oc.assign_values(&[256, 80], 100);
    }

    #[test]
    fn midpoints_stay_inside_odd_and_singleton_ranges() {
        // `min / 2 + max / 2` put a singleton at an odd value one below
        // itself, and any odd-bounded range one below its midpoint.
        let c = cfg(1, DistanceKind::Manhattan, SearchKind::Fast)
            .with_init(InitMode::Anchors)
            .with_rep(RepMode::RangeMidpoint);
        let mut oc = OnlineClusterer::new(c);
        let spans: [((u32, u32), (u32, u32)); 6] = [
            ((7, 7), (1001, 1001)),
            ((3, 9), (1, 65535)),
            ((3, 8), (0, 65535)),
            ((0, 255), (65535, 65535)),
            ((255, 255), (1, 3)),
            ((1, 255), (32767, 32769)),
        ];
        let mut point = Vec::new();
        for ((a_lo, a_hi), (p_lo, p_hi)) in spans {
            oc.seed_slot(0, &[a_lo, p_lo]);
            let Some(Repr::Range(r)) = oc.clusters[0].as_mut() else {
                panic!("range slot")
            };
            r.admit(&[a_hi, p_hi]);
            assert!(oc.midpoint_into(0, &mut point));
            let want = |lo: u32, hi: u32| ((u64::from(lo) + u64::from(hi)) / 2) as u32;
            assert_eq!(
                point,
                [want(a_lo, a_hi), want(p_lo, p_hi)],
                "{a_lo}..{a_hi} / {p_lo}..{p_hi}"
            );
        }
        // End to end: a packet on a cluster's own range re-seeds it there.
        let c = cfg(4, DistanceKind::Manhattan, SearchKind::Fast)
            .with_init(InitMode::Anchors)
            .with_rep(RepMode::RangeMidpoint);
        let mut oc = OnlineClusterer::new(c);
        for i in 0..400u32 {
            let p = varied_pkt(i);
            let k = oc.assign(&p);
            if i % 50 == 49 {
                let before: Vec<Option<Vec<(u32, u32)>>> = (0..4)
                    .map(|k| match oc.repr(k) {
                        Some(Repr::Range(r)) => Some(
                            r.dims()
                                .iter()
                                .map(|d| match d {
                                    Dim::Range { min, max } => (*min, *max),
                                    Dim::Set(_) => unreachable!("ordinal profile"),
                                })
                                .collect(),
                        ),
                        _ => None,
                    })
                    .collect();
                let active: Vec<bool> = (0..4).map(|k| oc.ledger.window(k).is_some()).collect();
                oc.reset_clusters();
                for (k, (spans, active)) in before.iter().zip(active).enumerate() {
                    let (Some(spans), true) = (spans, active) else {
                        continue;
                    };
                    let Some(Repr::Range(r)) = oc.repr(k) else {
                        panic!("re-seeded")
                    };
                    for (d, &(lo, hi)) in r.dims().iter().zip(spans) {
                        let Dim::Range { min, max } = d else {
                            unreachable!()
                        };
                        assert_eq!(min, max, "a re-seed is a singleton");
                        assert!(
                            (lo..=hi).contains(min),
                            "slot {k}: {min} outside {lo}..={hi}"
                        );
                    }
                }
            }
            let _ = k;
        }
    }

    #[test]
    fn the_derived_observed_range_is_the_running_union_of_assignments() {
        // Every distance, search, init and nominal store: after every
        // assignment, the observed range derived from the window rows
        // equals a naive running min/max over every vector assigned
        // since the last reset.
        let bloom = NominalMode::Bloom {
            bits: 256,
            hashes: 3,
        };
        let mut merges = 0;
        for (features, nominal) in [
            (FeatureSet::simulation_default(), NominalMode::Exact),
            (FeatureSet::hardware_fig6(), NominalMode::Exact),
            (FeatureSet::hardware_fig6(), bloom),
        ] {
            let stream = edge_stream(&features, 0x0B5E ^ features.len() as u64, 500);
            for distance in [
                DistanceKind::Manhattan,
                DistanceKind::Anime,
                DistanceKind::Euclidean,
            ] {
                for search in [SearchKind::Fast, SearchKind::Exhaustive] {
                    if search == SearchKind::Exhaustive && !matches!(nominal, NominalMode::Exact) {
                        continue; // merges require exact sets
                    }
                    for init in [InitMode::FromTraffic, InitMode::Anchors] {
                        let label = format!(
                            "{}/{nominal:?}/{distance:?}/{search:?}/{init:?}",
                            features.len()
                        );
                        let mut c = cfg(5, distance, search).with_init(init);
                        c.features = features.clone();
                        c.nominal = nominal.clone();
                        c.update_budget = Some(4096);
                        let mut oc = OnlineClusterer::new(c);
                        let w = features.len();
                        let (mut lo, mut hi) = (vec![u32::MAX; w], vec![0u32; w]);
                        for (i, v) in stream.iter().enumerate() {
                            let action = oc.assign_values_inner(v, 100).action;
                            merges += usize::from(matches!(action, AssignAction::Merged { .. }));
                            for f in 0..w {
                                lo[f] = lo[f].min(v[f]);
                                hi[f] = hi[f].max(v[f]);
                            }
                            oc.ledger.derive_observed();
                            assert_eq!(
                                oc.ledger.observed(),
                                Some((&lo[..], &hi[..])),
                                "{label}: vector {i}"
                            );
                            if i % 150 == 149 {
                                oc.reset_clusters();
                                oc.ledger.derive_observed();
                                assert_eq!(oc.ledger.observed(), None, "{label}: reset");
                                lo.fill(u32::MAX);
                                hi.fill(0);
                            }
                        }
                    }
                }
            }
        }
        assert!(merges > 0, "exhaustive runs must exercise merges");
    }

    /// A seeded packet stream: every header field near one of six hot
    /// spots (often exactly on it, so packets are covered and clusters
    /// revisited), at an edge of its space, or uniform.
    fn hot_packets(seed: u64, len: usize) -> Vec<Packet> {
        use accturbo_prng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // src, dst, sport, dport, ttl, ip_len, proto
        let spaces: [u64; 7] = [1 << 32, 1 << 32, 1 << 16, 1 << 16, 1 << 8, 1 << 16, 1 << 8];
        let hot: Vec<[u64; 7]> = (0..6)
            .map(|_| spaces.map(|s| rng.gen_range(0..s)))
            .collect();
        (0..len)
            .map(|i| {
                let h = hot[rng.gen_range(0..hot.len())];
                let mut w = [0u64; 7];
                for (f, (&s, &c)) in spaces.iter().zip(&h).enumerate() {
                    w[f] = match rng.gen_range(0u8..12) {
                        0 => 0,
                        1 => s - 1,
                        2..=6 => c,
                        7..=10 => (c + rng.gen_range(0..=3u64)).min(s - 1),
                        _ => rng.gen_range(0..s),
                    };
                }
                let mut p = Packet::new(SimTime::from_micros(i as u64))
                    .with_src(Ipv4Addr::from(w[0] as u32))
                    .with_dst(Ipv4Addr::from(w[1] as u32))
                    .with_ports(w[2] as u16, w[3] as u16)
                    .with_ttl(w[4] as u8)
                    .with_proto(w[6] as u8)
                    .with_size(64 + (i as u32 * 37) % 1400);
                p.ip_len = w[5] as u16;
                p
            })
            .collect()
    }

    /// Runs `pkts` through two clusterers built from `c`, one per packet
    /// and one in random batches of 1..=256 through `kernel`, with a
    /// reset at random batch boundaries, and asserts that both agree on
    /// every cluster index, counter, cost and cluster shape. Returns the
    /// number of admissions that grew a cluster before the end of their
    /// batch.
    fn batch_matches_per_packet(
        label: &str,
        c: &ClusteringConfig,
        pkts: &[Packet],
        kernel: BatchNearest,
        seed: u64,
    ) -> usize {
        use accturbo_prng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scalar = OnlineClusterer::new(c.clone());
        let mut batched = scalar.clone();
        batched.batch_kernel = kernel;
        let (mut batch, mut out, mut values) = (FeatureBatch::new(), Vec::new(), Vec::new());
        let (mut rest, mut mid_batch_growth) = (pkts, 0);
        while !rest.is_empty() {
            let len: usize = match rng.gen_range(0u8..4) {
                0 => rng.gen_range(1..=16),
                _ => rng.gen_range(1..=256),
            };
            let (run, tail) = rest.split_at(len.min(rest.len()));
            batch.fill(&c.features, run);
            batched.assign_batch(&batch, &mut out);
            for (j, p) in run.iter().enumerate() {
                c.features.extract_into(p, &mut values);
                assert_eq!(batch.row(j), values, "{label}: packet {j}'s row");
                let want = scalar.assign_values_inner(&values, p.size);
                assert_eq!(out[j], want, "{label}: packet {j} of {}", run.len());
                let grew = want.action == AssignAction::Expanded { grew: true };
                mid_batch_growth += usize::from(grew && j + 1 < run.len());
            }
            assert_eq!(out.len(), run.len(), "{label}");
            assert_eq!(batched.totals(), scalar.totals(), "{label}");
            for k in 0..c.num_clusters {
                assert_eq!(batched.cost(k), scalar.cost(k), "{label}: slot {k}");
                assert_eq!(
                    format!("{:?}", batched.repr(k)),
                    format!("{:?}", scalar.repr(k)),
                    "{label}: slot {k}"
                );
            }
            assert_eq!(batched.budget, scalar.budget, "{label}");
            if rng.gen_range(0u8..4) == 0 {
                assert_eq!(batched.take_window(), scalar.take_window(), "{label}");
                batched.reset_clusters();
                scalar.reset_clusters();
            }
            rest = tail;
        }
        mid_batch_growth
    }

    #[test]
    fn batches_match_per_packet_assignment_on_the_frozen_path() {
        // The deployable configuration: Manhattan, fast search, ordinal
        // features in `i32` lanes, every slot occupied from the start.
        // Budgets from none to unlimited; cluster counts around the
        // 16-lane block; every batch kernel the CPU runs.
        for (name, features) in [
            ("sim", FeatureSet::simulation_default()),
            ("dst4", FeatureSet::hardware_dst_bytes()),
        ] {
            let pkts = hot_packets(0xBA7C ^ features.len() as u64, 1500);
            for n in [1, 10, 16, 17, 33] {
                for budget in [None, Some(0), Some(64), Some(256)] {
                    let mut c = cfg(n, DistanceKind::Manhattan, SearchKind::Fast)
                        .with_init(InitMode::Anchors)
                        .with_update_budget(budget);
                    c.features = features.clone();
                    for (kernel, k) in batch_kernels() {
                        let label = format!("{name}/n={n}/{budget:?}/{kernel}");
                        let grown = batch_matches_per_packet(&label, &c, &pkts, k, n as u64);
                        if budget != Some(0) {
                            assert!(grown > 0, "{label}: no growth inside a batch");
                        } else {
                            assert_eq!(grown, 0, "{label}: a zero budget never grows");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batches_match_per_packet_assignment_on_the_fallback_paths() {
        // Seeding (traffic init), merges, nominal sets (exact and Bloom),
        // `i64` lanes, the Anime and Euclidean distances, and rep modes:
        // each runs per packet inside the batch, or switches to the
        // frozen pass once every slot is seeded.
        let bloom = NominalMode::Bloom {
            bits: 512,
            hashes: 3,
        };
        let manhattan = |n, search, features: FeatureSet| {
            let mut c = cfg(n, DistanceKind::Manhattan, search).with_update_budget(Some(256));
            c.features = features;
            c
        };
        let mut cases: Vec<(&str, ClusteringConfig)> = vec![
            (
                "traffic-init",
                manhattan(10, SearchKind::Fast, FeatureSet::simulation_default()),
            ),
            (
                "exhaustive",
                manhattan(10, SearchKind::Exhaustive, FeatureSet::simulation_default())
                    .with_init(InitMode::Anchors),
            ),
            (
                "fig6-exact",
                manhattan(4, SearchKind::Fast, FeatureSet::hardware_fig6())
                    .with_init(InitMode::Anchors),
            ),
            (
                "i64-lanes",
                manhattan(
                    10,
                    SearchKind::Fast,
                    FeatureSet::new(vec![
                        FeatureSpec::ordinal(Feature::DstIp),
                        FeatureSpec::natural(Feature::SrcPort),
                    ]),
                )
                .with_init(InitMode::Anchors),
            ),
            (
                "midpoint",
                manhattan(10, SearchKind::Fast, FeatureSet::simulation_default())
                    .with_init(InitMode::Anchors)
                    .with_rep(RepMode::RangeMidpoint),
            ),
        ];
        let mut fig6_bloom = manhattan(4, SearchKind::Fast, FeatureSet::hardware_fig6());
        fig6_bloom.nominal = bloom;
        cases.push(("fig6-bloom", fig6_bloom.with_init(InitMode::Anchors)));
        for distance in [DistanceKind::Anime, DistanceKind::Euclidean] {
            for init in [InitMode::FromTraffic, InitMode::Anchors] {
                let mut c = cfg(10, distance, SearchKind::Fast).with_init(init);
                c.features = FeatureSet::hardware_dst_bytes();
                cases.push((
                    if distance == DistanceKind::Anime {
                        "anime"
                    } else {
                        "euclidean"
                    },
                    c,
                ));
            }
        }
        for (name, c) in &cases {
            let pkts = hot_packets(0xFA11 ^ c.features.len() as u64, 1200);
            for (kernel, k) in batch_kernels() {
                let label = format!("{name}/{kernel}");
                batch_matches_per_packet(&label, c, &pkts, k, 7);
            }
        }
    }

    /// With the `reference` feature, a clusterer forced onto the
    /// reference scan takes the per-packet path inside every batch and
    /// still agrees with the plain per-packet clusterer.
    #[cfg(feature = "reference")]
    #[test]
    fn batches_on_forced_reference_kernels_match_per_packet_assignment() {
        let mut c = cfg(10, DistanceKind::Manhattan, SearchKind::Fast).with_init(InitMode::Anchors);
        c.features = FeatureSet::simulation_default();
        c.update_budget = Some(256);
        let pkts = hot_packets(0x2EF, 1000);
        let mut scalar = OnlineClusterer::new(c.clone());
        let mut batched = scalar.clone();
        batched.use_reference = true;
        let (mut batch, mut out) = (FeatureBatch::new(), Vec::new());
        for run in pkts.chunks(97) {
            batch.fill(&c.features, run);
            batched.assign_batch(&batch, &mut out);
            let want: Vec<Assignment> = run.iter().map(|p| scalar.assign_record(p)).collect();
            assert_eq!(out, want);
            assert_eq!(batched.totals(), scalar.totals());
        }
    }

    #[test]
    fn a_tight_attack_cannot_monopolize_anchor_slots() {
        let c = cfg(4, DistanceKind::Manhattan, SearchKind::Fast).with_init(InitMode::Anchors);
        let mut oc = OnlineClusterer::new(c);
        // Flood one corner of the space.
        let mut attack_slots = std::collections::HashSet::new();
        for i in 0..1000u32 {
            attack_slots.insert(oc.assign(&pkt((i % 16) as u8, 5000 + (i % 50) as u16)));
        }
        assert_eq!(attack_slots.len(), 1, "a tight flood stays in one slot");
        // A distant benign packet still has its own slot.
        let benign = oc.assign(&pkt(250, 60000));
        assert!(!attack_slots.contains(&benign));
    }
}
