//! The lane-blocked Manhattan kernels behind
//! [`OnlineClusterer::scan_soa`](crate::OnlineClusterer::scan_soa) and
//! [`OnlineClusterer::assign_batch`](crate::OnlineClusterer::assign_batch):
//! the column store of the range clusters' ordinal extents and the
//! nearest-cluster scan over it, for one packet and as a packet-major
//! pass over a batch, each in a portable body and, on x86-64 CPUs with
//! AVX2, in explicit `std::arch` intrinsics chosen at run time.
//!
//! This is the crate's only module with `unsafe` code: the AVX2
//! functions are compiled with `#[target_feature(enable = "avx2")]` and
//! reached only through the function pointers [`narrow_nearest`] and
//! [`batch_nearest`] return after `is_x86_feature_detected!("avx2")`
//! said yes.

use crate::feature::{FeatureSet, BATCH_GROUP};

/// Clusters per lane block. One block row is a `[L; LANES]` array, so the
/// kernel's fixed-width inner loop spans whole SIMD registers (two AVX2
/// or four SSE2 registers of `i32`).
pub(crate) const LANES: usize = 16;

/// A lane element of the column store. Every range bound and feature
/// value fits (the value-range contract of
/// [`OnlineClusterer::assign_values`](crate::OnlineClusterer::assign_values)),
/// and so does every gap sum (the lane type is chosen at construction
/// from the feature spaces), so the signed arithmetic below never wraps.
pub(crate) trait Lane:
    Copy + Ord + std::ops::Add<Output = Self> + std::ops::Sub<Output = Self>
{
    const ZERO: Self;
    /// A feature value or range bound, below its feature's space.
    fn of(v: u32) -> Self;
    /// A (non-negative) gap sum as a Manhattan distance.
    fn distance(self) -> u64;
}

impl Lane for i32 {
    const ZERO: Self = 0;
    fn of(v: u32) -> Self {
        v as i32
    }
    fn distance(self) -> u64 {
        self as u64
    }
}

impl Lane for i64 {
    const ZERO: Self = 0;
    fn of(v: u32) -> Self {
        i64::from(v)
    }
    fn distance(self) -> u64 {
        self as u64
    }
}

/// The ordinal-only nearest-slot scan over the first `live` slots of a
/// column store `width` features wide: the first slot attaining the
/// minimum gap sum, and that sum.
pub(crate) type Nearest<L> = fn(&Lanes<L>, usize, usize, &[u32]) -> Option<(usize, u64)>;

/// The ordinal Manhattan gap sums of the sixteen clusters of one lane
/// block: `mins[f]` / `maxs[f]` are the block's lane rows of feature `f`.
/// Of `min − v` and `v − max` at most one is positive (`min <= max`), so
/// `max(min − v, v − max, 0)` is the gap to the nearest range edge. The
/// body is fixed-width and branch-free: in signed lanes it lowers to
/// whole-register subtract / compare / blend / add on baseline SSE2,
/// which has no unsigned 32-bit min/max or saturating subtract.
#[inline(always)]
pub(crate) fn block_gaps<L: Lane>(
    mins: &[[L; LANES]],
    maxs: &[[L; LANES]],
    values: &[u32],
) -> [L; LANES] {
    let mut acc = [L::ZERO; LANES];
    for ((mn, mx), &v) in mins.iter().zip(maxs).zip(values) {
        let v = L::of(v);
        for ((a, &lo), &hi) in acc.iter_mut().zip(mn).zip(mx) {
            *a = *a + (lo - v).max(v - hi).max(L::ZERO);
        }
    }
    acc
}

/// The portable [`Nearest`]: per block, [`block_gaps`], then the
/// minimum over the block's live lanes and the first lane equal to it.
/// Blocks are visited in slot order and a block's minimum wins only
/// below the running best, so the first slot attaining the global
/// minimum wins; a zero distance ends the scan.
pub(crate) fn nearest_portable<L: Lane>(
    lanes: &Lanes<L>,
    width: usize,
    live: usize,
    values: &[u32],
) -> Option<(usize, u64)> {
    let mut best = None;
    let mut bound = u64::MAX;
    for (base, mins, maxs) in lanes.blocks(width, live) {
        let gaps = block_gaps(mins, maxs, values);
        // `min_by_key` keeps the first of equal minima.
        let (lane, min) = gaps[..LANES.min(live - base)]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &g)| g)
            .expect("a block below `live` has a live lane");
        let d = min.distance();
        if d < bound {
            best = Some((base + lane, d));
            bound = d;
            if d == 0 {
                break;
            }
        }
    }
    best
}

/// The packet-major nearest-slot pass of a batch: for every packet `j`
/// below `stride` (a whole number of [`BATCH_GROUP`]s), the first slot
/// among the `live` attaining the minimum gap sum into `arg[j]` and that
/// sum into `best[j]`. Packet `j`'s feature `f` is `cols[f·stride + j]`;
/// padding packets are computed like real ones and ignored by the
/// caller.
pub(crate) type BatchNearest = fn(&Lanes<i32>, usize, usize, &[u32], usize, &mut [i32], &mut [u32]);

/// Slot `slot`'s `(lo, hi)` on every feature, in feature order.
fn slot_extents<L: Lane>(
    lanes: &Lanes<L>,
    width: usize,
    slot: usize,
) -> impl Iterator<Item = (L, L)> + '_ {
    let rows = (slot / LANES) * width..(slot / LANES + 1) * width;
    let lane = slot % LANES;
    lanes.mins[rows.clone()]
        .iter()
        .zip(&lanes.maxs[rows])
        .map(move |(mn, mx)| (mn[lane], mx[lane]))
}

/// Checks the shape contract of a [`BatchNearest`] call.
fn check_batch_shape(
    width: usize,
    live: usize,
    cols: &[u32],
    stride: usize,
    best: &[i32],
    arg: &[u32],
) {
    assert!(live >= 1, "a batch pass needs a live slot");
    assert!(stride.is_multiple_of(BATCH_GROUP), "whole groups only");
    assert!(cols.len() >= width * stride && best.len() >= stride && arg.len() >= stride);
}

/// The portable [`BatchNearest`]: per group of eight packets, one
/// cluster and one feature at a time, the gap sums of the group, then a
/// vertical strict-less minimum that keeps the first slot on ties.
pub(crate) fn batch_nearest_portable(
    lanes: &Lanes<i32>,
    width: usize,
    live: usize,
    cols: &[u32],
    stride: usize,
    best: &mut [i32],
    arg: &mut [u32],
) {
    check_batch_shape(width, live, cols, stride, best, arg);
    for j in (0..stride).step_by(BATCH_GROUP) {
        let mut b = [i32::MAX; BATCH_GROUP];
        let mut a = [0u32; BATCH_GROUP];
        for slot in 0..live {
            let mut acc = [0i32; BATCH_GROUP];
            for (f, (lo, hi)) in slot_extents(lanes, width, slot).enumerate() {
                let v = &cols[f * stride + j..][..BATCH_GROUP];
                for (acc, &v) in acc.iter_mut().zip(v) {
                    let v = v as i32;
                    *acc += (lo - v).max(v - hi).max(0);
                }
            }
            for ((b, a), &d) in b.iter_mut().zip(&mut a).zip(&acc) {
                if d < *b {
                    *b = d;
                    *a = slot as u32;
                }
            }
        }
        best[j..j + BATCH_GROUP].copy_from_slice(&b);
        arg[j..j + BATCH_GROUP].copy_from_slice(&a);
    }
}

/// Slot `slot`'s Manhattan gap sum to `values`: one column of the batch
/// pass, for one packet against the slot's current extents.
pub(crate) fn slot_gap(lanes: &Lanes<i32>, width: usize, slot: usize, values: &[u32]) -> i32 {
    slot_extents(lanes, width, slot)
        .zip(values)
        .map(|((lo, hi), &v)| {
            let v = v as i32;
            (lo - v).max(v - hi).max(0)
        })
        .sum()
}

/// The Manhattan scan's column store: every range cluster's ordinal
/// extents, feature-major in blocks of [`LANES`] clusters. Block `b`
/// covers slots `b·LANES ..`; row `b·w + f` of `mins` / `maxs` holds
/// feature `f`'s minima / maxima, one lane per slot. Nominal dimensions
/// hold the sentinel `[0, space − 1]` (a zero gap for every in-range
/// value), so the ordinal pass needs no per-dimension kind dispatch;
/// their set membership is resolved in a second, bound-gated pass. Lanes
/// of vacant and padding slots keep whatever in-range bounds they last
/// held and are never read past the occupied prefix.
#[derive(Debug, Clone)]
pub(crate) struct Lanes<L> {
    mins: Vec<[L; LANES]>,
    maxs: Vec<[L; LANES]>,
}

impl<L: Lane> Lanes<L> {
    fn new(rows: usize) -> Self {
        Lanes {
            mins: vec![[L::ZERO; LANES]; rows],
            maxs: vec![[L::ZERO; LANES]; rows],
        }
    }

    /// Writes slot `slot`'s per-feature `[lo, hi]` extents.
    fn set_slot(&mut self, width: usize, slot: usize, extents: impl Iterator<Item = (u32, u32)>) {
        let rows = (slot / LANES) * width..(slot / LANES + 1) * width;
        let lane = slot % LANES;
        let (mins, maxs) = (&mut self.mins[rows.clone()], &mut self.maxs[rows]);
        for ((mn, mx), (lo, hi)) in mins.iter_mut().zip(maxs).zip(extents) {
            mn[lane] = L::of(lo);
            mx[lane] = L::of(hi);
        }
    }

    /// The blocks holding the first `live` slots, as `(first slot,
    /// minima rows, maxima rows)`.
    pub(crate) fn blocks(
        &self,
        width: usize,
        live: usize,
    ) -> impl Iterator<Item = (usize, &[[L; LANES]], &[[L; LANES]])> {
        let blocks = self
            .mins
            .chunks_exact(width)
            .zip(self.maxs.chunks_exact(width));
        blocks
            .take(live.div_ceil(LANES))
            .enumerate()
            .map(|(b, (mins, maxs))| (b * LANES, mins, maxs))
    }
}

/// [`Lanes`] in the lane type fixed at construction: `i32` is exact
/// whenever `Σ_f (space_f − 1) <= i32::MAX` (every shipped profile:
/// 198,900 for the simulation default), `i64` otherwise (full-address
/// features).
#[derive(Debug, Clone)]
pub(crate) enum LaneColumns {
    Narrow(Lanes<i32>),
    Wide(Lanes<i64>),
}

impl LaneColumns {
    pub(crate) fn new(features: &FeatureSet, num_clusters: usize) -> Self {
        let rows = num_clusters.div_ceil(LANES) * features.len();
        let max_gap_sum: u64 = features.specs().iter().map(|s| s.feature.space() - 1).sum();
        if max_gap_sum <= i32::MAX as u64 {
            LaneColumns::Narrow(Lanes::new(rows))
        } else {
            LaneColumns::Wide(Lanes::new(rows))
        }
    }

    pub(crate) fn set_slot(
        &mut self,
        width: usize,
        slot: usize,
        extents: impl Iterator<Item = (u32, u32)>,
    ) {
        match self {
            LaneColumns::Narrow(lanes) => lanes.set_slot(width, slot, extents),
            LaneColumns::Wide(lanes) => lanes.set_slot(width, slot, extents),
        }
    }
}

/// The `i32`-lane [`Nearest`] this CPU runs fastest, resolved once per
/// clusterer: the AVX2 kernel when the CPU has AVX2, the portable one
/// otherwise. `i64` lanes and the nominal scan always run the portable
/// bodies.
pub(crate) fn narrow_nearest() -> Nearest<i32> {
    avx2_nearest().unwrap_or(nearest_portable::<i32>)
}

/// The [`BatchNearest`] this CPU runs fastest, resolved once per
/// clusterer like [`narrow_nearest`].
pub(crate) fn batch_nearest() -> BatchNearest {
    avx2_batch_nearest().unwrap_or(batch_nearest_portable)
}

/// Every [`BatchNearest`] this CPU runs, named, for differential tests.
#[cfg(test)]
pub(crate) fn batch_kernels() -> Vec<(&'static str, BatchNearest)> {
    let mut all: Vec<(&'static str, BatchNearest)> = vec![("portable", batch_nearest_portable)];
    all.extend(avx2_batch_nearest().map(|k| ("avx2", k)));
    all
}

/// The AVX2 [`BatchNearest`], when the CPU has AVX2.
fn avx2_batch_nearest() -> Option<BatchNearest> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(avx2::batch_nearest);
    }
    None
}

/// Every `i32`-lane [`Nearest`] this CPU runs, named, for differential
/// tests.
#[cfg(test)]
pub(crate) fn narrow_kernels() -> Vec<(&'static str, Nearest<i32>)> {
    let mut all: Vec<(&'static str, Nearest<i32>)> = vec![("portable", nearest_portable::<i32>)];
    all.extend(avx2_nearest().map(|k| ("avx2", k)));
    all
}

/// The AVX2 [`Nearest`], when the CPU has AVX2.
fn avx2_nearest() -> Option<Nearest<i32>> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(avx2::nearest);
    }
    None
}

/// The AVX2 kernel: sixteen `i32` lanes as two `__m256i` accumulators,
/// `vpsubd` / `vpmaxsd` / `vpaddd` per feature, and a `vpminsd`
/// reduction with `vpcmpeqd` + `movemask` for the argmin. The exported
/// function is a safe shim over a `#[target_feature(enable = "avx2")]`
/// body; the shim is reachable only through `avx2_nearest`, which
/// returns it only on a CPU with AVX2.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lanes, BATCH_GROUP, LANES};
    use std::arch::x86_64::*;

    /// `acc + max(lo − v, v − hi, 0)` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gap_step(acc: __m256i, lo: __m256i, hi: __m256i, v: __m256i) -> __m256i {
        let gap = _mm256_max_epi32(_mm256_sub_epi32(lo, v), _mm256_sub_epi32(v, hi));
        _mm256_add_epi32(acc, _mm256_max_epi32(gap, _mm256_setzero_si256()))
    }

    /// Lanes `0..8` and `8..16` of one block's gap sums.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gaps(mins: &[[i32; LANES]], maxs: &[[i32; LANES]], values: &[u32]) -> [__m256i; 2] {
        let mut acc = [_mm256_setzero_si256(); 2];
        for ((mn, mx), &v) in mins.iter().zip(maxs).zip(values) {
            let v = _mm256_set1_epi32(v as i32);
            // SAFETY: `mn` and `mx` are `[i32; 16]`, so the 32-byte
            // unaligned loads at element offsets 0 and 8 read exactly
            // their two halves, in bounds.
            let (lo, hi) = unsafe {
                (
                    [
                        _mm256_loadu_si256(mn.as_ptr().cast()),
                        _mm256_loadu_si256(mn.as_ptr().add(8).cast()),
                    ],
                    [
                        _mm256_loadu_si256(mx.as_ptr().cast()),
                        _mm256_loadu_si256(mx.as_ptr().add(8).cast()),
                    ],
                )
            };
            acc[0] = gap_step(acc[0], lo[0], hi[0], v);
            acc[1] = gap_step(acc[1], lo[1], hi[1], v);
        }
        acc
    }

    #[target_feature(enable = "avx2")]
    fn nearest_avx2(
        lanes: &Lanes<i32>,
        width: usize,
        live: usize,
        values: &[u32],
    ) -> Option<(usize, u64)> {
        let mut best = None;
        let mut bound = u64::MAX;
        let lane_ids = [
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15),
        ];
        for (base, mins, maxs) in lanes.blocks(width, live) {
            let mut acc = gaps(mins, maxs, values);
            let rest = live - base;
            if rest < LANES {
                // Lanes at or past `live` become `i32::MAX`: they can
                // neither lower the minimum nor precede a live lane
                // equal to it.
                let rest = _mm256_set1_epi32(rest as i32);
                let past = _mm256_set1_epi32(i32::MAX);
                for (a, ids) in acc.iter_mut().zip(lane_ids) {
                    *a = _mm256_blendv_epi8(past, *a, _mm256_cmpgt_epi32(rest, ids));
                }
            }
            // The minimum, broadcast to every lane: fold the halves, the
            // 128-bit quarters, then pairs and neighbours.
            let m = _mm256_min_epi32(acc[0], acc[1]);
            let m = _mm256_min_epi32(m, _mm256_permute2x128_si256::<0x01>(m, m));
            let m = _mm256_min_epi32(m, _mm256_shuffle_epi32::<0b01_00_11_10>(m));
            let m = _mm256_min_epi32(m, _mm256_shuffle_epi32::<0b10_11_00_01>(m));
            let d = _mm256_cvtsi256_si32(m) as u64;
            if d < bound {
                let hits = |a: __m256i| {
                    _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, m))) as u32
                };
                let lane = (hits(acc[0]) | hits(acc[1]) << 8).trailing_zeros() as usize;
                best = Some((base + lane, d));
                bound = d;
                if d == 0 {
                    break;
                }
            }
        }
        best
    }

    #[target_feature(enable = "avx2")]
    fn batch_nearest_avx2(
        lanes: &Lanes<i32>,
        width: usize,
        live: usize,
        cols: &[u32],
        stride: usize,
        best: &mut [i32],
        arg: &mut [u32],
    ) {
        super::check_batch_shape(width, live, cols, stride, best, arg);
        let zero = _mm256_setzero_si256();
        for j in (0..stride).step_by(BATCH_GROUP) {
            let mut b = _mm256_set1_epi32(i32::MAX);
            let mut a = zero;
            for (base, mins, maxs) in lanes.blocks(width, live) {
                for lane in 0..LANES.min(live - base) {
                    let mut acc = zero;
                    for (f, (mn, mx)) in mins.iter().zip(maxs).enumerate() {
                        // SAFETY: `f < width` and `j + 8 <= stride`, and
                        // `check_batch_shape` asserted `cols.len() >=
                        // width · stride`, so the eight `u32` read at
                        // `f · stride + j` are in bounds.
                        let v =
                            unsafe { _mm256_loadu_si256(cols.as_ptr().add(f * stride + j).cast()) };
                        // With `lo <= hi`, `max(lo, v) − min(hi, v)` is
                        // the gap to the nearest range edge.
                        let (lo, hi) = (_mm256_set1_epi32(mn[lane]), _mm256_set1_epi32(mx[lane]));
                        let gap =
                            _mm256_sub_epi32(_mm256_max_epi32(lo, v), _mm256_min_epi32(hi, v));
                        acc = _mm256_add_epi32(acc, gap);
                    }
                    // Strictly less: an equal sum keeps the earlier slot.
                    let nearer = _mm256_cmpgt_epi32(b, acc);
                    b = _mm256_min_epi32(b, acc);
                    a = _mm256_blendv_epi8(a, _mm256_set1_epi32((base + lane) as i32), nearer);
                }
            }
            let (b_out, a_out): (&mut [i32; BATCH_GROUP], &mut [u32; BATCH_GROUP]) = (
                (&mut best[j..j + BATCH_GROUP])
                    .try_into()
                    .expect("a whole group"),
                (&mut arg[j..j + BATCH_GROUP])
                    .try_into()
                    .expect("a whole group"),
            );
            // SAFETY: `b_out` and `a_out` are `[_; 8]` of 32-bit
            // elements, so each 32-byte unaligned store writes exactly
            // one of them.
            unsafe {
                _mm256_storeu_si256(b_out.as_mut_ptr().cast(), b);
                _mm256_storeu_si256(a_out.as_mut_ptr().cast(), a);
            }
        }
    }

    /// [`super::batch_nearest_portable`] in AVX2.
    pub(super) fn batch_nearest(
        lanes: &Lanes<i32>,
        width: usize,
        live: usize,
        cols: &[u32],
        stride: usize,
        best: &mut [i32],
        arg: &mut [u32],
    ) {
        // SAFETY: this shim is handed out only by `avx2_batch_nearest`,
        // after `is_x86_feature_detected!("avx2")` returned true.
        unsafe { batch_nearest_avx2(lanes, width, live, cols, stride, best, arg) }
    }

    /// [`super::nearest_portable`] for `i32` lanes.
    pub(super) fn nearest(
        lanes: &Lanes<i32>,
        width: usize,
        live: usize,
        values: &[u32],
    ) -> Option<(usize, u64)> {
        // SAFETY: this shim is handed out only by `avx2_nearest`, after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { nearest_avx2(lanes, width, live, values) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureSpec};
    use accturbo_prng::{Rng, SeedableRng, StdRng};

    /// A value of a feature with `space` values: often an edge of the
    /// space, otherwise uniform.
    fn edgy(rng: &mut StdRng, space: u64) -> u32 {
        (match rng.gen_range(0u8..6) {
            0 => 0,
            1 => space - 1,
            2 => rng.gen_range(0..space.min(4)),
            3 => space - 1 - rng.gen_range(0..space.min(4)),
            _ => rng.gen_range(0..space),
        }) as u32
    }

    /// Slot `i`'s Manhattan gap sum, one feature at a time.
    fn naive_gap(spans: &[(u32, u32)], values: &[u32]) -> u64 {
        spans
            .iter()
            .zip(values)
            .map(|(&(lo, hi), &v)| u64::from(lo.saturating_sub(v).max(v.saturating_sub(hi))))
            .sum()
    }

    #[test]
    fn every_kernel_matches_a_naive_scan_on_random_geometry() {
        let profiles = [
            FeatureSet::simulation_default(),
            FeatureSet::hardware_dst_bytes(),
            FeatureSet::new(vec![FeatureSpec::ordinal(Feature::SrcPort)]),
            // The widest `i32` profile: Σ (space − 1) well past 2^16.
            FeatureSet::new(
                (0..20)
                    .map(|_| FeatureSpec::ordinal(Feature::IpLen))
                    .collect(),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(0xA5C2);
        for features in &profiles {
            let spaces: Vec<u64> = features.specs().iter().map(|s| s.feature.space()).collect();
            let w = spaces.len();
            for n in [1, 10, 15, 16, 17, 33, 48] {
                let mut cols = LaneColumns::new(features, n);
                let mut geometry: Vec<Vec<(u32, u32)>> = Vec::new();
                for slot in 0..n {
                    let spans: Vec<(u32, u32)> = spaces
                        .iter()
                        .map(|&s| {
                            let (a, b) = (edgy(&mut rng, s), edgy(&mut rng, s));
                            (a.min(b), a.max(b))
                        })
                        .collect();
                    cols.set_slot(w, slot, spans.iter().copied());
                    geometry.push(spans);
                }
                let LaneColumns::Narrow(lanes) = &cols else {
                    panic!("every profile here fits i32 lanes");
                };
                for _ in 0..200 {
                    let values: Vec<u32> = spaces.iter().map(|&s| edgy(&mut rng, s)).collect();
                    for live in 1..=n {
                        let gaps: Vec<u64> = geometry[..live]
                            .iter()
                            .map(|g| naive_gap(g, &values))
                            .collect();
                        let min = *gaps.iter().min().unwrap();
                        let want = Some((gaps.iter().position(|&g| g == min).unwrap(), min));
                        for (name, nearest) in narrow_kernels() {
                            let got = nearest(lanes, w, live, &values);
                            assert_eq!(got, want, "{name}: n={n} live={live} {values:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_batch_kernel_and_the_slot_gap_match_a_naive_scan() {
        let profiles = [
            FeatureSet::simulation_default(),
            FeatureSet::hardware_dst_bytes(),
            FeatureSet::new(vec![FeatureSpec::ordinal(Feature::Ttl)]),
        ];
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for features in &profiles {
            let spaces: Vec<u64> = features.specs().iter().map(|s| s.feature.space()).collect();
            let w = spaces.len();
            for n in [1, 10, 16, 17, 33] {
                let mut cols = LaneColumns::new(features, n);
                let mut geometry: Vec<Vec<(u32, u32)>> = Vec::new();
                for slot in 0..n {
                    let spans: Vec<(u32, u32)> = spaces
                        .iter()
                        .map(|&s| {
                            let (a, b) = (edgy(&mut rng, s), edgy(&mut rng, s));
                            (a.min(b), a.max(b))
                        })
                        .collect();
                    cols.set_slot(w, slot, spans.iter().copied());
                    geometry.push(spans);
                }
                for _ in 0..20 {
                    let len = rng.gen_range(1..=40usize);
                    let stride = len.next_multiple_of(BATCH_GROUP);
                    let mut batch = vec![0u32; w * stride];
                    let rows: Vec<Vec<u32>> = (0..len)
                        .map(|_| spaces.iter().map(|&s| edgy(&mut rng, s)).collect())
                        .collect();
                    for (j, row) in rows.iter().enumerate() {
                        for (f, &v) in row.iter().enumerate() {
                            batch[f * stride + j] = v;
                        }
                    }
                    let naive = |geometry: &[Vec<(u32, u32)>], row: &[u32]| {
                        let gaps: Vec<u64> = geometry.iter().map(|g| naive_gap(g, row)).collect();
                        let min = *gaps.iter().min().unwrap();
                        (
                            min as i32,
                            gaps.iter().position(|&g| g == min).unwrap() as u32,
                        )
                    };
                    let want: Vec<(i32, u32)> = rows.iter().map(|r| naive(&geometry, r)).collect();
                    let LaneColumns::Narrow(lanes) = &cols else {
                        panic!("every profile here fits i32 lanes");
                    };
                    for (name, kernel) in batch_kernels() {
                        let (mut best, mut arg) = (vec![0; stride], vec![0; stride]);
                        kernel(lanes, w, n, &batch, stride, &mut best, &mut arg);
                        let got: Vec<(i32, u32)> = best.into_iter().zip(arg).take(len).collect();
                        assert_eq!(got, want, "{name}: n={n} len={len}");
                    }
                    let LaneColumns::Narrow(lanes) = &cols else {
                        unreachable!()
                    };
                    for (row, slot) in rows.iter().zip((0..n).cycle()) {
                        let want = naive_gap(&geometry[slot], row) as i32;
                        assert_eq!(
                            slot_gap(lanes, w, slot, row),
                            want,
                            "slot_gap: n={n} slot={slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_detected_kernel_is_avx2_exactly_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let has = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        assert_eq!(avx2_nearest().is_some(), has);
        assert_eq!(narrow_kernels().len(), 1 + usize::from(has));
        assert_eq!(batch_kernels().len(), 1 + usize::from(has));
    }
}
