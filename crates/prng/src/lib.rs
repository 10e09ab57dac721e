//! # accturbo-prng
//!
//! A small, deterministic pseudo-random number generator exposing the
//! subset of the `rand` 0.8 API this workspace uses (`StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}`).
//!
//! The build environment has no crates.io access (see README.md), so the
//! generator is implemented in-tree: xoshiro256++ (Blackman & Vigna)
//! seeded through SplitMix64. The streams differ from `rand`'s ChaCha12
//! `StdRng`, but every consumer in this workspace asserts *statistical*
//! properties, not exact streams, and determinism per seed — which this
//! generator provides bit-for-bit across platforms.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// Generator types (mirrors `rand::rngs`).
pub mod rngs {
    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

pub use rngs::StdRng;

/// Seeding (mirrors the `rand::SeedableRng` subset used here).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the recommended xoshiro seeding procedure:
        // consecutive integer seeds produce decorrelated states.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl StdRng {
    /// The next raw 64 bits (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Types that can be sampled uniformly from raw generator output
/// (mirrors sampling with `rand::distributions::Standard`).
pub trait FromRng {
    /// Draws a uniform value.
    fn from_rng(rng: &mut StdRng) -> Self;
}

macro_rules! from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for bool {
    #[inline]
    fn from_rng(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn from_rng(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly (mirrors `rand`'s
/// `SampleRange<T>`). Implemented for `Range` and `RangeInclusive` over
/// the primitive integers and floats. Generic over the output type so
/// untyped integer literals in `gen_range(60..120)` infer from the call
/// site's expected type, exactly as with `rand`.
pub trait SampleRange<T> {
    /// Draws a uniform value from the range. Panics when empty.
    fn sample(self, rng: &mut StdRng) -> T;
}

/// Uniform `u64` in `[0, span)` via Lemire's multiply-shift reduction.
/// The modulo bias is at most `span / 2^64` — unobservable here.
#[inline]
fn below(rng: &mut StdRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                self.start + <$t>::from_rng(rng) * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                lo + <$t>::from_rng(rng) * (hi - lo)
            }
        }
    )*};
}
sample_range_float!(f32, f64);

/// The sampling interface (mirrors the `rand::Rng` subset used here).
pub trait Rng {
    /// The next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniform value of type `T`.
    fn gen<T: FromRng>(&mut self) -> T;

    /// Draws a uniform value from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Draws `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        StdRng::next_u64(self)
    }

    #[inline]
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(5u16..=5);
            assert_eq!(w, 5);
            let x = rng.gen_range(-3i64..3);
            assert!((-3..3).contains(&x));
            let f = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_the_whole_span() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values must appear");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5u32..5);
    }
}
