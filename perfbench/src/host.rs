//! How fast the host is right now, from a fixed reference workload.
//!
//! This host's speed drifts by up to ±25% over minutes (see README.md,
//! "Noise"), and every host time moves with it. The reference workload is
//! the benchmark's own code — a miniature of the simulator's hot loop —
//! so no change to the program can speed it up. Timed between
//! repetitions, it lets the end-to-end host metrics be stated at one
//! nominal host speed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The reference rate host metrics are normalized to: the reference
/// workload's speed on a quiet 2-vCPU host of the kind the bounds were
/// measured on.
pub const NOMINAL_OPS_PER_S: f64 = 10.0e6;

/// Reference operations per measurement (about 0.1 s).
const OPS: u32 = 1_000_000;

/// Clusters and feature dimensions of the reference classifier.
const CLUSTERS: usize = 8;
const DIMS: usize = 5;

/// One run of the reference workload on each of `threads` threads at
/// once; returns its mean rate in operations per second. Running on every
/// thread the measured workload uses catches a slow vCPU too.
pub fn ops_per_s(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_rate();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(reference_rate)).collect();
        let total: f64 = runs
            .into_iter()
            .map(|h| h.join().expect("reference workload thread panicked"))
            .sum();
        total / threads as f64
    })
}

/// One operation is one synthetic packet: draw features, find the nearest
/// of 8 range clusters, widen it, queue the packet in one of 4 bounded
/// FIFOs and schedule an event on a binary heap.
fn reference_rate() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut ranges = [[0u32; 2]; CLUSTERS * DIMS];
    for (i, r) in ranges.iter_mut().enumerate() {
        r[0] = (i as u32).wrapping_mul(2_654_435_761) & 0xffff;
        r[1] = r[0] + 100;
    }
    let mut queues: Vec<VecDeque<u64>> = (0..4).map(|_| VecDeque::with_capacity(1024)).collect();
    let mut events = BinaryHeap::with_capacity(1024);
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = [
            (x & 0xffff) as u32,
            ((x >> 16) & 0xffff) as u32,
            ((x >> 32) & 0xff) as u32,
            ((x >> 40) & 0xffff) as u32,
            ((x >> 56) & 0xff) as u32,
        ];
        let mut best = (u32::MAX, 0usize);
        for k in 0..CLUSTERS {
            let mut d = 0u32;
            for (j, &v) in f.iter().enumerate() {
                let [lo, hi] = ranges[k * DIMS + j];
                d += if v < lo { lo - v } else { v.saturating_sub(hi) };
            }
            if d < best.0 {
                best = (d, k);
            }
        }
        for (j, &v) in f.iter().enumerate() {
            let r = &mut ranges[best.1 * DIMS + j];
            r[0] = r[0].min(v);
            r[1] = r[1].max(v);
        }
        let q = &mut queues[best.1 & 3];
        if q.len() < 1000 {
            q.push_back(x);
        } else if let Some(v) = q.pop_front() {
            acc = acc.wrapping_add(v);
        }
        events.push(Reverse(x >> 20));
        if events.len() > 512 {
            if let Some(Reverse(v)) = events.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        if i % 4 == 0 {
            if let Some(v) = queues[(i as usize >> 2) & 3].pop_front() {
                acc ^= v;
            }
        }
        if i % 100_000 == 0 {
            for r in ranges.iter_mut() {
                r[1] = r[0] + 100;
            }
        }
    }
    black_box(acc);
    f64::from(OPS) / start.elapsed().as_secs_f64()
}
