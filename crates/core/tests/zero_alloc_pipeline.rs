//! Locks down the switch datapath's "no allocation after warmup" claim:
//! classify → enqueue and the control tick reuse scratch buffers
//! (`take_window_into`, `assign_queues_into`, the mapping swap), so heap
//! allocations must not scale with the number of packets processed.
//!
//! Lives in its own integration-test binary because it installs a
//! counting global allocator. The count is per thread, so tests running
//! concurrently in this binary never see each other's allocations.

use accturbo_clustering::{FeatureSet, OnlineClusterer};
use accturbo_core::{AccTurboConfig, AccTurboSwitch};
use accturbo_netsim::{ClassId, Packet, SimTime, Switch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn pkt(i: u64) -> Packet {
    if i.is_multiple_of(3) {
        Packet::new(SimTime::from_nanos(i * 1_000))
            .with_dst(Ipv4Addr::new(198, 18, 0, 10))
            .with_ports(123, 4444)
            .with_size(1000)
            .with_class(ClassId(1))
    } else {
        Packet::new(SimTime::from_nanos(i * 1_000))
            .with_dst(Ipv4Addr::new(20, 0, (i % 7) as u8, (i % 251) as u8))
            .with_ports(1024 + (i % 5000) as u16, 443)
            .with_size(400)
    }
}

/// Allocation count of driving `n` packets (with a control tick every
/// 200) through a fresh switch, measured after a warmup pass on the same
/// switch so one-time growth (cluster buffers, queue rings, metric maps)
/// is excluded.
fn allocs_during(sw: &mut AccTurboSwitch<'static>, n: u64) -> u64 {
    let mut drops = Vec::with_capacity(64);
    let before = allocations();
    for i in 0..n {
        sw.ingress(pkt(i), SimTime::from_nanos(i * 1_000), &mut drops);
        let _ = sw.dequeue(SimTime::from_nanos(i * 1_000));
        if i % 200 == 199 {
            sw.control_tick(SimTime::from_nanos(i * 1_000));
            drops.clear();
        }
    }
    allocations() - before
}

#[test]
fn switch_steady_state_does_not_allocate() {
    let mut sw = AccTurboSwitch::new(
        AccTurboConfig::hardware(FeatureSet::hardware_fig6()).with_queue_capacity(1_000_000),
    );
    let _ = allocs_during(&mut sw, 1_000); // warmup
    let small = allocs_during(&mut sw, 2_000);
    let large = allocs_during(&mut sw, 8_000);
    // 4x the packets must not mean 4x the allocations: after warmup the
    // datapath and control tick run entirely out of reused buffers.
    assert!(
        large <= small + 64,
        "allocations scale with packet count: {small} allocs for 2k pkts, {large} for 8k"
    );
}

/// Allocation count of driving `n` packets through `sw` the way the
/// engine's classify-ahead lookahead does: each run of 200 arrivals
/// (one control period) classified in one `classify_ahead` call, then
/// enqueued one by one through `ingress_classified`, then a control
/// tick.
fn allocs_during_lookahead(sw: &mut AccTurboSwitch<'static>, n: u64) -> u64 {
    let mut drops = Vec::with_capacity(64);
    let mut run: Vec<Packet> = Vec::with_capacity(200);
    let before = allocations();
    for start in (0..n).step_by(200) {
        run.clear();
        run.extend((start..n.min(start + 200)).map(pkt));
        assert!(sw.classify_ahead(&run), "the switch classifies ahead");
        for (j, p) in run.iter().enumerate() {
            let now = p.arrival;
            sw.ingress_classified(p.clone(), j, now, &mut drops);
            let _ = sw.dequeue(now);
        }
        sw.control_tick(SimTime::from_nanos((start + 199) * 1_000));
        drops.clear();
    }
    allocations() - before
}

#[test]
fn lookahead_steady_state_does_not_allocate() {
    // The simulation profile takes the clusterer's batch pass; the
    // hardware profile (nominal ports) its per-packet fallback.
    for cfg in [
        AccTurboConfig::simulation(FeatureSet::simulation_default()),
        AccTurboConfig::hardware(FeatureSet::hardware_fig6()),
    ] {
        let mut sw = AccTurboSwitch::new(cfg.with_queue_capacity(1_000_000));
        let _ = allocs_during_lookahead(&mut sw, 1_000); // warmup
        let small = allocs_during_lookahead(&mut sw, 2_000);
        let large = allocs_during_lookahead(&mut sw, 8_000);
        assert!(
            large <= small + 64,
            "lookahead allocations scale with packet count: {small} allocs for 2k pkts, \
             {large} for 8k"
        );
    }
}

/// Allocation count of running `build` (the value is dropped outside the
/// counted span).
fn allocs_of<T>(build: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let built = build();
    (allocations() - before, built)
}

#[test]
fn construction_allocation_counts_stay_pinned() {
    // Building a switch is a per-scenario setup cost (the sweep, search
    // and corpus runners build thousands): it is dominated by small
    // allocations, so their count is the regression guard.
    let cfg = AccTurboConfig::simulation(FeatureSet::simulation_default());
    let clustering = cfg.clustering.clone();
    let (clusterer, _) = allocs_of(|| OnlineClusterer::new(clustering));
    let (switch, _) = allocs_of(|| AccTurboSwitch::new(cfg));
    eprintln!("OnlineClusterer::new: {clusterer} allocations, AccTurboSwitch::new: {switch}");
    assert!(
        clusterer <= 23,
        "OnlineClusterer::new allocates {clusterer} times (pinned at 23)"
    );
    assert!(
        switch <= 29,
        "AccTurboSwitch::new allocates {switch} times (pinned at 29)"
    );
}
