//! Locks down the fast path's "no allocation after warmup" claim: the
//! engine loop reuses its calendar slots and drop buffer, so the number
//! of heap allocations during a run must not scale with the number of
//! packets simulated.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator.

use accturbo_netsim::engine::{run, EngineConfig};
use accturbo_netsim::topology::{run_topology, LinkSpec, Topology, TopologyConfig};
use accturbo_netsim::{
    run_sharded, Bandwidth, FifoQueue, Packet, PacketSource, ShardedEngine, SimDuration, SimTime,
    SingleQueueSwitch, Switch, VecSource,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measured sections: the allocation counter is
/// process-global, so concurrent test threads would count into each
/// other's deltas.
static MEASURE: Mutex<()> = Mutex::new(());

/// Allocation count of one engine run over `n` overload packets (workload
/// construction excluded; a wide stats interval keeps the bucket vectors
/// from dominating).
fn allocs_during_run(n: u64) -> u64 {
    let packets: Vec<Packet> = (0..n)
        .map(|i| Packet::new(SimTime::from_nanos(i * 50_000)).with_size(1000))
        .collect();
    let mut src = VecSource::new(packets);
    let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
    let cfg = EngineConfig::new(Bandwidth::from_mbps(20))
        .with_stats_interval(SimDuration::from_secs(10))
        .with_control_period(SimDuration::from_millis(10));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let res = run(&mut src, &mut sw, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(res.arrivals, n, "workload must actually run");
    after - before
}

#[test]
fn engine_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    // Warm up binary-wide lazies (stdio, etc.) outside the measurement.
    let _ = allocs_during_run(100);
    let small = allocs_during_run(2_000);
    let large = allocs_during_run(8_000);
    // 4x the packets must not mean 4x the allocations: only warmup (stats
    // buckets, drop-buffer growth) may allocate, and that is sublinear.
    assert!(
        large <= small + 64,
        "allocations scale with packet count: {small} allocs for 2k pkts, {large} for 8k"
    );
}

/// Allocation count of one sharded run (4 sources, 4 shards) over `n`
/// total packets. The arena columns, per-shard buffers and window heap
/// all warm up during the first window; after that the only allowed
/// growth is sublinear (stats buckets).
fn allocs_during_sharded_run(n: u64) -> u64 {
    let per_source = (n / 4) as usize;
    let sources: Vec<Box<dyn PacketSource>> = (0..4u64)
        .map(|j| {
            let packets: Vec<Packet> = (0..per_source as u64)
                .map(|i| {
                    let g = i * 4 + j;
                    Packet::new(SimTime::from_nanos(g * 50_000))
                        .with_size(1000)
                        .with_src([10, j as u8, 0, 1].into())
                })
                .collect();
            Box::new(VecSource::new(packets)) as Box<dyn PacketSource>
        })
        .collect();
    let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
    let cfg = EngineConfig::new(Bandwidth::from_mbps(20))
        .with_stats_interval(SimDuration::from_secs(10))
        .with_control_period(SimDuration::from_millis(10));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let res = run_sharded(sources, &mut sw, &cfg, 4);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(res.arrivals, (per_source * 4) as u64, "workload must run");
    after - before
}

#[test]
fn sharded_engine_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    let _ = allocs_during_sharded_run(400);
    let small = allocs_during_sharded_run(2_000);
    let large = allocs_during_sharded_run(8_000);
    // The packet arena and window-merge state must reach a fixed point:
    // 4x the packets may not mean 4x the allocations.
    assert!(
        large <= small + 64,
        "sharded datapath allocations scale with packet count: \
         {small} allocs for 2k pkts, {large} for 8k"
    );
}

/// Allocation count of one threaded stream-mode run (`run_stream`, 4
/// shards) over `n` packets of four interleaved flows. The producer
/// thread, both channels and the batch-buffer pool are a fixed cost; the
/// pool's buffers are reused in a fixed rotation, so once every buffer
/// has been filled once nothing grows with the packet count.
fn allocs_during_stream_run(n: u64) -> u64 {
    let packets: Vec<Packet> = (0..n)
        .map(|i| {
            Packet::new(SimTime::from_nanos(i * 50_000))
                .with_size(1000)
                .with_src([10, (i % 4) as u8, 0, 1].into())
        })
        .collect();
    let src = Box::new(VecSource::new(packets));
    let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
    let cfg = EngineConfig::new(Bandwidth::from_mbps(20))
        .with_stats_interval(SimDuration::from_secs(10))
        .with_control_period(SimDuration::from_millis(10));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let res = ShardedEngine::new(4).run_stream(src, &mut sw, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(res.arrivals, n, "workload must run");
    after - before
}

#[test]
fn threaded_stream_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    let _ = allocs_during_stream_run(400);
    // Both sizes cycle the whole batch-buffer pool several times.
    let small = allocs_during_stream_run(40_000);
    let large = allocs_during_stream_run(160_000);
    assert!(
        large <= small + 64,
        "threaded stream allocations scale with packet count: \
         {small} allocs for 40k pkts, {large} for 160k"
    );
}

/// Allocation count of one 2-hop line-topology run over `n` packets.
fn allocs_during_topology_run(n: u64) -> u64 {
    let packets: Vec<Packet> = (0..n)
        .map(|i| Packet::new(SimTime::from_nanos(i * 50_000)).with_size(1000))
        .collect();
    let mut src = VecSource::new(packets);
    let link = LinkSpec::new(Bandwidth::from_mbps(20), SimDuration::from_micros(10));
    let topo = Topology::line(2, link, link);
    let mut switches: Vec<Box<dyn Switch>> = (0..topo.num_nodes())
        .map(|_| Box::new(SingleQueueSwitch::new(FifoQueue::new(20_000))) as Box<dyn Switch>)
        .collect();
    let cfg = TopologyConfig {
        stats_interval: SimDuration::from_secs(10),
        control_period: Some(SimDuration::from_millis(10)),
        end_time: None,
        pushback: None,
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run_topology(&topo, &mut switches, &mut src, &mut |_| 0, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(out.result.arrivals, n, "workload must actually run");
    after - before
}

#[test]
fn topology_engine_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    let _ = allocs_during_topology_run(400);
    let small = allocs_during_topology_run(2_000);
    let large = allocs_during_topology_run(8_000);
    // Wires, in-flight slots and the drop buffer are all reused; only
    // warmup growth (stats buckets, buffer capacity) may allocate.
    assert!(
        large <= small + 64,
        "topology engine allocations scale with packet count: \
         {small} allocs for 2k pkts, {large} for 8k"
    );
}
