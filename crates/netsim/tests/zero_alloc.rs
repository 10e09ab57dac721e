//! Locks down the fast path's "no allocation after warmup" claim: the
//! engine loop reuses its calendar slots and drop buffer, so the number
//! of heap allocations during a run must not scale with the number of
//! packets simulated.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator.

use accturbo_netsim::engine::{run, EngineConfig};
use accturbo_netsim::topology::{
    run_topology, AggLimit, LinkSpec, PushbackPlan, Topology, TopologyConfig,
};
use accturbo_netsim::{
    Bandwidth, Dropped, FifoQueue, Filled, Packet, PacketSource, SimDuration, SimTime,
    SingleQueueSwitch, Switch, ThreadedSource, VecSource,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measured sections: the allocation counter is
/// process-global, so concurrent test threads would count into each
/// other's deltas.
static MEASURE: Mutex<()> = Mutex::new(());

/// A source that counts the batches the engine pulls from it.
struct Batched {
    inner: VecSource,
    fills: u64,
}

impl Batched {
    fn new(packets: Vec<Packet>) -> Self {
        Batched {
            inner: VecSource::new(packets),
            fills: 0,
        }
    }
}

impl PacketSource for Batched {
    fn next_packet(&mut self) -> Option<Packet> {
        self.inner.next_packet()
    }
    fn fill(&mut self, out: &mut Vec<Packet>, max: usize, until: SimTime) -> Filled {
        self.fills += 1;
        self.inner.fill(out, max, until)
    }
}

/// Allocation count of one engine run over `n` overload packets (workload
/// construction excluded; a wide stats interval keeps the bucket vectors
/// from dominating). A FIFO classifies nothing ahead, but the engine
/// still pulls its arrivals in batches, one per control period.
fn allocs_during_run(n: u64) -> u64 {
    let packets: Vec<Packet> = (0..n)
        .map(|i| Packet::new(SimTime::from_nanos(i * 50_000)).with_size(1000))
        .collect();
    let mut src = Batched::new(packets);
    let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
    let cfg = EngineConfig::new(Bandwidth::from_mbps(20))
        .with_stats_interval(SimDuration::from_secs(10))
        .with_control_period(SimDuration::from_millis(10));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let res = run(&mut src, &mut sw, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(res.arrivals, n, "workload must actually run");
    assert!(
        src.fills >= n / 200,
        "the arrivals must be batched: {} batches",
        src.fills
    );
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

/// A FIFO that classifies ahead (classification is a no-op), counting
/// the batches it accepted.
struct Ahead {
    inner: SingleQueueSwitch<FifoQueue>,
    batches: u64,
}

impl Switch for Ahead {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        self.inner.ingress(pkt, now, drops);
    }
    fn classify_ahead(&mut self, _: &[Packet]) -> bool {
        self.batches += 1;
        true
    }
    fn ingress_classified(&mut self, pkt: Packet, _: usize, now: SimTime, d: &mut Vec<Dropped>) {
        self.inner.ingress(pkt, now, d);
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.inner.dequeue(now)
    }
    fn backlog_pkts(&self) -> usize {
        self.inner.backlog_pkts()
    }
}

/// [`allocs_during_run`] on a switch that classifies ahead: the engine
/// batches the 200 arrivals of each control period.
fn allocs_during_lookahead_run(n: u64) -> u64 {
    let packets: Vec<Packet> = (0..n)
        .map(|i| Packet::new(SimTime::from_nanos(i * 50_000)).with_size(1000))
        .collect();
    let mut src = VecSource::new(packets);
    let mut sw = Ahead {
        inner: SingleQueueSwitch::new(FifoQueue::new(20_000)),
        batches: 0,
    };
    let cfg = EngineConfig::new(Bandwidth::from_mbps(20))
        .with_stats_interval(SimDuration::from_secs(10))
        .with_control_period(SimDuration::from_millis(10));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let res = run(&mut src, &mut sw, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(res.arrivals, n, "workload must actually run");
    assert!(
        sw.batches >= n / 200,
        "the lookahead must run: {} batches",
        sw.batches
    );
    after - before
}

#[test]
fn lookahead_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    let _ = allocs_during_lookahead_run(400);
    let small = allocs_during_lookahead_run(2_000);
    let large = allocs_during_lookahead_run(8_000);
    assert!(
        large <= small + 64,
        "lookahead allocations scale with packet count: {small} allocs for 2k pkts, \
         {large} for 8k"
    );
}

/// Allocation count of one run over a `ThreadedSource` carrying `n`
/// packets of four interleaved flows. The producer thread, both channels
/// and the batch-buffer pool are a fixed cost; the pool's buffers are
/// reused in a fixed rotation, so once every buffer has been filled once
/// nothing grows with the packet count.
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
    let res = run(&mut ThreadedSource::new(src), &mut sw, &cfg);
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

/// A bottleneck that asks its upstream to police all traffic to 1 Mbps.
struct Limiting(SingleQueueSwitch<FifoQueue>);

impl Switch for Limiting {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        self.0.ingress(pkt, now, drops);
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.0.dequeue(now)
    }
    fn backlog_pkts(&self) -> usize {
        self.0.backlog_pkts()
    }
    fn pushback_limits(&mut self, _now: SimTime, out: &mut Vec<AggLimit>) {
        out.push(AggLimit {
            addr: 0,
            len: 0,
            bps: 1_000_000,
        });
    }
}

/// The link of every topology run.
fn tree_link() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_mbps(20), SimDuration::from_micros(10))
}

/// Allocation count of one line-topology run over `n` packets: two hops
/// without pushback; with it, three hops whose root requests a limit
/// that is refreshed every millisecond and re-divided at every hop.
fn allocs_during_line_run(n: u64, pushback: bool) -> u64 {
    let topo = Topology::line(if pushback { 3 } else { 2 }, tree_link(), tree_link());
    allocs_during_topology_run(n, &topo, pushback)
}

/// Allocation count of one run over `n` packets on `topo`, spread over
/// its leaves by source address; with `pushback`, the root requests a
/// limit that is refreshed every millisecond and divided down the tree.
fn allocs_during_topology_run(n: u64, topo: &Topology, pushback: bool) -> u64 {
    let leaves = topo.leaves().len();
    let packets: Vec<Packet> = (0..n)
        .map(|i| {
            Packet::new(SimTime::from_nanos(i * 50_000))
                .with_size(1000)
                .with_src([10, (i % 251) as u8, 0, 1].into())
        })
        .collect();
    let mut src = Batched::new(packets);
    let mut switches: Vec<Box<dyn Switch>> = (0..topo.num_nodes())
        .map(|i| {
            let sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
            if pushback && i == topo.root() {
                Box::new(Limiting(sw)) as Box<dyn Switch>
            } else {
                Box::new(sw)
            }
        })
        .collect();
    let cfg = TopologyConfig {
        stats_interval: SimDuration::from_secs(10),
        control_period: Some(SimDuration::from_millis(10)),
        end_time: None,
        pushback: pushback.then(|| PushbackPlan::new(SimDuration::from_millis(1))),
    };
    let mut place = |p: &Packet| usize::from(p.src.octets()[1]) % leaves;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run_topology(topo, &mut switches, &mut src, &mut place, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(out.result.arrivals, n, "workload must actually run");
    assert!(src.fills >= n / 200, "the arrivals must be batched");
    if pushback {
        assert!(
            topo.leaves().iter().any(|&l| out.node_drops[l] > 0),
            "a leaf policer must drop"
        );
    }
    after - before
}

#[test]
fn topology_engine_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    let _ = allocs_during_line_run(400, false);
    let small = allocs_during_line_run(2_000, false);
    let large = allocs_during_line_run(8_000, false);
    // Wires, in-flight slots and the drop buffer are all reused; only
    // warmup growth (stats buckets, buffer capacity) may allocate.
    assert!(
        large <= small + 64,
        "topology engine allocations scale with packet count: \
         {small} allocs for 2k pkts, {large} for 8k"
    );
}

#[test]
fn pushback_steady_state_does_not_allocate() {
    let _guard = MEASURE.lock().unwrap();
    let _ = allocs_during_line_run(400, true);
    // 100 vs 400 refreshes, each dividing the limit at two hops.
    let small = allocs_during_line_run(2_000, true);
    let large = allocs_during_line_run(8_000, true);
    assert!(
        large <= small + 64,
        "pushback allocations scale with packet count: \
         {small} allocs for 2k pkts, {large} for 8k"
    );
}

#[test]
fn fattree_pushback_steady_state_does_not_allocate() {
    // `fattree:4:pushback=on`: 16 edges, 4 aggregations and the core,
    // the arrivals spread over every edge.
    let _guard = MEASURE.lock().unwrap();
    let topo = Topology::fattree(4, tree_link(), tree_link());
    let _ = allocs_during_topology_run(400, &topo, true);
    let small = allocs_during_topology_run(2_000, &topo, true);
    let large = allocs_during_topology_run(8_000, &topo, true);
    assert!(
        large <= small + 64,
        "fat-tree pushback allocations scale with packet count: \
         {small} allocs for 2k pkts, {large} for 8k"
    );
}
