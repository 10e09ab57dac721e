//! The sharded deterministic datapath (DESIGN.md §14).
//!
//! Scaling the packet rate cannot come from running the event loop on
//! more cores — the loop's outputs are a serial total order that every
//! golden and corpus differential depends on. What *can* leave the serial
//! loop is everything upstream of it: workload generation and per-packet
//! feature extraction. [`ShardedEngine::run_stream`] moves exactly that
//! work onto a producer thread:
//!
//! * A scoped producer thread pulls the pre-merged source, partitions
//!   each packet across `N` shards by [`flow_shard`] (FNV-1a of the flow
//!   five-tuple), and appends it to its shard's `PacketArena`,
//!   precomputing the switch's classification features into the arena's
//!   feature column.
//! * A batch is **sealed** after `BATCH_PKTS` (4096) packets and crosses to
//!   the consumer whole over a bounded channel; drained batches return
//!   through a second channel, so steady state allocates nothing. Each
//!   batch records the shard every pulled packet went to (its `route`
//!   column), and the consumer replays that column with one cursor per
//!   shard — which restores the source's own order exactly, so the output
//!   is byte-identical to the serial engine for every shard count and
//!   wherever a batch ends.
//! * The calling thread runs the engine's one event loop
//!   ([`engine::run`]'s), delivering each arrival through
//!   [`Switch::ingress_featured`] with its precomputed feature row. The
//!   switch never crosses threads.
//!
//! The source moves to the producer and must therefore be `Send` — which
//! the fault plane's `Rc`-shared [`FaultedSource`] is not; the scenario
//! layer never shards a faulted run. Batches are sealed before
//! consumption and cross threads whole, which is why this design pays off
//! where the per-packet channel of the first sharding prototype (see
//! DESIGN.md §14) lost to serial.
//!
//! [`FaultedSource`]: crate::fault::FaultedSource
//! [`engine::run`]: crate::engine::run

use crate::arena::PacketArena;
use crate::engine::{drive, ArrivalFeed, EngineConfig, RunResult};
use crate::packet::{Dropped, Packet};
use crate::source::PacketSource;
use crate::switch::{FeatureExtractor, Switch};
use crate::time::SimTime;
use accturbo_obs::NoopTracer;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The largest shard count [`ShardedEngine::new`] accepts. Every batch in
/// the buffer pool holds one arena per shard, and a batch carries at most
/// `BATCH_PKTS` packets, so more shards only add empty arenas; the
/// bound also keeps a shard index within one byte of the route column.
pub const MAX_SHARDS: usize = 256;

const _: () = assert!(MAX_SHARDS <= u8::MAX as usize + 1);

/// FNV-1a over a byte slice — the shard-partitioning hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The shard a packet's flow five-tuple maps to.
pub fn flow_shard(p: &Packet, shards: usize) -> usize {
    let s = p.src.octets();
    let d = p.dst.octets();
    let sp = p.sport.to_be_bytes();
    let dp = p.dport.to_be_bytes();
    let bytes = [
        s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3], sp[0], sp[1], dp[0], dp[1], p.proto,
    ];
    (fnv1a64(&bytes) % shards as u64) as usize
}

/// Packets per sealed batch. The consumer replays each batch's route
/// column in pull order, so where a batch ends cannot change the output;
/// the bound only sets the hand-off granularity and caps resident memory.
const BATCH_PKTS: usize = 4096;

/// Sealed batches the producer may queue ahead of the consumer.
const QUEUED_BATCHES: usize = 2;

/// Batch buffers in circulation: the queued ones, one being filled and
/// one being consumed.
const POOL_BATCHES: usize = QUEUED_BATCHES + 2;

/// One sealed batch: an arena per shard, each holding its packets in pull
/// order, plus the shard each pulled packet went to.
#[derive(Default)]
struct Batch {
    arenas: Vec<PacketArena>,
    /// Shard index of every packet in the batch, in pull order.
    route: Vec<u8>,
}

impl Batch {
    fn new(shards: usize, feature_width: usize) -> Self {
        Batch {
            arenas: (0..shards)
                .map(|_| PacketArena::new(feature_width))
                .collect(),
            route: Vec::with_capacity(BATCH_PKTS),
        }
    }

    fn clear(&mut self) {
        self.arenas.iter_mut().for_each(PacketArena::clear);
        self.route.clear();
    }
}

/// The producer stage: owns the pre-merged source and, on its own
/// thread, partitions each packet by [`flow_shard`], fills the shard
/// arenas (feature rows included) and seals count-bounded batches for
/// the serial consumer.
struct StreamProducer {
    source: Box<dyn PacketSource + Send>,
    shards: usize,
    extractor: Option<FeatureExtractor>,
    /// The engine's end time: the first packet at or past it is pulled,
    /// discarded, and ends the stream — the serial engine's truncation.
    end: Option<SimTime>,
}

impl StreamProducer {
    /// Seals batches into `sealed` until the stream ends or the consumer
    /// hangs up. Buffers come fresh until the pool is full, then back
    /// from the consumer through `spent` in FIFO order — batch `k` always
    /// reuses buffer `k mod POOL_BATCHES`, so the warm-up allocations are
    /// a function of the traffic, not of thread timing.
    fn run(mut self, sealed: SyncSender<Batch>, spent: Receiver<Batch>) {
        let width = self.extractor.as_ref().map_or(0, |e| e.width());
        let end = self.end;
        let mut fresh = POOL_BATCHES;
        loop {
            let mut batch = if fresh > 0 {
                fresh -= 1;
                Batch::new(self.shards, width)
            } else {
                match spent.recv() {
                    Ok(mut b) => {
                        b.clear();
                        b
                    }
                    Err(_) => return,
                }
            };
            let mut ended = false;
            while batch.route.len() < BATCH_PKTS {
                let Some(pkt) = self
                    .source
                    .next_packet()
                    .filter(|p| end.is_none_or(|e| p.arrival < e))
                else {
                    ended = true;
                    break;
                };
                let shard = flow_shard(&pkt, self.shards);
                batch.route.push(shard as u8);
                batch.arenas[shard].push(pkt, self.extractor.as_ref());
            }
            if !batch.route.is_empty() && sealed.send(batch).is_err() {
                return;
            }
            if ended {
                return;
            }
        }
    }
}

/// The consumer side: replays each sealed batch's route column into the
/// event loop, then returns the drained batch to the producer.
struct ShardFeed {
    batch: Batch,
    /// Next position in `batch.route`.
    pos: usize,
    /// Next arena row per shard.
    cursors: Vec<u32>,
    /// Arena coordinates `(shard, row)` of the last-pulled packet.
    last: (usize, usize),
    sealed: Receiver<Batch>,
    spent: SyncSender<Batch>,
}

impl ShardFeed {
    fn new(shards: usize, sealed: Receiver<Batch>, spent: SyncSender<Batch>) -> Self {
        ShardFeed {
            batch: Batch::default(),
            pos: 0,
            cursors: vec![0; shards],
            last: (0, 0),
            sealed,
            spent,
        }
    }

    /// Replaces the drained batch with the next sealed one. Returns
    /// `false` at end of stream — or after a producer panic, which
    /// `run_stream` re-raises after the join.
    fn refill(&mut self) -> bool {
        let Ok(batch) = self.sealed.recv() else {
            return false;
        };
        let drained = std::mem::replace(&mut self.batch, batch);
        if !drained.arenas.is_empty() {
            // The channel holds the whole pool, so this fails only once
            // the producer has finished.
            let _ = self.spent.try_send(drained);
        }
        self.pos = 0;
        self.cursors.fill(0);
        true
    }
}

impl ArrivalFeed for ShardFeed {
    #[inline]
    fn pull(&mut self) -> Option<Packet> {
        loop {
            if let Some(&shard) = self.batch.route.get(self.pos) {
                self.pos += 1;
                let shard = usize::from(shard);
                let row = self.cursors[shard] as usize;
                self.cursors[shard] += 1;
                self.last = (shard, row);
                return Some(self.batch.arenas[shard].packet(row).clone());
            }
            if !self.refill() {
                return None;
            }
        }
    }

    #[inline]
    fn ingress(
        &mut self,
        switch: &mut dyn Switch,
        pkt: Packet,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        let (shard, row) = self.last;
        let features = self.batch.arenas[shard].features_row(row);
        switch.ingress_featured(pkt, features, now, drops);
    }
}

/// The sharded datapath: a producer thread feeding the engine's event
/// loop with sealed shard batches.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    shards: usize,
}

impl ShardedEngine {
    /// An engine with `shards` generation shards (`1` is valid and is the
    /// plain batched datapath). Panics outside `1..=MAX_SHARDS`.
    pub fn new(shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        ShardedEngine { shards }
    }

    /// Runs a pre-merged `source` through `switch`, partitioning by flow
    /// hash. Result-identical to `run(&mut source, switch, cfg)`.
    ///
    /// A two-stage pipeline: a scoped producer thread pulls `source`,
    /// partitions and feature-extracts it into sealed batches, while the
    /// calling thread runs the serial event loop — the switch never
    /// crosses threads. A panic on the producer is re-raised here; it
    /// never surfaces as a truncated result.
    pub fn run_stream(
        &self,
        source: Box<dyn PacketSource + Send>,
        switch: &mut dyn Switch,
        cfg: &EngineConfig,
    ) -> RunResult {
        let producer = StreamProducer {
            source,
            shards: self.shards,
            extractor: switch.feature_extractor(),
            end: cfg.end_time,
        };
        std::thread::scope(|scope| {
            let (sealed_tx, sealed_rx) = sync_channel(QUEUED_BATCHES);
            let (spent_tx, spent_rx) = sync_channel(POOL_BATCHES);
            let handle = std::thread::Builder::new()
                .name("shard-feed".into())
                .spawn_scoped(scope, move || producer.run(sealed_tx, spent_rx))
                .expect("cannot spawn the shard feed thread");
            // The feed — and with it both channel ends — is dropped
            // before the join (also while unwinding from a switch panic),
            // so a producer blocked on either channel always wakes up and
            // exits.
            let result = {
                let mut feed = ShardFeed::new(self.shards, sealed_rx, spent_tx);
                let (topo, tcfg) = cfg.one_node();
                let nodes = &mut [switch];
                let (tracer, place) = (&mut NoopTracer, &mut |_: &Packet| 0);
                drive(
                    &mut feed, &topo, nodes, place, &tcfg, tracer, None, None, None,
                )
                .result
            };
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::queue::FifoQueue;
    use crate::source::{IterSource, MergedSource, VecSource};
    use crate::switch::SingleQueueSwitch;
    use crate::time::SimDuration;
    use crate::units::Bandwidth;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A few CBR-ish sources with deliberate timestamp ties across
    /// sources and within one source.
    fn sources(k: usize) -> Vec<Box<dyn PacketSource + Send>> {
        (0..k)
            .map(|s| {
                let pkts: Vec<Packet> = (0..40u64)
                    .map(|i| {
                        // Collide timestamps across sources (same grid) and
                        // duplicate every 8th timestamp within the source
                        // (each 8th packet reuses its predecessor's slot).
                        let grid = i - u64::from(i.is_multiple_of(8) && i > 0);
                        let t = SimTime::from_micros(grid * 100);
                        Packet::new(t)
                            .with_size(200 + (s as u32 % 5) * 100)
                            .with_src(Ipv4Addr::new(10, 0, (s / 256) as u8, (s % 256) as u8))
                            .with_dst(Ipv4Addr::new(20, 0, 0, 1))
                            .with_ports(1024 + s as u16, 443)
                            .with_proto(17)
                    })
                    .collect();
                Box::new(VecSource::new(pkts)) as Box<dyn PacketSource + Send>
            })
            .collect()
    }

    fn cfg() -> EngineConfig {
        EngineConfig::new(Bandwidth::from_mbps(10))
            .with_control_period(SimDuration::from_millis(1))
            .with_end_time(SimTime::from_millis(3))
    }

    fn result_fingerprint(r: &RunResult) -> (u64, u64, u64, SimTime) {
        (r.arrivals, r.departures, r.drops, r.final_time)
    }

    #[test]
    fn run_stream_matches_serial_run() {
        let mut serial_src = MergedSource::new(sources(5));
        let mut serial_sw = SingleQueueSwitch::new(FifoQueue::new(8_000));
        let serial = run(&mut serial_src, &mut serial_sw, &cfg());
        for shards in [1, 2, 8] {
            let mut sw = SingleQueueSwitch::new(FifoQueue::new(8_000));
            let src = Box::new(MergedSource::new(sources(5)));
            let res = ShardedEngine::new(shards).run_stream(src, &mut sw, &cfg());
            assert_eq!(
                result_fingerprint(&serial),
                result_fingerprint(&res),
                "shards={shards}"
            );
        }
    }

    /// A switch that records the exact ingress stream (seq, arrival, and
    /// the feature row it was handed) — the strongest identity probe.
    struct Recording {
        inner: SingleQueueSwitch<FifoQueue>,
        seen: Vec<(u64, SimTime, Vec<u32>)>,
        /// Holds the first ingress until the counter reaches the target:
        /// the stream producer has run ahead as far as it can and is
        /// parked on its full channel.
        gate: Option<(Arc<AtomicU64>, u64)>,
    }

    fn recording() -> Recording {
        Recording {
            inner: SingleQueueSwitch::new(FifoQueue::new(8_000)),
            seen: Vec::new(),
            gate: None,
        }
    }

    impl Switch for Recording {
        fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
            if let Some((pulled, target)) = self.gate.take() {
                while pulled.load(Ordering::SeqCst) < target {
                    std::thread::yield_now();
                }
            }
            self.seen.push((pkt.seq, pkt.arrival, vec![pkt.size]));
            self.inner.ingress(pkt, now, drops);
        }
        fn ingress_featured(
            &mut self,
            pkt: Packet,
            features: &[u32],
            now: SimTime,
            drops: &mut Vec<Dropped>,
        ) {
            assert_eq!(features, [pkt.size], "precomputed row must match");
            self.ingress(pkt, now, drops);
        }
        fn feature_extractor(&self) -> Option<FeatureExtractor> {
            Some(FeatureExtractor::new(
                1,
                std::sync::Arc::new(|p: &Packet, out: &mut Vec<u32>| {
                    out.clear();
                    out.push(p.size);
                }),
            ))
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.inner.dequeue(now)
        }
        fn backlog_pkts(&self) -> usize {
            self.inner.backlog_pkts()
        }
    }

    #[test]
    fn featured_ingress_stream_is_identical_to_serial() {
        let mut serial_sw = recording();
        let mut serial_src = MergedSource::new(sources(6));
        run(&mut serial_src, &mut serial_sw, &cfg());
        for shards in [1, 2, 8] {
            let mut sw = recording();
            let src = Box::new(MergedSource::new(sources(6)));
            ShardedEngine::new(shards).run_stream(src, &mut sw, &cfg());
            assert_eq!(serial_sw.seen, sw.seen, "shards={shards}");
        }
    }

    #[test]
    fn fnv_partition_is_stable() {
        // The partition function is part of the determinism contract:
        // pin a few values so an accidental hash change cannot hide.
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let p = Packet::new(SimTime::ZERO)
            .with_src(Ipv4Addr::new(10, 0, 0, 1))
            .with_dst(Ipv4Addr::new(20, 0, 0, 2))
            .with_ports(1234, 443)
            .with_proto(6);
        assert_eq!(flow_shard(&p, 8), flow_shard(&p.clone(), 8));
    }

    /// Packet `i` of the stream-mode probe: three packets per timestamp,
    /// so equal arrival times straddle every batch boundary
    /// (`BATCH_PKTS % 3 != 0`), spread over enough flows to fill every
    /// shard.
    fn stream_packet(i: u64) -> Packet {
        let mut p = Packet::new(SimTime::from_micros(i / 3 * 10))
            .with_size(200 + (i % 5) as u32 * 100)
            .with_src(Ipv4Addr::new(10, 1, (i % 13) as u8, 1))
            .with_dst(Ipv4Addr::new(20, 0, 0, 1))
            .with_ports(1024 + (i % 7) as u16, 443)
            .with_proto(17);
        p.seq = i;
        p
    }

    fn stream_cfg() -> EngineConfig {
        EngineConfig::new(Bandwidth::from_mbps(100))
            .with_control_period(SimDuration::from_millis(1))
    }

    /// Counts the packets pulled from the source it wraps.
    struct Counted<S> {
        inner: S,
        pulled: Arc<AtomicU64>,
    }

    impl<S: PacketSource> PacketSource for Counted<S> {
        fn next_packet(&mut self) -> Option<Packet> {
            self.pulled.fetch_add(1, Ordering::SeqCst);
            self.inner.next_packet()
        }
    }

    /// Runs `source()` serially and through `run_stream` at several
    /// shard counts, asserting the full `RunResult` and the recorded
    /// ingress stream (seq, arrival, precomputed feature row) agree.
    /// `gated` holds the consumer at its first packet until the producer
    /// has filled the whole buffer pool and is parked on its full channel.
    fn assert_stream_identity<S, F>(source: F, cfg: &EngineConfig, gated: bool, label: &str)
    where
        S: PacketSource + Send + 'static,
        F: Fn() -> S,
    {
        let mut serial_sw = recording();
        let serial = run(&mut source(), &mut serial_sw, cfg);
        assert!(serial.arrivals > 0, "{label}: the probe must carry traffic");
        for shards in [1, 2, 3] {
            let mut sw = recording();
            let pulled = Arc::new(AtomicU64::new(0));
            if gated {
                sw.gate = Some((pulled.clone(), (POOL_BATCHES * BATCH_PKTS) as u64));
            }
            let src = Counted {
                inner: source(),
                pulled,
            };
            let res = ShardedEngine::new(shards).run_stream(Box::new(src), &mut sw, cfg);
            assert_eq!(
                format!("{serial:?}"),
                format!("{res:?}"),
                "{label}: RunResult drifted at shards={shards}"
            );
            assert!(
                serial_sw.seen == sw.seen,
                "{label}: ingress stream drifted at shards={shards}"
            );
        }
    }

    #[test]
    fn stream_batch_boundaries_do_not_change_the_run() {
        let b = BATCH_PKTS as u64;
        for n in [b, b + 1, 3 * b, 3 * b + 1, b - 1] {
            let src = || VecSource::new((0..n).map(stream_packet).collect());
            assert_stream_identity(src, &stream_cfg(), false, &format!("{n} packets"));
        }
    }

    #[test]
    fn unbounded_stream_stops_at_the_end_time() {
        // Five batches before the end time, which falls on a three-packet
        // timestamp tie (all three must be cut). The consumer is gated
        // until the producer has parked on its full channel.
        let end = SimTime::from_micros(5 * BATCH_PKTS as u64 / 3 * 10);
        let cfg = stream_cfg().with_end_time(end);
        let src = || IterSource::new((0..).map(stream_packet));
        assert_stream_identity(src, &cfg, true, "unbounded");
    }

    /// A source that fails after `left` packets.
    struct FailingSource {
        next: u64,
        left: u64,
    }

    impl PacketSource for FailingSource {
        fn next_packet(&mut self) -> Option<Packet> {
            assert!(self.left > 0, "source failed mid-stream");
            self.left -= 1;
            self.next += 1;
            Some(stream_packet(self.next - 1))
        }
    }

    #[test]
    fn producer_panic_is_reraised_not_truncated() {
        let src = FailingSource {
            next: 0,
            left: 2 * BATCH_PKTS as u64 + 5,
        };
        let mut sw = recording();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardedEngine::new(2).run_stream(Box::new(src), &mut sw, &stream_cfg())
        }));
        let panic = out.expect_err("a failed source must not yield a RunResult");
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.contains("mid-stream"),
            "the source's own panic: {msg:?}"
        );
    }

    /// Panics on its `n`-th ingress.
    struct FailingSwitch {
        inner: SingleQueueSwitch<FifoQueue>,
        n: u64,
    }

    impl Switch for FailingSwitch {
        fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
            self.n -= 1;
            assert!(self.n > 0, "switch failed");
            self.inner.ingress(pkt, now, drops);
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.inner.dequeue(now)
        }
        fn backlog_pkts(&self) -> usize {
            self.inner.backlog_pkts()
        }
    }

    #[test]
    fn consumer_panic_releases_a_blocked_producer() {
        // The switch fails early in an endless stream: the producer is
        // parked on its full channel and must be released, or the scope
        // never joins and this test hangs.
        let mut sw = FailingSwitch {
            inner: SingleQueueSwitch::new(FifoQueue::new(8_000)),
            n: 10,
        };
        let src = IterSource::new((0..).map(stream_packet));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardedEngine::new(2).run_stream(Box::new(src), &mut sw, &stream_cfg())
        }));
        assert!(out.is_err(), "the switch panic must propagate");
    }
}
