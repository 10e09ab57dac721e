//! The threaded feed (DESIGN.md §14): traffic generation on a producer
//! thread, under the engine's one serial event loop.
//!
//! The event loop cannot run on more cores — its outputs are a serial
//! total order that every golden and corpus differential depends on. What
//! *can* leave it is the workload generation upstream of it.
//! [`ThreadedSource`] moves exactly that work onto a producer thread: the
//! thread fills each `BATCH_PKTS`-packet batch from the boxed workload
//! source with one [`PacketSource::fill`] call and hands it whole to the
//! consumer over a bounded channel; drained batches return through a
//! second channel, so steady state allocates nothing.
//!
//! The consumer side is a plain [`PacketSource`] that yields the packets
//! in the wrapped source's own order, so it slots in underneath whatever
//! the serial path already does — the fault plane's `FaultedSource`, leaf
//! placement, pushback, tracing, telemetry and the engine's arrival
//! batching all run unchanged, with byte-identical output.
//!
//! The feed never cuts the stream at the engine's end time: it hands
//! over every packet the wrapped source yields, and the engine's
//! truncating pull stays the only place that stops at the end. A feed
//! that stopped early would show a wrapping `FaultedSource` one packet
//! fewer than the serial run, and its fault counters would drift.

use crate::engine::{run, EngineConfig, RunResult};
use crate::packet::Packet;
use crate::source::{Filled, PacketSource};
use crate::switch::Switch;
use crate::time::SimTime;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Packets per batch. Where a batch ends cannot change the output; the
/// bound only sets the hand-off granularity and caps resident memory.
const BATCH_PKTS: usize = 4096;

/// Full batches the producer may queue ahead of the consumer.
const QUEUED_BATCHES: usize = 2;

/// Batch buffers in circulation: the queued ones, one being filled and
/// one being consumed.
const POOL_BATCHES: usize = QUEUED_BATCHES + 2;

/// A [`PacketSource`] whose packets are generated on a producer thread:
/// the wrapped source's stream, in its own order, delivered in batches.
///
/// A panic on the producer is re-raised by the consumer once the stream
/// reaches it; it never surfaces as a short stream.
pub struct ThreadedSource {
    /// The batch being consumed, and the next packet in it.
    batch: Vec<Packet>,
    pos: usize,
    /// Full batches from the producer, drained ones back to it; `None`
    /// once the stream has ended.
    full: Option<Receiver<Vec<Packet>>>,
    spent: Option<SyncSender<Vec<Packet>>>,
    producer: Option<JoinHandle<()>>,
}

impl ThreadedSource {
    /// Starts a producer thread pulling `source`.
    pub fn new(source: Box<dyn PacketSource + Send>) -> Self {
        let (full_tx, full_rx) = sync_channel(QUEUED_BATCHES);
        let (spent_tx, spent_rx) = sync_channel(POOL_BATCHES);
        let producer = std::thread::spawn(move || produce(source, full_tx, spent_rx));
        ThreadedSource {
            batch: Vec::new(),
            pos: 0,
            full: Some(full_rx),
            spent: Some(spent_tx),
            producer: Some(producer),
        }
    }

    /// Drops both channel ends, so a producer blocked on either wakes up
    /// and exits, then joins it and returns its panic, if any.
    fn stop(&mut self) -> std::thread::Result<()> {
        self.full = None;
        self.spent = None;
        self.producer.take().map_or(Ok(()), JoinHandle::join)
    }
}

/// The producer loop: fills batches from `source` until it is exhausted
/// or the consumer hangs up. Buffers come fresh until the pool is full,
/// then back from the consumer through `spent` in FIFO order — batch `k`
/// always reuses buffer `k mod POOL_BATCHES`, so the warm-up allocations
/// are a function of the traffic, not of thread timing.
fn produce(
    mut source: Box<dyn PacketSource + Send>,
    full: SyncSender<Vec<Packet>>,
    spent: Receiver<Vec<Packet>>,
) {
    let mut fresh = POOL_BATCHES;
    loop {
        let mut batch = if fresh > 0 {
            fresh -= 1;
            Vec::with_capacity(BATCH_PKTS)
        } else {
            match spent.recv() {
                Ok(mut b) => {
                    b.clear();
                    b
                }
                Err(_) => return,
            }
        };
        let ended = loop {
            match source.fill(&mut batch, BATCH_PKTS, SimTime::MAX) {
                Filled::Full => break false,
                Filled::Done => break true,
                // Only a packet stamped `SimTime::MAX` is held back; it
                // belongs to the stream like any other.
                Filled::Held(pkt) => batch.push(pkt),
            }
        };
        // A failed send means the consumer hung up.
        if (!batch.is_empty() && full.send(batch).is_err()) || ended {
            return;
        }
    }
}

impl PacketSource for ThreadedSource {
    #[inline]
    fn next_packet(&mut self) -> Option<Packet> {
        loop {
            if let Some(pkt) = self.batch.get(self.pos) {
                self.pos += 1;
                return Some(pkt.clone());
            }
            let next = self.full.as_ref()?.recv();
            let Ok(batch) = next else {
                // The producer has exited: at the end of the stream, or
                // with a panic, which must not pass for the end.
                if let Err(panic) = self.stop() {
                    std::panic::resume_unwind(panic);
                }
                return None;
            };
            let drained = std::mem::replace(&mut self.batch, batch);
            if drained.capacity() > 0 {
                if let Some(spent) = &self.spent {
                    // The channel holds the whole pool, so this fails
                    // only once the producer has finished.
                    let _ = spent.try_send(drained);
                }
            }
            self.pos = 0;
        }
    }
}

impl Drop for ThreadedSource {
    fn drop(&mut self) {
        if let Err(panic) = self.stop() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// [`run`] over a [`ThreadedSource`], for callers that hand over a whole
/// stream at once (the end-to-end benchmark package). The shard count
/// changes nothing: one producer thread generates the whole stream.
#[derive(Debug, Clone)]
pub struct ShardedEngine(());

impl ShardedEngine {
    /// The threaded engine. `shards` must be at least 1.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        ShardedEngine(())
    }

    /// Runs `source` through `switch`, generating it on a producer
    /// thread. Result-identical to `run(&mut source, switch, cfg)`.
    pub fn run_stream(
        &self,
        source: Box<dyn PacketSource + Send>,
        switch: &mut dyn Switch,
        cfg: &EngineConfig,
    ) -> RunResult {
        run(&mut ThreadedSource::new(source), switch, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Dropped;
    use crate::queue::FifoQueue;
    use crate::source::{IterSource, MergedSource, VecSource};
    use crate::switch::SingleQueueSwitch;
    use crate::time::{SimDuration, SimTime};
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

    #[test]
    fn run_stream_matches_serial_run() {
        let mut serial_src = MergedSource::new(sources(5));
        let mut serial_sw = SingleQueueSwitch::new(FifoQueue::new(8_000));
        let serial = run(&mut serial_src, &mut serial_sw, &cfg());
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(8_000));
        let src = Box::new(MergedSource::new(sources(5)));
        let res = ShardedEngine::new(2).run_stream(src, &mut sw, &cfg());
        assert_eq!(format!("{serial:?}"), format!("{res:?}"));
    }

    /// A switch that records the exact ingress stream (seq and arrival).
    struct Recording {
        inner: SingleQueueSwitch<FifoQueue>,
        seen: Vec<(u64, SimTime)>,
        /// Holds the first ingress until the counter reaches the target:
        /// the producer has run ahead as far as it can and is parked on
        /// its full channel.
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
            self.seen.push((pkt.seq, pkt.arrival));
            self.inner.ingress(pkt, now, drops);
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.inner.dequeue(now)
        }
        fn backlog_pkts(&self) -> usize {
            self.inner.backlog_pkts()
        }
    }

    /// Packet `i` of the stream probe: three packets per timestamp, so
    /// equal arrival times straddle every batch boundary
    /// (`BATCH_PKTS % 3 != 0`).
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

    /// Runs `source()` serially and through a [`ThreadedSource`],
    /// asserting the full `RunResult` and the recorded ingress stream
    /// agree. `gated` holds the consumer at its first packet until the
    /// producer has filled the whole buffer pool and is parked on its
    /// full channel.
    fn assert_stream_identity<S, F>(source: F, cfg: &EngineConfig, gated: bool, label: &str)
    where
        S: PacketSource + Send + 'static,
        F: Fn() -> S,
    {
        let mut serial_sw = recording();
        let serial = run(&mut source(), &mut serial_sw, cfg);
        assert!(serial.arrivals > 0, "{label}: the probe must carry traffic");
        let mut sw = recording();
        let pulled = Arc::new(AtomicU64::new(0));
        if gated {
            sw.gate = Some((pulled.clone(), (POOL_BATCHES * BATCH_PKTS) as u64));
        }
        let src = Counted {
            inner: source(),
            pulled,
        };
        let res = run(&mut ThreadedSource::new(Box::new(src)), &mut sw, cfg);
        assert_eq!(
            format!("{serial:?}"),
            format!("{res:?}"),
            "{label}: RunResult drifted"
        );
        assert!(serial_sw.seen == sw.seen, "{label}: ingress stream drifted");
    }

    #[test]
    fn stream_batch_boundaries_do_not_change_the_run() {
        let b = BATCH_PKTS as u64;
        for n in [b - 1, b, b + 1, 3 * b + 1] {
            let src = || VecSource::new((0..n).map(stream_packet).collect());
            assert_stream_identity(src, &stream_cfg(), false, &format!("{n} packets"));
        }
    }

    #[test]
    fn yields_the_whole_stream_in_order() {
        // The feed itself never truncates: every packet of the wrapped
        // source comes out, across batch boundaries, in its order.
        let b = BATCH_PKTS as u64;
        for n in [b - 1, b, b + 1] {
            let mut feed = ThreadedSource::new(Box::new(VecSource::new(
                (0..n).map(stream_packet).collect(),
            )));
            let seqs: Vec<u64> = std::iter::from_fn(|| feed.next_packet())
                .map(|p| p.seq)
                .collect();
            assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "{n} packets");
            assert!(feed.next_packet().is_none(), "an ended feed stays ended");
        }
    }

    #[test]
    fn unbounded_stream_stops_at_the_end_time() {
        // Five batches before the end time, which falls on a three-packet
        // timestamp tie (all three must be cut). The consumer is gated
        // until the producer has parked on its full channel, and must
        // release it when the run ends.
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

    fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
        panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default()
    }

    #[test]
    fn producer_panic_is_reraised_not_truncated() {
        let src = FailingSource {
            next: 0,
            left: 2 * BATCH_PKTS as u64 + 5,
        };
        let mut sw = recording();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                &mut ThreadedSource::new(Box::new(src)),
                &mut sw,
                &stream_cfg(),
            )
        }));
        let panic = out.expect_err("a failed source must not yield a RunResult");
        let msg = panic_message(&*panic);
        assert!(
            msg.contains("mid-stream"),
            "the source's own panic: {msg:?}"
        );
    }

    #[test]
    fn producer_panic_is_reraised_on_drop() {
        // The consumer stops pulling before the failure reaches it (in
        // the producer's second batch); the panic still surfaces when the
        // feed is dropped.
        let src = FailingSource {
            next: 0,
            left: BATCH_PKTS as u64 + 10,
        };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut feed = ThreadedSource::new(Box::new(src));
            assert!(feed.next_packet().is_some());
        }));
        let panic = out.expect_err("the producer's panic must not be swallowed");
        assert!(panic_message(&*panic).contains("mid-stream"));
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
        // parked on its full channel and must be released, or the drop
        // never joins and this test hangs.
        let mut sw = FailingSwitch {
            inner: SingleQueueSwitch::new(FifoQueue::new(8_000)),
            n: 10,
        };
        let src = IterSource::new((0..).map(stream_packet));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                &mut ThreadedSource::new(Box::new(src)),
                &mut sw,
                &stream_cfg(),
            )
        }));
        let panic = out.expect_err("the switch panic must propagate");
        assert!(panic_message(&*panic).contains("switch failed"));
    }
}
