//! The sharded deterministic datapath (DESIGN.md §14).
//!
//! Scaling the packet rate cannot come from running the event loop on
//! more cores — the loop's outputs are a serial total order that every
//! golden and corpus differential depends on. What *can* leave the serial
//! loop is everything upstream of it: workload generation, the k-way
//! time-ordered merge, and per-packet feature extraction. This module
//! moves exactly that work into shards:
//!
//! * Sources (or flows, for a pre-merged stream) are partitioned across
//!   `N` shards by FNV-1a hash.
//! * Each shard fills its slice of a **sealed batch** into a
//!   struct-of-arrays [`PacketArena`], precomputing the switch's
//!   classification features into the arena's feature column.
//! * The shard batches are merged with a unique, deterministic merge key
//!   — byte-identical to the serial path for every shard count,
//!   including `N = 1`.
//!
//! The two entry points differ in how a batch is bounded and where it is
//! filled:
//!
//! * **Source mode** ([`run_sharded`], [`ShardedSource`]) merges many
//!   sources. Its key is `(arrival, source-index)`, so a shard can only
//!   order its slice once it holds every packet up to a time boundary:
//!   batches are **time windows** of one control period, filled inline on
//!   the calling thread.
//! * **Stream mode** ([`ShardedEngine::run_stream`]) partitions one
//!   pre-merged stream. Its key is the global pull ordinal, so where a
//!   batch ends cannot change the output: batches are **bounded by packet
//!   count**, which also caps resident memory however bursty the traffic.
//!   A scoped producer thread pulls the source, partitions, fills the
//!   arenas and seals batches over a bounded channel; the calling thread
//!   runs the serial consumer, so the switch never crosses threads.
//!   Drained batches return to the producer through a second channel, so
//!   steady state allocates nothing. The source must therefore be `Send`
//!   — which the fault plane's `Rc`-shared [`FaultedSource`] is not; the
//!   scenario layer never shards a faulted run.
//!
//! The serial consumer is the same three-slot calendar loop as
//! [`engine::run`], but arrivals come from the sealed batches and enter
//! the switch through [`Switch::ingress_featured`] with their
//! precomputed feature row. Batches are sealed before consumption and
//! cross threads whole, which is why this design pays off where the
//! per-packet channel of the first sharding prototype (see DESIGN.md §14)
//! lost to serial.
//!
//! [`FaultedSource`]: crate::fault::FaultedSource
//! [`engine::run`]: crate::engine::run

use crate::arena::PacketArena;
use crate::engine::{EngineConfig, EventCalendar, EventSlot, RunResult};
use crate::latency::DelayHistogram;
use crate::packet::{Dropped, Packet};
use crate::source::PacketSource;
use crate::stats::StatsCollector;
use crate::switch::{FeatureExtractor, Switch};
use crate::time::{SimDuration, SimTime};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the shard-partitioning hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The shard a source index maps to.
pub fn source_shard(idx: usize, shards: usize) -> usize {
    (fnv1a64(&(idx as u64).to_le_bytes()) % shards as u64) as usize
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

/// One upstream source owned by a shard, with its buffered head packet.
struct Feed {
    /// Global source index — the merge tie-break, identical to the index
    /// [`MergedSource`](crate::source::MergedSource) would use.
    idx: u32,
    src: Box<dyn PacketSource>,
    head: Option<Packet>,
}

/// One shard's slice of a sealed batch: arena rows in pull order, a
/// sorted emission permutation over them, and a cursor. It holds no
/// sources, so a whole batch is `Send` and can be sealed on the stream
/// producer thread.
struct ShardBuf {
    arena: PacketArena,
    /// Merge key per emission position, ascending:
    /// `(arrival_ns << 32) | src_idx` for source mode, the global pull
    /// ordinal for stream mode.
    keys: Vec<u128>,
    /// Arena row per emission position — packets land in the arena in
    /// pull order and are never moved; this permutation is the sorted
    /// window order.
    rows: Vec<u32>,
    cursor: usize,
}

impl ShardBuf {
    fn new(feature_width: usize) -> Self {
        ShardBuf {
            arena: PacketArena::new(feature_width),
            keys: Vec::new(),
            rows: Vec::new(),
            cursor: 0,
        }
    }

    fn reset(&mut self) {
        self.arena.clear();
        self.keys.clear();
        self.rows.clear();
        self.cursor = 0;
    }

    fn head_key(&self) -> Option<u128> {
        self.keys.get(self.cursor).copied()
    }
}

/// One sealed batch: a [`ShardBuf`] per shard.
type Batch = Vec<ShardBuf>;

/// Source mode's per-shard generator: the member sources and the window
/// sort scratch.
struct ShardSources {
    members: Vec<Feed>,
    /// Window sort scratch: `(arrival_ns, src_idx, arena_row)` — the row
    /// is globally increasing in pull order, so the unstable sort is a
    /// total, deterministic order.
    order: Vec<(u64, u32, u32)>,
}

impl ShardSources {
    /// Materializes this shard's slice of the window `[.., end_ns)` into
    /// `buf`: pulls every member source up to the boundary, orders the
    /// slice by `(arrival, source-index)` — stable within a source via
    /// the pull position — and fills the arena columns (features
    /// included).
    fn fill(&mut self, buf: &mut ShardBuf, end_ns: u64, extractor: Option<&FeatureExtractor>) {
        buf.reset();
        self.order.clear();
        for feed in &mut self.members {
            loop {
                let within = feed
                    .head
                    .as_ref()
                    .is_some_and(|p| p.arrival.as_nanos() < end_ns);
                if !within {
                    break;
                }
                let pkt = feed.head.take().expect("checked above");
                let next = feed.src.next_packet();
                if let Some(n) = &next {
                    debug_assert!(
                        n.arrival >= pkt.arrival,
                        "source {} emitted a packet out of order ({} < {})",
                        feed.idx,
                        n.arrival,
                        pkt.arrival,
                    );
                }
                feed.head = next;
                let row = buf.arena.len() as u32;
                self.order.push((pkt.arrival.as_nanos(), feed.idx, row));
                buf.arena.push(pkt, extractor);
            }
        }
        // The arena-row tie-break makes the key total, so the unstable
        // sort is deterministic and equals a stable `(arrival, idx)`
        // sort in per-source pull order.
        self.order.sort_unstable();
        for &(t_ns, idx, row) in &self.order {
            buf.keys.push((u128::from(t_ns) << 32) | u128::from(idx));
            buf.rows.push(row);
        }
    }
}

/// Packets per sealed stream batch. Stream-mode merge keys are global
/// pull ordinals, so where a batch ends cannot change the output; the
/// bound only sets the hand-off granularity and caps resident memory.
const BATCH_PKTS: usize = 4096;

/// Sealed batches the producer may queue ahead of the consumer.
const QUEUED_BATCHES: usize = 2;

/// Batch buffers in circulation: the queued ones, one being filled and
/// one being consumed.
const POOL_BATCHES: usize = QUEUED_BATCHES + 2;

/// Where a [`ShardedFeed`] gets its next batch once the current one is
/// drained.
enum Upstream {
    /// Source mode: one control-period time window at a time,
    /// materialized inline from the member sources. Sequence numbers are
    /// assigned in merge order, exactly like `MergedSource`.
    Windows {
        sources: Vec<ShardSources>,
        window_ns: u64,
        extractor: Option<FeatureExtractor>,
        next_seq: u64,
    },
    /// Stream mode: count-bounded batches sealed by the producer thread
    /// ([`StreamProducer`]); drained batches go back for reuse. The inner
    /// stream's sequence numbers are preserved.
    Batches {
        sealed: Receiver<Batch>,
        spent: SyncSender<Batch>,
    },
}

/// A packet emitted by a [`ShardedFeed`], with the arena coordinates of
/// its precomputed feature row.
struct FedPacket {
    pkt: Packet,
    shard: u32,
    row: u32,
}

/// The sealed shard batches + deterministic merge.
struct ShardedFeed {
    shards: Batch,
    upstream: Upstream,
}

impl ShardedFeed {
    /// Partitions `sources` across `shards` by FNV-1a of the global
    /// source index.
    fn from_sources(
        sources: Vec<Box<dyn PacketSource>>,
        shards: usize,
        window: SimDuration,
        extractor: Option<FeatureExtractor>,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let width = extractor.as_ref().map_or(0, |e| e.width());
        let mut by_shard: Vec<ShardSources> = (0..shards)
            .map(|_| ShardSources {
                members: Vec::new(),
                order: Vec::new(),
            })
            .collect();
        for (idx, mut src) in sources.into_iter().enumerate() {
            let head = src.next_packet();
            by_shard[source_shard(idx, shards)].members.push(Feed {
                idx: idx as u32,
                src,
                head,
            });
        }
        ShardedFeed {
            shards: (0..shards).map(|_| ShardBuf::new(width)).collect(),
            upstream: Upstream::Windows {
                sources: by_shard,
                window_ns: window.as_nanos().max(1),
                extractor,
                next_seq: 0,
            },
        }
    }

    /// Consumes the batches a [`StreamProducer`] seals into `sealed`,
    /// returning each drained batch through `spent`.
    fn from_batches(sealed: Receiver<Batch>, spent: SyncSender<Batch>) -> Self {
        ShardedFeed {
            shards: Vec::new(),
            upstream: Upstream::Batches { sealed, spent },
        }
    }

    /// Replaces the drained batch with the next one. Returns `false`
    /// when the upstream is exhausted.
    ///
    /// Source mode seals the next non-empty time window: the grid is
    /// anchored at `t = 0` with empty windows skipped, so the boundaries
    /// are a pure function of the traffic — not of the shard count.
    fn refill(&mut self) -> bool {
        match &mut self.upstream {
            Upstream::Windows {
                sources,
                window_ns,
                extractor,
                ..
            } => {
                let min_ns = sources
                    .iter()
                    .flat_map(|s| s.members.iter())
                    .filter_map(|f| f.head.as_ref().map(|p| p.arrival.as_nanos()))
                    .min();
                let Some(min_ns) = min_ns else {
                    return false;
                };
                let end_ns = (min_ns / *window_ns)
                    .saturating_add(1)
                    .saturating_mul(*window_ns);
                for (shard_sources, buf) in sources.iter_mut().zip(&mut self.shards) {
                    shard_sources.fill(buf, end_ns, extractor.as_ref());
                }
                true
            }
            Upstream::Batches { sealed, spent } => {
                // A closed channel is end of stream — or a producer
                // panic, which `run_stream` re-raises after the join.
                let Ok(batch) = sealed.recv() else {
                    return false;
                };
                let drained = std::mem::replace(&mut self.shards, batch);
                if !drained.is_empty() {
                    // The channel holds the whole pool, so this fails only
                    // once the producer has finished.
                    let _ = spent.try_send(drained);
                }
                true
            }
        }
    }

    /// The next packet in the deterministic merge order: the lowest merge
    /// key across the shard batch heads (keys are unique — a source, and
    /// an ordinal, lives in exactly one shard).
    fn next(&mut self) -> Option<FedPacket> {
        loop {
            let mut best: Option<(u128, usize)> = None;
            for (s, buf) in self.shards.iter().enumerate() {
                if let Some(k) = buf.head_key() {
                    if best.is_none_or(|(bk, _)| k < bk) {
                        best = Some((k, s));
                    }
                }
            }
            match best {
                Some((_, s)) => {
                    let buf = &mut self.shards[s];
                    let row = buf.rows[buf.cursor];
                    buf.cursor += 1;
                    let mut pkt = buf.arena.packet(row as usize).clone();
                    if let Upstream::Windows { next_seq, .. } = &mut self.upstream {
                        pkt.seq = *next_seq;
                        *next_seq += 1;
                    }
                    return Some(FedPacket {
                        pkt,
                        shard: s as u32,
                        row,
                    });
                }
                None => {
                    if !self.refill() {
                        return None;
                    }
                }
            }
        }
    }

    fn features_row(&self, shard: u32, row: u32) -> &[u32] {
        self.shards[shard as usize].arena.features_row(row as usize)
    }
}

/// Stream mode's producer stage: owns the pre-merged source and, on its
/// own thread, partitions each packet by [`flow_shard`], fills the shard
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
        let mut ordinal = 0u64;
        loop {
            let mut batch = if fresh > 0 {
                fresh -= 1;
                (0..self.shards).map(|_| ShardBuf::new(width)).collect()
            } else {
                match spent.recv() {
                    Ok(mut b) => {
                        b.iter_mut().for_each(ShardBuf::reset);
                        b
                    }
                    Err(_) => return,
                }
            };
            let mut filled = 0;
            let mut ended = false;
            while filled < BATCH_PKTS {
                let Some(pkt) = self
                    .source
                    .next_packet()
                    .filter(|p| end.is_none_or(|e| p.arrival < e))
                else {
                    ended = true;
                    break;
                };
                let buf = &mut batch[flow_shard(&pkt, self.shards)];
                buf.keys.push(u128::from(ordinal));
                buf.rows.push(buf.arena.len() as u32);
                buf.arena.push(pkt, self.extractor.as_ref());
                ordinal += 1;
                filled += 1;
            }
            if filled > 0 && sealed.send(batch).is_err() {
                return;
            }
            if ended {
                return;
            }
        }
    }
}

/// [`MergedSource`](crate::source::MergedSource) rebuilt on the windowed
/// shard machinery: merges `sources` into one time-ordered, sequence-
/// numbered stream, byte-identical to `MergedSource` for every shard
/// count. Implements [`PacketSource`], so it composes with the fault
/// plane, streaming telemetry, and every engine entry point.
pub struct ShardedSource {
    feed: ShardedFeed,
}

impl ShardedSource {
    /// Builds the sharded merge over `sources` with the given window.
    pub fn new(sources: Vec<Box<dyn PacketSource>>, shards: usize, window: SimDuration) -> Self {
        ShardedSource {
            feed: ShardedFeed::from_sources(sources, shards, window, None),
        }
    }
}

impl PacketSource for ShardedSource {
    fn next_packet(&mut self) -> Option<Packet> {
        self.feed.next().map(|f| f.pkt)
    }
}

/// The sharded datapath's serial consumer: the same event loop as
/// [`run`](crate::engine::run), fed by sealed shard batches.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    shards: usize,
}

impl ShardedEngine {
    /// An engine with `shards` generation shards (`1` is valid and is the
    /// plain batched datapath).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedEngine { shards }
    }

    /// The generation window: one control period, falling back to the
    /// stats interval when the scenario runs no control plane.
    fn window(cfg: &EngineConfig) -> SimDuration {
        cfg.control_period.unwrap_or(cfg.stats_interval)
    }

    /// Runs `sources` (merged shard-side, `MergedSource`-identically)
    /// through `switch`. Result-identical to
    /// `run(&mut MergedSource::new(sources), switch, cfg)`.
    pub fn run(
        &self,
        sources: Vec<Box<dyn PacketSource>>,
        switch: &mut dyn Switch,
        cfg: &EngineConfig,
    ) -> RunResult {
        let feed = ShardedFeed::from_sources(
            sources,
            self.shards,
            Self::window(cfg),
            switch.feature_extractor(),
        );
        run_feed(feed, switch, cfg)
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
            // `run_feed` drops the feed — and with it both channel ends —
            // before the join, so a producer blocked on either channel
            // always wakes up and exits.
            let result = run_feed(ShardedFeed::from_batches(sealed_rx, spent_tx), switch, cfg);
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
            result
        })
    }
}

/// [`ShardedEngine::run`] as a free function, mirroring
/// [`run`](crate::engine::run)'s shape.
pub fn run_sharded(
    sources: Vec<Box<dyn PacketSource>>,
    switch: &mut dyn Switch,
    cfg: &EngineConfig,
    shards: usize,
) -> RunResult {
    ShardedEngine::new(shards).run(sources, switch, cfg)
}

/// The truncating pull mirroring the serial engine's `next_arrival`: the
/// first packet at or past the end time is consumed and discarded, and
/// the feed is never pulled again.
fn next_fed(feed: &mut ShardedFeed, end: Option<SimTime>, done: &mut bool) -> Option<FedPacket> {
    if *done {
        return None;
    }
    let fed = feed.next()?;
    match end {
        Some(end) if fed.pkt.arrival >= end => {
            *done = true;
            None
        }
        _ => Some(fed),
    }
}

/// The serial consumer loop — [`run`](crate::engine::run) with arrivals
/// taken from sealed shard batches and delivered through
/// [`Switch::ingress_featured`] with their precomputed feature rows.
/// Stays event-for-event identical: same three-slot calendar, same
/// tie-breaks, same work-gated control plane, same end-time truncation.
fn run_feed(mut feed: ShardedFeed, switch: &mut dyn Switch, cfg: &EngineConfig) -> RunResult {
    let mut stats = StatsCollector::new(cfg.stats_interval);
    let mut delays = DelayHistogram::new();
    let mut drops_buf: Vec<Dropped> = Vec::new();

    let mut calendar = EventCalendar::new();
    let mut src_done = false;
    let mut pending: Option<FedPacket> = next_fed(&mut feed, cfg.end_time, &mut src_done);
    if let Some(p) = &pending {
        calendar.schedule(EventSlot::Arrival, p.pkt.arrival);
    }
    let mut in_flight: Option<Packet> = None;
    if let Some(period) = cfg.control_period {
        calendar.schedule(EventSlot::Control, SimTime::ZERO + period);
    }

    let mut now = SimTime::ZERO;
    let (mut arrivals, mut departures, mut total_drops) = (0u64, 0u64, 0u64);
    let mut stats_bucket = 0u64;

    loop {
        let has_work = calendar.is_scheduled(EventSlot::Tx)
            || calendar.is_scheduled(EventSlot::Arrival)
            || switch.backlog_pkts() > 0;
        let next = if has_work {
            calendar.earliest()
        } else {
            calendar.earliest_without_control()
        };
        let Some((slot, t)) = next else {
            break;
        };
        debug_assert!(t >= now, "event time went backwards");
        now = t;

        let bucket = now.bucket(cfg.stats_interval);
        if bucket != stats_bucket {
            stats_bucket = bucket;
        }

        match slot {
            EventSlot::Tx => {
                let pkt = in_flight.take().expect("Tx slot implies in-flight");
                calendar.cancel(EventSlot::Tx);
                stats.on_depart(&pkt, now);
                delays.record(pkt.class, now.saturating_since(pkt.arrival));
                departures += 1;
            }
            EventSlot::Control => {
                let period = cfg.control_period.expect("Control slot implies a period");
                switch.control_tick(now);
                calendar.schedule(EventSlot::Control, now + period);
            }
            EventSlot::Arrival => {
                let fed = pending
                    .take()
                    .expect("Arrival slot implies a pending packet");
                calendar.cancel(EventSlot::Arrival);
                stats.on_arrival(&fed.pkt);
                arrivals += 1;
                drops_buf.clear();
                let row = feed.features_row(fed.shard, fed.row);
                switch.ingress_featured(fed.pkt, row, now, &mut drops_buf);
                for d in &drops_buf {
                    stats.on_drop(d, now);
                }
                total_drops += drops_buf.len() as u64;
                pending = next_fed(&mut feed, cfg.end_time, &mut src_done);
                // Batched link tick: while the link is busy and the next
                // arrival strictly precedes every scheduled event (ties
                // go to Tx and Control, matching the calendar's slot
                // priority), arrivals ingress back-to-back without the
                // per-packet schedule/earliest/cancel round-trip. The
                // operation sequence — and therefore every output byte —
                // is exactly what the calendar would have produced.
                while in_flight.is_some() {
                    let Some(p) = &pending else { break };
                    let t = p.pkt.arrival;
                    let tx = calendar
                        .scheduled_at(EventSlot::Tx)
                        .expect("busy link implies a scheduled Tx");
                    if t >= tx {
                        break;
                    }
                    if calendar
                        .scheduled_at(EventSlot::Control)
                        .is_some_and(|c| t >= c)
                    {
                        break;
                    }
                    let fed = pending.take().expect("checked above");
                    debug_assert!(t >= now, "arrival time went backwards");
                    now = t;
                    stats.on_arrival(&fed.pkt);
                    arrivals += 1;
                    drops_buf.clear();
                    let row = feed.features_row(fed.shard, fed.row);
                    switch.ingress_featured(fed.pkt, row, now, &mut drops_buf);
                    for d in &drops_buf {
                        stats.on_drop(d, now);
                    }
                    total_drops += drops_buf.len() as u64;
                    pending = next_fed(&mut feed, cfg.end_time, &mut src_done);
                }
                if let Some(p) = &pending {
                    calendar.schedule(EventSlot::Arrival, p.pkt.arrival);
                }
            }
        }

        if in_flight.is_none() {
            if let Some(pkt) = switch.dequeue(now) {
                let tx = cfg.link.tx_time(pkt.size);
                calendar.schedule(EventSlot::Tx, now + tx);
                in_flight = Some(pkt);
            }
        }
    }

    RunResult {
        stats,
        delays,
        final_time: now,
        arrivals,
        departures,
        drops: total_drops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::queue::FifoQueue;
    use crate::source::{IterSource, MergedSource, VecSource};
    use crate::switch::SingleQueueSwitch;
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

    /// [`sources`] boxed for the source-mode entry points.
    fn local_sources(k: usize) -> Vec<Box<dyn PacketSource>> {
        sources(k)
            .into_iter()
            .map(|s| s as Box<dyn PacketSource>)
            .collect()
    }

    fn drain(src: &mut dyn PacketSource) -> Vec<Packet> {
        std::iter::from_fn(|| src.next_packet()).collect()
    }

    #[test]
    fn sharded_source_is_byte_identical_to_merged_source() {
        for shards in [1, 2, 3, 8] {
            let mut serial = MergedSource::new(sources(7));
            let mut sharded =
                ShardedSource::new(local_sources(7), shards, SimDuration::from_millis(1));
            assert_eq!(
                drain(&mut serial),
                drain(&mut sharded),
                "shards={shards} must reproduce the serial merge exactly"
            );
        }
    }

    #[test]
    fn window_boundaries_do_not_reorder() {
        // A window much smaller than the inter-packet gap forces many
        // empty windows and boundary-straddling batches.
        let mut serial = MergedSource::new(sources(3));
        let mut sharded = ShardedSource::new(local_sources(3), 2, SimDuration::from_nanos(77));
        assert_eq!(drain(&mut serial), drain(&mut sharded));
    }

    #[test]
    fn empty_sharded_source_is_empty() {
        let mut s = ShardedSource::new(Vec::new(), 4, SimDuration::from_millis(1));
        assert!(s.next_packet().is_none());
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
    fn run_sharded_matches_serial_run() {
        let mut serial_src = MergedSource::new(sources(7));
        let mut serial_sw = SingleQueueSwitch::new(FifoQueue::new(8_000));
        let serial = run(&mut serial_src, &mut serial_sw, &cfg());
        for shards in [1, 2, 8] {
            let mut sw = SingleQueueSwitch::new(FifoQueue::new(8_000));
            let res = run_sharded(local_sources(7), &mut sw, &cfg(), shards);
            assert_eq!(
                result_fingerprint(&serial),
                result_fingerprint(&res),
                "shards={shards}"
            );
        }
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
            run_sharded(local_sources(6), &mut sw, &cfg(), shards);
            assert_eq!(serial_sw.seen, sw.seen, "shards={shards}");
        }
    }

    #[test]
    fn fnv_partition_is_stable() {
        // The partition function is part of the determinism contract:
        // pin a few values so an accidental hash change cannot hide.
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        let a = source_shard(0, 8);
        let b = source_shard(1, 8);
        for _ in 0..3 {
            assert_eq!(source_shard(0, 8), a);
            assert_eq!(source_shard(1, 8), b);
        }
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
