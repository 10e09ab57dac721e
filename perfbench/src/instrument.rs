//! Layer timing from outside the program: a packet source and a switch
//! that forward every call to the real one and add the host time it took
//! to a shared [`Probe`].
//!
//! The wrappers keep their totals locally and add them to the probe when
//! they are dropped, so the per-packet cost is two clock reads and no
//! locking. The engines consume the source (the sharded engine moves it
//! into its feed), so dropping is also the one moment every engine shares.

use accturbo_netsim::{AggLimit, Dropped, FeatureExtractor, Packet, PacketSource, SimTime, Switch};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host time one kind of switch spent in each entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchTimes {
    /// Time inside `ingress` and `ingress_featured`.
    pub ingress_ns: u64,
    /// Packets offered to `ingress` / `ingress_featured`.
    pub ingress_pkts: u64,
    /// Time inside `dequeue`, including calls that found nothing.
    pub dequeue_ns: u64,
    /// Calls to `dequeue`.
    pub dequeue_calls: u64,
    /// Packets `dequeue` handed to the link.
    pub dequeue_pkts: u64,
    /// Time inside `control_tick` and `control_missed`.
    pub control_ns: u64,
    /// Control ticks (run or missed).
    pub control_ticks: u64,
    /// Time inside `pushback_limits`.
    pub pushback_ns: u64,
    /// Calls to `pushback_limits`.
    pub pushback_calls: u64,
}

impl SwitchTimes {
    /// Timed calls, each of which cost one [`ClockCost::pair_ns`].
    pub fn timed_calls(&self) -> u64 {
        self.ingress_pkts + self.dequeue_calls + self.control_ticks + self.pushback_calls
    }

    fn add(&mut self, o: &SwitchTimes) {
        self.ingress_ns += o.ingress_ns;
        self.ingress_pkts += o.ingress_pkts;
        self.dequeue_ns += o.dequeue_ns;
        self.dequeue_calls += o.dequeue_calls;
        self.dequeue_pkts += o.dequeue_pkts;
        self.control_ns += o.control_ns;
        self.control_ticks += o.control_ticks;
        self.pushback_ns += o.pushback_ns;
        self.pushback_calls += o.pushback_calls;
    }
}

/// One ACC-Turbo stage as its own `StageClock` reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Accumulated host time.
    pub ns: u64,
    /// Timed calls.
    pub calls: u64,
}

/// Everything the wrappers of one or more traced executions measured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Time inside `PacketSource::next_packet`.
    pub source_ns: u64,
    /// Packets the source yielded.
    pub source_pkts: u64,
    /// Calls to `next_packet`, including the one that found it exhausted.
    pub source_calls: u64,
    /// Per defense label (`fifo`, `red`, `acc`, `accturbo`, `jaqen`).
    pub switches: BTreeMap<&'static str, SwitchTimes>,
    /// ACC-Turbo `classify` stage (clustering).
    pub classify: StageTotal,
    /// ACC-Turbo `enqueue` stage (priority queues).
    pub enqueue: StageTotal,
    /// ACC-Turbo `control_tick` stage (polling, ranking, remapping).
    pub control: StageTotal,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn merge(&mut self, o: &Tally) {
        self.source_ns += o.source_ns;
        self.source_pkts += o.source_pkts;
        self.source_calls += o.source_calls;
        for (label, t) in &o.switches {
            self.switches.entry(label).or_default().add(t);
        }
        for (mine, theirs) in [
            (&mut self.classify, &o.classify),
            (&mut self.enqueue, &o.enqueue),
            (&mut self.control, &o.control),
        ] {
            mine.ns += theirs.ns;
            mine.calls += theirs.calls;
        }
    }
}

/// Where wrappers deliver their totals; shared across the runner's
/// worker threads on the corpus workload.
pub type Probe = Arc<Mutex<Tally>>;

/// Adds `f`'s update to the probe. Used from `Drop`, so a poisoned lock
/// (a panicking job elsewhere) is recovered rather than re-panicked: the
/// tally only ever accumulates, so it is valid at every step.
fn deliver(probe: &Probe, f: impl FnOnce(&mut Tally)) {
    let mut guard = match probe.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard);
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What timing one call costs, so the per-layer figures can be corrected
/// for it: on a host without a cheap cycle counter a clock read costs
/// tens of nanoseconds, as much as some of the calls it times.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// The share of a timed call's measured interval that is the clock's
    /// own (an empty body measures this).
    pub inside_ns: f64,
    /// The whole cost one timed call adds to the run.
    pub pair_ns: f64,
}

impl ClockCost {
    /// Measures both costs with empty timed bodies: the median of 15
    /// batches of 20 000.
    pub fn calibrate() -> ClockCost {
        const BATCH: u32 = 20_000;
        let (mut inside, mut pair) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            let mut acc = 0u64;
            let start = Instant::now();
            for _ in 0..BATCH {
                let t = Instant::now();
                acc += std::hint::black_box(ns_since(t));
            }
            pair.push(start.elapsed().as_nanos() as f64 / f64::from(BATCH));
            inside.push(acc as f64 / f64::from(BATCH));
        }
        ClockCost {
            inside_ns: crate::measure::median(&inside),
            pair_ns: crate::measure::median(&pair),
        }
    }
}

/// A [`PacketSource`] that times the source it wraps.
pub struct TimedSource<S: PacketSource + ?Sized> {
    ns: u64,
    pkts: u64,
    calls: u64,
    probe: Probe,
    inner: Box<S>,
}

impl<S: PacketSource + ?Sized> TimedSource<S> {
    /// Wraps `inner`, reporting to `probe` when dropped.
    pub fn new(inner: Box<S>, probe: Probe) -> Self {
        TimedSource {
            ns: 0,
            pkts: 0,
            calls: 0,
            probe,
            inner,
        }
    }
}

impl<S: PacketSource + ?Sized> PacketSource for TimedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        let t = Instant::now();
        let p = self.inner.next_packet();
        self.ns += ns_since(t);
        self.pkts += u64::from(p.is_some());
        self.calls += 1;
        p
    }
}

impl<S: PacketSource + ?Sized> Drop for TimedSource<S> {
    fn drop(&mut self) {
        let (ns, pkts, calls) = (self.ns, self.pkts, self.calls);
        deliver(&self.probe, |t| {
            t.source_ns += ns;
            t.source_pkts += pkts;
            t.source_calls += calls;
        });
    }
}

/// A [`Switch`] that forwards **every** trait method to the switch it
/// wraps and times it. Forwarding the optional hooks matters: without
/// `feature_extractor` / `ingress_featured` the sharded engine would skip
/// its precomputed-feature path, and without `pushback_limits` the
/// topology engine would never push back — the traced run would then
/// measure a different program.
pub struct TimedSwitch<S: Switch + ?Sized> {
    label: &'static str,
    times: SwitchTimes,
    probe: Probe,
    inner: Box<S>,
}

impl<S: Switch + ?Sized> TimedSwitch<S> {
    /// Wraps `inner`, reporting under `label` to `probe` when dropped.
    pub fn new(inner: Box<S>, label: &'static str, probe: Probe) -> Self {
        TimedSwitch {
            label,
            times: SwitchTimes::default(),
            probe,
            inner,
        }
    }

    /// The wrapped switch.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Switch + ?Sized> Switch for TimedSwitch<S> {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        let t = Instant::now();
        self.inner.ingress(pkt, now, drops);
        self.times.ingress_ns += ns_since(t);
        self.times.ingress_pkts += 1;
    }

    fn ingress_featured(
        &mut self,
        pkt: Packet,
        features: &[u32],
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        let t = Instant::now();
        self.inner.ingress_featured(pkt, features, now, drops);
        self.times.ingress_ns += ns_since(t);
        self.times.ingress_pkts += 1;
    }

    fn feature_extractor(&self) -> Option<FeatureExtractor> {
        self.inner.feature_extractor()
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let t = Instant::now();
        let p = self.inner.dequeue(now);
        self.times.dequeue_ns += ns_since(t);
        self.times.dequeue_calls += 1;
        self.times.dequeue_pkts += u64::from(p.is_some());
        p
    }

    fn backlog_pkts(&self) -> usize {
        self.inner.backlog_pkts()
    }

    fn control_tick(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.control_tick(now);
        self.times.control_ns += ns_since(t);
        self.times.control_ticks += 1;
    }

    fn control_missed(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.control_missed(now);
        self.times.control_ns += ns_since(t);
        self.times.control_ticks += 1;
    }

    fn pushback_limits(&mut self, now: SimTime, out: &mut Vec<AggLimit>) {
        let t = Instant::now();
        self.inner.pushback_limits(now, out);
        self.times.pushback_ns += ns_since(t);
        self.times.pushback_calls += 1;
    }
}

impl<S: Switch + ?Sized> Drop for TimedSwitch<S> {
    fn drop(&mut self) {
        let (label, times) = (self.label, self.times);
        deliver(&self.probe, |t| {
            t.switches.entry(label).or_default().add(&times)
        });
    }
}
