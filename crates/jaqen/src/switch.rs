//! The Jaqen-model switch (paper §7.2, Table 2).
//!
//! Jaqen detects attacks with sketch-based *signatures* — a pre-configured
//! key (here: the 5-tuple, "Jaqen†", or the source IP, "Jaqen‡") whose
//! per-key packet count is compared against a threshold — and mitigates
//! by installing exact-match drop rules. Its weaknesses, which this model
//! reproduces with the paper's own measured constants, are:
//!
//! * **Signature dependence** (§7.2.1): traffic that varies the keyed
//!   fields (carpet bombing under a 5-tuple key, spoofing under either
//!   key) spreads the counts below any threshold.
//! * **Threshold activation** (§7.2.3): the detection fires only when a
//!   key's count exceeds the threshold in *two consecutive windows*; the
//!   window length is the sketch inter-reset time (Fig. 8b's x-axis).
//! * **Reaction latency** (§7.2.2): once detected, deploying the rule
//!   takes ≈10 s if the mitigation module is loaded, plus ≈11.5 s when
//!   the switch must be reprogrammed.

use crate::sketch::CountMinSketch;
use accturbo_netsim::{
    DropReason, Dropped, FifoQueue, Packet, QueueDiscipline, SimDuration, SimTime, Switch,
};
use std::collections::{HashMap, HashSet};

/// Which signature the sketch keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signature {
    /// The transport 5-tuple ("Jaqen†" in Table 3).
    FiveTuple,
    /// The source address ("Jaqen‡" in Table 3).
    SrcIp,
}

impl Signature {
    /// Grammar name of the signature (the `xp run defense=jaqen:sig=…`
    /// vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Signature::FiveTuple => "5tuple",
            Signature::SrcIp => "srcip",
        }
    }

    /// Resolves a signature from its grammar name.
    pub fn parse(s: &str) -> Option<Signature> {
        match s {
            "5tuple" => Some(Signature::FiveTuple),
            "srcip" => Some(Signature::SrcIp),
            _ => None,
        }
    }

    /// Extracts the keyed value from a packet as a hashable `u64`.
    pub fn key(self, pkt: &Packet) -> u64 {
        match self {
            Signature::FiveTuple => {
                let mut x = u32::from(pkt.src) as u64;
                x = x
                    .wrapping_mul(0x0100_0000_01B3)
                    .wrapping_add(u32::from(pkt.dst) as u64);
                x = x
                    .wrapping_mul(0x0100_0000_01B3)
                    .wrapping_add(((pkt.sport as u64) << 24) | ((pkt.dport as u64) << 8));
                x.wrapping_mul(0x0100_0000_01B3)
                    .wrapping_add(pkt.proto as u64)
            }
            Signature::SrcIp => u32::from(pkt.src) as u64,
        }
    }
}

/// Configuration of the Jaqen model.
#[derive(Debug, Clone)]
pub struct JaqenConfig {
    /// The detection signature.
    pub signature: Signature,
    /// Packet-count threshold per window.
    pub threshold: u64,
    /// Sketch inter-reset time = detection window (Fig. 8b sweeps this).
    pub window: SimDuration,
    /// Windows a key must exceed the threshold in before mitigation (the
    /// paper observes Jaqen requires two consecutive windows).
    pub consecutive_windows: u32,
    /// Delay between detection and the drop rule taking effect (≈10 s in
    /// the paper's best case; + ≈11.5 s when reprogramming is needed).
    pub deploy_delay: SimDuration,
    /// Output FIFO capacity, bytes.
    pub queue_capacity_bytes: u64,
    /// Sketch rows.
    pub sketch_rows: usize,
    /// Sketch columns.
    pub sketch_cols: usize,
}

impl JaqenConfig {
    /// The paper's best-case Jaqen: mitigation module pre-loaded, sketch
    /// read at the controller's maximum speed (1 s windows), threshold as
    /// given.
    pub fn best_case(signature: Signature, threshold: u64) -> Self {
        JaqenConfig {
            signature,
            threshold,
            window: SimDuration::from_secs(1),
            consecutive_windows: 2,
            deploy_delay: SimDuration::from_millis(500),
            queue_capacity_bytes: 512 * 1024,
            sketch_rows: 3,
            sketch_cols: 65_536,
        }
    }

    /// Sets the sketch inter-reset time (detection window).
    pub fn with_window(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        self.window = window;
        self
    }

    /// Sets the detection → mitigation delay.
    pub fn with_deploy_delay(mut self, delay: SimDuration) -> Self {
        self.deploy_delay = delay;
        self
    }
}

/// The modeled Jaqen switch.
pub struct JaqenSwitch {
    cfg: JaqenConfig,
    sketch: CountMinSketch,
    queue: FifoQueue,
    /// Keys that crossed the threshold this window.
    hot_this_window: HashSet<u64>,
    /// Consecutive hot windows per key.
    streak: HashMap<u64, u32>,
    /// Active drop rules.
    rules: HashSet<u64>,
    /// Rules detected but not yet deployed: (activation time, key).
    pending: Vec<(SimTime, u64)>,
    next_window_end: SimTime,
    detections: u64,
}

impl JaqenSwitch {
    /// Builds the switch.
    pub fn new(cfg: JaqenConfig) -> Self {
        let sketch = CountMinSketch::new(cfg.sketch_rows, cfg.sketch_cols);
        // Packet-granular cap like the experiment baseline FIFO (cells,
        // not bytes, are the scarce resource near overflow).
        let queue = FifoQueue::new(cfg.queue_capacity_bytes)
            .with_pkt_cap((cfg.queue_capacity_bytes / 660).max(1) as usize);
        let next_window_end = SimTime::ZERO + cfg.window;
        JaqenSwitch {
            cfg,
            sketch,
            queue,
            hot_this_window: HashSet::new(),
            streak: HashMap::new(),
            rules: HashSet::new(),
            pending: Vec::new(),
            next_window_end,
            detections: 0,
        }
    }

    /// Number of drop rules deployed (active + pending).
    pub fn rules_installed(&self) -> usize {
        self.rules.len() + self.pending.len()
    }

    /// Number of threshold detections fired.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    fn roll_window(&mut self, now: SimTime) {
        while now >= self.next_window_end {
            // Update streaks: keys hot this window extend theirs, all
            // other streaks reset.
            let hot = std::mem::take(&mut self.hot_this_window);
            self.streak.retain(|k, _| hot.contains(k));
            for key in hot {
                let streak = self.streak.entry(key).or_insert(0);
                *streak += 1;
                if *streak >= self.cfg.consecutive_windows && !self.rules.contains(&key) {
                    let already_pending = self.pending.iter().any(|&(_, k)| k == key);
                    if !already_pending {
                        self.pending
                            .push((self.next_window_end + self.cfg.deploy_delay, key));
                        self.detections += 1;
                    }
                }
            }
            self.sketch.reset();
            self.next_window_end += self.cfg.window;
        }
        // Activate due rules.
        let rules = &mut self.rules;
        self.pending.retain(|&(at, key)| {
            if now >= at {
                rules.insert(key);
                false
            } else {
                true
            }
        });
    }
}

impl Switch for JaqenSwitch {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        self.roll_window(now);
        let key = self.cfg.signature.key(&pkt);
        if self.rules.contains(&key) {
            drops.push(Dropped {
                packet: pkt,
                reason: DropReason::Filter,
            });
            return;
        }
        let est = self.sketch.update(key, 1);
        if est >= self.cfg.threshold {
            self.hot_this_window.insert(key);
        }
        self.queue.enqueue(pkt, now, drops);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.queue.dequeue(now)
    }

    fn backlog_pkts(&self) -> usize {
        self.queue.len_pkts()
    }

    fn control_tick(&mut self, now: SimTime) {
        self.roll_window(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::{run, Bandwidth, ClassId, EngineConfig, MergedSource, PacketSource};
    use accturbo_traffic::{AttackConfig, AttackSource, AttackVector, CbrSource, FlowTemplate};
    use std::net::Ipv4Addr;

    const LINK: u64 = 10_000_000;

    fn benign_src(end_s: u64) -> Box<dyn PacketSource + Send> {
        Box::new(CbrSource::new(
            FlowTemplate::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(20, 0, 0, 1),
                5000,
                80,
                ClassId::BENIGN,
            ),
            6_000_000,
            SimTime::ZERO,
            SimTime::from_secs(end_s),
        ))
    }

    fn flood(end_s: u64) -> AttackConfig {
        AttackConfig::new(
            AttackVector::UdpFlood,
            30_000_000,
            SimTime::from_secs(2),
            SimTime::from_secs(end_s),
            ClassId(1),
            3,
        )
        .with_single_flow()
    }

    fn engine() -> EngineConfig {
        EngineConfig::new(Bandwidth::from_bps(LINK))
            .with_control_period(accturbo_netsim::SimDuration::from_millis(100))
    }

    #[test]
    fn single_flow_flood_is_detected_and_dropped() {
        let mut src =
            MergedSource::new(vec![benign_src(20), Box::new(AttackSource::new(flood(20)))]);
        let mut sw = JaqenSwitch::new(JaqenConfig::best_case(Signature::FiveTuple, 1_000));
        let res = run(&mut src, &mut sw, &engine());
        assert!(sw.detections() >= 1);
        assert!(sw.rules_installed() >= 1);
        // After mitigation, benign traffic flows; attack is filtered.
        assert!(res.stats.benign_drop_pct() < 25.0);
        assert!(res.stats.attack_drop_pct() > 60.0);
    }

    #[test]
    fn carpet_bombing_defeats_five_tuple_signature() {
        let mut src = MergedSource::new(vec![
            benign_src(20),
            Box::new(AttackSource::new(flood(20).with_carpet_bombing())),
        ]);
        let mut sw = JaqenSwitch::new(JaqenConfig::best_case(Signature::FiveTuple, 1_000));
        let res = run(&mut src, &mut sw, &engine());
        assert_eq!(
            sw.detections(),
            0,
            "per-flow counts never cross the threshold"
        );
        assert!(
            res.stats.benign_drop_pct() > 40.0,
            "benign suffers like FIFO"
        );
    }

    #[test]
    fn src_ip_signature_survives_carpet_bombing_but_not_spoofing() {
        let run_with = |cfgmod: fn(AttackConfig) -> AttackConfig| {
            let mut src = MergedSource::new(vec![
                benign_src(20),
                Box::new(AttackSource::new(cfgmod(flood(20)))),
            ]);
            let mut sw = JaqenSwitch::new(JaqenConfig::best_case(Signature::SrcIp, 1_000));
            let res = run(&mut src, &mut sw, &engine());
            (sw.detections(), res.stats.benign_drop_pct())
        };
        let (det_carpet, benign_carpet) = run_with(|c| c.with_carpet_bombing());
        assert!(det_carpet >= 1, "src stays fixed under carpet bombing");
        assert!(benign_carpet < 25.0);
        let (det_spoof, benign_spoof) = run_with(|c| c.with_source_spoofing());
        assert_eq!(det_spoof, 0, "spoofed sources spread the counts");
        assert!(benign_spoof > 40.0);
    }

    #[test]
    fn two_consecutive_windows_are_required() {
        // A one-window burst must not trigger mitigation.
        let mut sw = JaqenSwitch::new(JaqenConfig::best_case(Signature::FiveTuple, 100));
        let mut drops = Vec::new();
        for i in 0..500u64 {
            let p = Packet::new(SimTime::from_millis(i)).with_ports(1, 2);
            sw.ingress(p, SimTime::from_millis(i), &mut drops);
            sw.dequeue(SimTime::from_millis(i));
        }
        // Burst confined to window 0; windows 1.. silent.
        sw.control_tick(SimTime::from_secs(5));
        assert_eq!(sw.detections(), 0);
    }

    #[test]
    fn deploy_delay_defers_mitigation() {
        let cfg = JaqenConfig::best_case(Signature::FiveTuple, 100)
            .with_deploy_delay(SimDuration::from_secs(10));
        let mut sw = JaqenSwitch::new(cfg);
        let mut drops = Vec::new();
        // Hot in windows 0 and 1 -> detected at t=2s -> active at t=12s.
        for i in 0..2_500u64 {
            let p = Packet::new(SimTime::from_millis(i)).with_ports(1, 2);
            sw.ingress(p, SimTime::from_millis(i), &mut drops);
            sw.dequeue(SimTime::from_millis(i));
        }
        let drops_before = drops
            .iter()
            .filter(|d| d.reason == DropReason::Filter)
            .count();
        assert_eq!(drops_before, 0, "no filtering before the rule deploys");
        sw.control_tick(SimTime::from_secs(13));
        let p = Packet::new(SimTime::from_secs(13)).with_ports(1, 2);
        sw.ingress(p, SimTime::from_secs(13), &mut drops);
        assert!(
            drops.iter().any(|d| d.reason == DropReason::Filter),
            "rule must be active after the deploy delay"
        );
    }

    #[test]
    fn low_threshold_false_positives_hit_benign_flows() {
        // With an absurdly low threshold, even the benign CBR flow is
        // "detected" and dropped — Fig. 8a's left edge.
        let mut src = MergedSource::new(vec![benign_src(10)]);
        let mut sw = JaqenSwitch::new(JaqenConfig::best_case(Signature::FiveTuple, 10));
        let res = run(&mut src, &mut sw, &engine());
        assert!(
            res.stats.benign_drop_pct() > 50.0,
            "benign flow must be misclassified: {}",
            res.stats.benign_drop_pct()
        );
    }
}
