//! The ACC-enabled switch (paper Fig. 1).
//!
//! Data path: arriving packets first pass the rate-limiting sessions
//! (token-bucket policers on inferred destination prefixes), then a RED
//! output queue. Every RED drop is reported to the agent's drop history.
//!
//! Agent (control plane): at every multiple of the monitoring window `K`
//! the agent checks whether the RED drop rate over the trailing window
//! exceeded `p_high`. If so, it infers aggregates from the dropped
//! headers, computes the excess rate, water-fills the limit `L` over the
//! top `|A|` aggregates, and installs the sessions. Sessions are revisited
//! on the Table 4 cadence and released when old enough and well-behaved.

use crate::config::AccConfig;
use crate::prefix::{infer_aggregates, InferredAggregate};
use crate::ratelimit::{excess_rate, water_fill};
use crate::sessions::{SessionConfig, SessionTable};
use accturbo_netsim::{
    AggLimit, Bandwidth, DropReason, Dropped, Packet, QueueDiscipline, RedQueue, SimTime, Switch,
};
use std::collections::VecDeque;

/// Fraction of a prefix's drops a child must retain for the subtree walk
/// to descend.
const REFINE_KEEP: f64 = 0.9;

/// Fraction of the recently dropped bytes the kept aggregates must
/// cover: ranked prefixes past this cumulative coverage are treated as
/// collateral victims, not congestion-responsible aggregates.
const DROP_COVERAGE: f64 = 0.8;

/// One binned interval of RED arrival/drop counters.
#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    arr_pkts: u64,
    arr_bytes: u64,
    drop_pkts: u64,
}

/// A dropped-packet header retained for inference.
#[derive(Debug, Clone, Copy)]
struct DropRecord {
    at: SimTime,
    dst: u32,
    bytes: u32,
}

/// The classic-ACC switch.
pub struct AccSwitch {
    cfg: AccConfig,
    link: Bandwidth,
    red: RedQueue,
    sessions: SessionTable,
    /// RED drop headers within the trailing monitoring window.
    drop_history: VecDeque<DropRecord>,
    /// Binned RED arrival/drop counters (bin width = EWMA interval).
    bins: VecDeque<(u64, Bin)>,
    next_k_check: SimTime,
    activations: u64,
}

impl AccSwitch {
    /// Builds the switch for a bottleneck of `link` capacity.
    pub fn new(cfg: AccConfig, link: Bandwidth) -> Self {
        let red = RedQueue::new(cfg.red.clone());
        let sessions = SessionTable::new(SessionConfig {
            max_sessions: cfg.max_sessions,
            release_time: cfg.release_time,
            free_time: cfg.free_time,
            cyc_time: cfg.cyc_time,
            init_time: cfg.init_time,
            ewma_interval: cfg.ewma_interval,
            burst_bytes: 15_000,
        });
        let next_k_check = SimTime::ZERO + cfg.k_period;
        AccSwitch {
            cfg,
            link,
            red,
            sessions,
            drop_history: VecDeque::new(),
            bins: VecDeque::new(),
            next_k_check,
            activations: 0,
        }
    }

    /// Times the agent's threshold has fired (test/report hook).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The active rate-limiting sessions.
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    fn bin_index(&self, now: SimTime) -> u64 {
        now.bucket(self.cfg.ewma_interval)
    }

    fn bin_mut(&mut self, now: SimTime) -> &mut Bin {
        let idx = self.bin_index(now);
        match self.bins.back() {
            Some(&(last, _)) if last == idx => {}
            Some(&(last, _)) => {
                debug_assert!(last < idx, "time went backwards");
                self.bins.push_back((idx, Bin::default()));
            }
            None => self.bins.push_back((idx, Bin::default())),
        }
        &mut self.bins.back_mut().expect("just ensured").1
    }

    fn prune(&mut self, now: SimTime) {
        let window_start = now.saturating_since(SimTime::ZERO + self.cfg.k_period);
        let _ = window_start;
        let horizon = if now.as_nanos() > self.cfg.k_period.as_nanos() {
            now - self.cfg.k_period
        } else {
            SimTime::ZERO
        };
        while let Some(front) = self.drop_history.front() {
            if front.at < horizon {
                self.drop_history.pop_front();
            } else {
                break;
            }
        }
        let horizon_bin = horizon.bucket(self.cfg.ewma_interval);
        while let Some(&(idx, _)) = self.bins.front() {
            if idx < horizon_bin {
                self.bins.pop_front();
            } else {
                break;
            }
        }
    }

    /// Drop rate and arrival byte rate over the trailing window.
    fn window_rates(&self) -> (f64, f64) {
        self.rates_over(self.bins.len())
    }

    /// Drop rate and arrival byte rate over the last `n` bins — the
    /// near-current estimate used when sizing limits (the paper's ACC
    /// estimates rates with a 0.1 s EWMA, i.e. current rates, not
    /// K-window averages; a ramping attack would otherwise be limited
    /// against a stale, much lower rate).
    fn rates_over(&self, n: usize) -> (f64, f64) {
        let bins = &self.bins.as_slices();
        let take = n.min(self.bins.len());
        let (mut arr_p, mut arr_b, mut drop_p) = (0u64, 0u64, 0u64);
        for &(_, b) in bins.1.iter().rev().chain(bins.0.iter().rev()).take(take) {
            arr_p += b.arr_pkts;
            arr_b += b.arr_bytes;
            drop_p += b.drop_pkts;
        }
        let drop_rate = if arr_p == 0 {
            0.0
        } else {
            drop_p as f64 / arr_p as f64
        };
        let span = self.cfg.ewma_interval.as_secs_f64() * take.max(1) as f64;
        let arrival_bps = arr_b as f64 * 8.0 / span;
        (drop_rate, arrival_bps)
    }

    /// Number of bins that span roughly the last second.
    fn recent_bins(&self) -> usize {
        ((1e9 / self.cfg.ewma_interval.as_nanos().max(1) as f64) as usize).max(1)
    }

    /// The agent's inference + control step (runs when the threshold
    /// fires).
    fn infer_and_limit(&mut self, now: SimTime) {
        // Aggregates are inferred from the whole K window of dropped
        // headers (more data, better prefixes); rates and the excess are
        // estimated from the last ~second so a ramping attack is limited
        // against its *current* rate.
        let dsts: Vec<u32> = self.drop_history.iter().map(|d| d.dst).collect();
        let aggregates = infer_aggregates(&dsts, self.cfg.max_sessions, REFINE_KEEP);
        if aggregates.is_empty() {
            return;
        }
        let (drop_rate, arrival_bps) = self.rates_over(self.recent_bins());
        let excess = excess_rate(arrival_bps, self.link, self.cfg.p_target);
        if excess <= 0.0 {
            return;
        }
        let recent_horizon = if now.as_nanos() > 1_000_000_000 {
            now - accturbo_netsim::SimDuration::from_secs(1)
        } else {
            SimTime::ZERO
        };
        let recent: Vec<&DropRecord> = self
            .drop_history
            .iter()
            .filter(|d| d.at >= recent_horizon)
            .collect();
        let total_dropped_bytes: u64 = recent.iter().map(|d| d.bytes as u64).sum();
        if total_dropped_bytes == 0 || drop_rate <= 0.0 {
            return;
        }
        let span = now.saturating_since(recent_horizon).as_secs_f64().max(0.1);
        let mut rated: Vec<(InferredAggregate, f64, u64)> = aggregates
            .into_iter()
            .map(|agg| {
                let agg_bytes: u64 = recent
                    .iter()
                    .filter(|d| agg.prefix.contains(d.dst))
                    .map(|d| d.bytes as u64)
                    .sum();
                let rate = agg_bytes as f64 / drop_rate * 8.0 / span;
                (agg, rate, agg_bytes)
            })
            .collect();
        rated.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("rates are finite"));
        // Identification keeps only the prefixes responsible for most of
        // the drops (the paper's criterion): walk the ranked list and stop
        // once the kept aggregates cover DROP_COVERAGE of the dropped
        // bytes. Without this, a scenario with one attack and one benign
        // destination ranks the benign /24 as a second "aggregate" (83% /
        // 17% drop split beats no 2x-mean heavy hitter) and water-fills
        // the victim down alongside the attack.
        let mut covered = 0u64;
        let mut keep = rated.len();
        for (i, &(_, _, bytes)) in rated.iter().enumerate() {
            covered += bytes;
            if covered as f64 >= DROP_COVERAGE * total_dropped_bytes as f64 {
                keep = i + 1;
                break;
            }
        }
        rated.truncate(keep);
        // When congestion persists past the first activation, the drop
        // history mixes the already-limited aggregates with collateral
        // drops from well-behaved traffic, so inference alone can no
        // longer separate attack from victim. Classic ACC handles this by
        // *revising* the limit of existing sessions as conditions change
        // (Mahajan et al. §5.2): tighten the aggregates already convicted
        // first, and only open fresh sessions for whatever excess the
        // tightening cannot shed.
        let (existing, fresh): (Vec<_>, Vec<_>) = rated.into_iter().partition(|(agg, _, _)| {
            self.sessions
                .sessions()
                .iter()
                .any(|s| s.prefix == agg.prefix)
        });
        let mut remaining = excess;
        let mut acted = false;
        if !existing.is_empty() {
            let rates: Vec<f64> = existing.iter().map(|(_, r, _)| *r).collect();
            if let Some(plan) = water_fill(&rates, remaining) {
                let level = plan.limit.as_bps() as f64;
                let shed: f64 = rates[..plan.num_limited]
                    .iter()
                    .map(|r| (r - level).max(0.0))
                    .sum();
                for (agg, _, _) in existing.iter().take(plan.num_limited) {
                    self.sessions.install(agg.prefix, plan.limit, now);
                }
                remaining -= shed;
                acted = true;
            }
        }
        if remaining > 1.0 && !fresh.is_empty() {
            let rates: Vec<f64> = fresh.iter().map(|(_, r, _)| *r).collect();
            if let Some(plan) = water_fill(&rates, remaining) {
                for (agg, _, _) in fresh.iter().take(plan.num_limited) {
                    self.sessions.install(agg.prefix, plan.limit, now);
                }
                acted = true;
            }
        }
        if acted {
            self.activations += 1;
        }
    }
}

impl Switch for AccSwitch {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        // Rate-limiting sessions police before the RED queue (Fig. 1).
        if let Some(session) = self.sessions.match_mut(u32::from(pkt.dst)) {
            if !session.police(pkt.size, now) {
                drops.push(Dropped {
                    packet: pkt,
                    reason: DropReason::Policer,
                });
                return;
            }
        }

        // RED module: count the arrival, enqueue, and report drops to the
        // agent's history.
        {
            let bin = self.bin_mut(now);
            bin.arr_pkts += 1;
            bin.arr_bytes += pkt.size as u64;
        }
        let before = drops.len();
        self.red.enqueue(pkt, now, drops);
        for d in &drops[before..] {
            self.drop_history.push_back(DropRecord {
                at: now,
                dst: u32::from(d.packet.dst),
                bytes: d.packet.size,
            });
            self.bin_mut(now).drop_pkts += 1;
        }
        self.prune(now);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.red.dequeue(now)
    }

    fn backlog_pkts(&self) -> usize {
        self.red.len_pkts()
    }

    fn control_tick(&mut self, now: SimTime) {
        // Threshold check at multiples of K.
        if now >= self.next_k_check {
            self.prune(now);
            let (drop_rate, _) = self.window_rates();
            if drop_rate > self.cfg.p_high {
                self.infer_and_limit(now);
            }
            while self.next_k_check <= now {
                self.next_k_check += self.cfg.k_period;
            }
        }
        // Session lifecycle.
        self.sessions.revisit(now);
    }

    fn pushback_limits(&mut self, _now: SimTime, out: &mut Vec<AggLimit>) {
        // Every active rate-limiting session is also a pushback request:
        // the topology engine propagates these upstream hop by hop
        // (Mahajan §5), while the local session keeps policing as the
        // last line of defense.
        for s in self.sessions.sessions() {
            out.push(AggLimit {
                addr: s.prefix.addr,
                len: s.prefix.len,
                bps: s.limit.as_bps(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::{
        run, ClassId, EngineConfig, MergedSource, PacketSource, RedConfig, SimDuration,
    };
    use accturbo_traffic::{CbrSource, FlowTemplate};
    use std::net::Ipv4Addr;

    const LINK: u64 = 10_000_000;

    fn red() -> RedConfig {
        RedConfig {
            min_th: 20.0,
            max_th: 60.0,
            max_p: 0.1,
            cap_bytes: 100_000,
            ..RedConfig::default()
        }
    }

    fn cbr(
        class: u16,
        subnet: u8,
        rate: u64,
        start_s: u64,
        end_s: u64,
    ) -> Box<dyn PacketSource + Send> {
        Box::new(CbrSource::new(
            FlowTemplate::udp(
                Ipv4Addr::new(10, 0, class as u8, 1),
                Ipv4Addr::new(198, 18, subnet, 10),
                5000 + class,
                80,
                ClassId(class),
            ),
            rate,
            SimTime::from_secs(start_s),
            SimTime::from_secs(end_s),
        ))
    }

    fn engine_cfg() -> EngineConfig {
        EngineConfig::new(Bandwidth::from_bps(LINK))
            .with_stats_interval(SimDuration::from_secs(1))
            .with_control_period(SimDuration::from_millis(100))
    }

    #[test]
    fn no_congestion_no_sessions() {
        // 8 Mbps offered on a 10 Mbps link: RED stays quiet.
        let mut src = MergedSource::new(vec![cbr(1, 1, 8_000_000, 0, 10)]);
        let mut sw = AccSwitch::new(
            AccConfig::default().with_red(red()),
            Bandwidth::from_bps(LINK),
        );
        let res = run(&mut src, &mut sw, &engine_cfg());
        assert_eq!(sw.activations(), 0);
        assert!(sw.sessions().is_empty());
        assert_eq!(res.drops, 0);
    }

    #[test]
    fn sustained_attack_triggers_a_session_on_the_right_prefix() {
        // Benign 6 Mbps to subnet 1; attack 30 Mbps to subnet 5.
        let mut src = MergedSource::new(vec![
            cbr(1, 1, 6_000_000, 0, 20),
            cbr(5, 5, 30_000_000, 0, 20),
        ]);
        let mut sw = AccSwitch::new(
            AccConfig::default().with_red(red()),
            Bandwidth::from_bps(LINK),
        );
        let res = run(&mut src, &mut sw, &engine_cfg());
        assert!(sw.activations() > 0, "the threshold must have fired");
        // The attack must be throttled: benign gets most of its traffic
        // through in the second half.
        let benign_late: f64 = (10..20)
            .map(|b| res.stats.throughput_bps(b, ClassId(1)))
            .sum::<f64>()
            / 10.0;
        assert!(
            benign_late > 5_000_000.0,
            "benign throughput {benign_late:.0} after mitigation"
        );
        let attack_late: f64 = (12..20)
            .map(|b| res.stats.throughput_bps(b, ClassId(5)))
            .sum::<f64>()
            / 8.0;
        assert!(
            attack_late < 8_000_000.0,
            "attack throughput {attack_late:.0} must be limited"
        );
    }

    #[test]
    fn policer_drops_are_attributed() {
        let mut src = MergedSource::new(vec![
            cbr(1, 1, 6_000_000, 0, 20),
            cbr(5, 5, 30_000_000, 0, 20),
        ]);
        let mut sw = AccSwitch::new(
            AccConfig::default().with_red(red()),
            Bandwidth::from_bps(LINK),
        );
        let res = run(&mut src, &mut sw, &engine_cfg());
        let attack_drops = res.stats.total_dropped(ClassId(5)).pkts;
        let benign_drops = res.stats.total_dropped(ClassId(1)).pkts;
        assert!(
            attack_drops > benign_drops * 3,
            "attack must absorb the drops"
        );
    }

    #[test]
    fn reaction_time_grows_with_k() {
        // With a larger K the first possible activation comes later.
        let first_activation = |k_secs: u64| -> Option<u64> {
            let mut src = MergedSource::new(vec![
                cbr(1, 1, 6_000_000, 0, 30),
                cbr(5, 5, 30_000_000, 5, 30),
            ]);
            let cfg = AccConfig::default()
                .with_red(red())
                .with_k(SimDuration::from_secs(k_secs));
            let mut sw = AccSwitch::new(cfg, Bandwidth::from_bps(LINK));
            let res = run(&mut src, &mut sw, &engine_cfg());
            // Find the first second where attack throughput collapses
            // below 50% of link (mitigation engaged).
            (6..30).find(|&s| {
                res.stats.throughput_bps(s as usize, ClassId(5)) < 0.5 * LINK as f64
                    && sw.activations() > 0
            })
        };
        let fast = first_activation(2).expect("K=2 must mitigate");
        let slow = first_activation(10).expect("K=10 must mitigate");
        assert!(
            slow >= fast,
            "K=10 ({slow}s) must react no faster than K=2 ({fast}s)"
        );
    }
}
