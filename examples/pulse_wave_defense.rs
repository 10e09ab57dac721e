//! The paper's testbed experiment (§7.1) end to end: CAIDA-like
//! background traffic on a rate-scaled 10 G bottleneck, hit by four
//! UDP-flood pulses, defended by the Tofino hardware profile of
//! ACC-Turbo (4 clusters on the destination-address low bytes + ports).
//!
//! Prints the attack/benign throughput time series for FIFO and
//! ACC-Turbo side by side — the data behind Fig. 6 — and measures the
//! reaction time to each pulse.
//!
//! Run with: `cargo run --release --example pulse_wave_defense`

use accturbo::clustering::FeatureSet;
use accturbo::core::{AccTurboConfig, AccTurboSwitch};
use accturbo::netsim::{
    run, Bandwidth, ClassId, EngineConfig, FifoQueue, MergedSource, PacketSource, RunResult,
    SimDuration, SimTime, SingleQueueSwitch, Switch,
};
use accturbo::traffic::{BackgroundConfig, BackgroundSource, PulseWave};
use std::net::Ipv4Addr;

const LINK_BPS: u64 = 10_000_000; // 10 Gbps at the documented 1/1000 scale
const SECS: u64 = 100;

fn workload() -> MergedSource {
    let end = SimTime::from_secs(SECS);
    let background: Box<dyn PacketSource + Send> = Box::new(BackgroundSource::new(
        BackgroundConfig::new(7_000_000, SimTime::ZERO, end, 1),
    ));
    // Four 10 s pulses at 4x the bottleneck, 10 s apart, each hitting a
    // different host and port of the victim /24.
    let pulses: Box<dyn PacketSource + Send> = Box::new(
        PulseWave::fig6(
            4,
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            40_000_000,
            Ipv4Addr::new(198, 18, 5, 0),
            2,
        )
        .into_source(),
    );
    MergedSource::new(vec![background, pulses])
}

fn simulate(switch: &mut dyn Switch, control_ms: Option<u64>) -> RunResult {
    let mut source = workload();
    let mut cfg = EngineConfig::new(Bandwidth::from_bps(LINK_BPS))
        .with_stats_interval(SimDuration::from_secs(1))
        .with_end_time(SimTime::from_secs(SECS));
    if let Some(ms) = control_ms {
        cfg = cfg.with_control_period(SimDuration::from_millis(ms));
    }
    run(&mut source, switch, &cfg)
}

fn main() {
    let mut fifo = SingleQueueSwitch::new(FifoQueue::new(512 * 1024));
    let fifo_res = simulate(&mut fifo, None);

    let mut turbo = AccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_fig6()));
    let turbo_res = simulate(&mut turbo, Some(50));

    println!("throughput (Mbps at the 1/1000 scale == Gbps on the paper's axis):\n");
    println!(
        "{:>4} | {:>8} {:>8} | {:>8} {:>8}",
        "t(s)", "FIFO-atk", "FIFO-ben", "AT-atk", "AT-ben"
    );
    for t in 0..SECS as usize {
        println!(
            "{t:>4} | {:>8.2} {:>8.2} | {:>8.2} {:>8.2}",
            fifo_res.stats.attack_throughput_bps(t) / 1e6,
            fifo_res.stats.throughput_bps(t, ClassId::BENIGN) / 1e6,
            turbo_res.stats.attack_throughput_bps(t) / 1e6,
            turbo_res.stats.throughput_bps(t, ClassId::BENIGN) / 1e6,
        );
    }

    // Reaction to each pulse: the first second of the pulse in which the
    // attack is held below half the link.
    println!("\nACC-Turbo reaction per pulse:");
    for pulse in 0..4u64 {
        let start = (10 + 20 * pulse) as usize;
        let reaction = (start..start + 10)
            .find(|&t| turbo_res.stats.attack_throughput_bps(t) < 0.5 * LINK_BPS as f64)
            .map(|t| format!("{}s", t - start))
            .unwrap_or_else(|| "none".into());
        println!(
            "  pulse {} (t={start}s): suppressed within {reaction}",
            pulse + 1
        );
    }

    println!(
        "\nbenign packet drops: FIFO {:.1}% vs ACC-Turbo {:.1}%",
        fifo_res.stats.benign_drop_pct(),
        turbo_res.stats.benign_drop_pct()
    );
}
