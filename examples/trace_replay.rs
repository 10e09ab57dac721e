//! Replay a packet capture through the defense — the workflow the paper's
//! testbed uses with CAIDA traces, end to end:
//!
//! 1. synthesize a workload and write it as a classic libpcap file (in
//!    practice you would capture this with tcpdump);
//! 2. read the pcap back (any ethernet/raw-IP IPv4 capture works);
//! 3. replay it through FIFO and ACC-Turbo and compare;
//! 4. export the per-packet trace as CSV for external analysis.
//!
//! Run with: `cargo run --release --example trace_replay`

use accturbo::clustering::FeatureSet;
use accturbo::core::{AccTurboConfig, AccTurboSwitch};
use accturbo::netsim::{
    pcap_source, run, write_csv, write_pcap, Bandwidth, ClassId, EngineConfig, FifoQueue,
    MergedSource, Packet, PacketSource, SimDuration, SimTime, SingleQueueSwitch,
};
use accturbo::traffic::{
    AttackConfig, AttackSource, AttackVector, BackgroundConfig, BackgroundSource,
};

const SECS: u64 = 30;

fn build_capture() -> Vec<Packet> {
    let end = SimTime::from_secs(SECS);
    let mut source = MergedSource::new(vec![
        Box::new(BackgroundSource::new(BackgroundConfig::new(
            6_000_000,
            SimTime::ZERO,
            end,
            17,
        ))) as Box<dyn PacketSource + Send>,
        Box::new(AttackSource::new(AttackConfig::new(
            AttackVector::Memcached,
            30_000_000,
            SimTime::from_secs(8),
            SimTime::from_secs(22),
            ClassId(1),
            18,
        ))),
    ]);
    std::iter::from_fn(move || source.next_packet()).collect()
}

fn main() -> std::io::Result<()> {
    // 1. Write the capture (tcpdump stand-in).
    let capture = build_capture();
    let dir = std::env::temp_dir();
    let pcap_path = dir.join("accturbo_trace_replay.pcap");
    write_pcap(std::fs::File::create(&pcap_path)?, &capture)?;
    println!("wrote {} packets to {}", capture.len(), pcap_path.display());

    // 2. Read it back. Note: pcap carries no ground-truth labels — we
    //    relabel Memcached-signature packets so the report can score the
    //    defense, exactly as one would label a captured attack trace.
    let (packets, stats) = accturbo::netsim::read_pcap(std::fs::File::open(&pcap_path)?)?;
    println!(
        "parsed {} packets ({} skipped)",
        stats.parsed, stats.skipped
    );
    let labeled: Vec<Packet> = packets
        .into_iter()
        .map(|mut p| {
            if p.sport == 11_211 {
                p.class = ClassId(1);
            }
            p
        })
        .collect();

    // 3. Replay through FIFO and ACC-Turbo.
    let engine = EngineConfig::new(Bandwidth::from_mbps(10))
        .with_stats_interval(SimDuration::from_secs(1))
        .with_control_period(SimDuration::from_millis(50));
    let mut fifo = SingleQueueSwitch::new(FifoQueue::new(512 * 1024).with_pkt_cap(775));
    let mut src = accturbo::netsim::VecSource::new(labeled.clone());
    let fifo_res = run(&mut src, &mut fifo, &engine);

    let mut turbo = AccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_fig6()));
    let mut src = accturbo::netsim::VecSource::new(labeled.clone());
    let turbo_res = run(&mut src, &mut turbo, &engine);

    println!("\nreplay on a 10 Mbps bottleneck (Memcached flood from t=8s to t=22s):");
    println!(
        "  FIFO      benign drops {:>5.1}%  attack drops {:>5.1}%",
        fifo_res.stats.benign_drop_pct(),
        fifo_res.stats.attack_drop_pct()
    );
    println!(
        "  ACC-Turbo benign drops {:>5.1}%  attack drops {:>5.1}%",
        turbo_res.stats.benign_drop_pct(),
        turbo_res.stats.attack_drop_pct()
    );

    // 4. Export as CSV.
    let csv_path = dir.join("accturbo_trace_replay.csv");
    write_csv(std::fs::File::create(&csv_path)?, &labeled)?;
    println!("\nexported the labeled trace to {}", csv_path.display());

    // Bonus: `pcap_source` plugs a capture straight into the engine.
    let (mut src, _) = pcap_source(std::fs::File::open(&pcap_path)?)?;
    let mut sw = SingleQueueSwitch::new(FifoQueue::new(512 * 1024));
    let res = run(
        &mut src,
        &mut sw,
        &EngineConfig::new(Bandwidth::from_mbps(100)),
    );
    println!(
        "uncongested sanity replay: {} in / {} out",
        res.arrivals, res.departures
    );
    Ok(())
}
