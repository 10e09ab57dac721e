//! Batched generation against the per-packet stream: every workload
//! kind of the scenario grammar must drain to the same packets, `seq`
//! included, through `PacketSource::fill` at seeded random batch sizes
//! and cut times as through `next_packet`.
//!
//! The list includes the merge's hard cases: the cicday day (one
//! background source and a generator per attack episode), a ramped
//! pulse wave of 241 sources, and fig2/fig3 (constant-rate aggregates
//! whose arrivals tie across sources). The cut times land on packet
//! arrivals as often as between them, so equal-time ties straddle every
//! kind of batch boundary.
//!
//! Release builds compile out `MergedSource`'s out-of-order assertion;
//! CI also runs this file in the debug profile.

use accturbo_experiments::spec::WorkloadSpec;
use accturbo_netsim::{Filled, Packet, PacketSource, SimTime};
use accturbo_prng::{Rng, SeedableRng, StdRng};

/// At most this many packets of each workload are compared: enough for
/// several episodes, pulses and ramp segments, cheap in a debug build.
const PREFIX: usize = 400_000;

/// `(workload, run seconds)`. `pulse:period=0.5:ramp=0.1` over 26 s is
/// 48 pulses of 5 segments each, plus the background: 241 sources.
const WORKLOADS: &[(&str, u64)] = &[
    ("cicday", 124),
    ("cicday:vectors=NTP:episode=2:gap=1", 20),
    ("pulse", 10),
    ("pulse:period=0.5:ramp=0.1", 26),
    (
        "pulse:period=1.5:duty=0.05:amp=80m:vectors=SYN+NTP:spread=3:ramp=0.4",
        12,
    ),
    ("fig2", 4),
    ("fig3", 4),
    ("fig6", 6),
    ("fig7", 6),
    ("background", 4),
    ("flood", 6),
    ("flood:carpet", 6),
    ("adversarial:evade-agg", 6),
    ("elephant", 4),
];

fn source(spec: &WorkloadSpec, secs: u64) -> Box<dyn PacketSource + Send> {
    spec.build(spec.default_link_bps(), secs, spec.default_seed())
}

/// The first [`PREFIX`] packets, one `next_packet` call each.
fn per_packet(spec: &WorkloadSpec, secs: u64) -> Vec<Packet> {
    let mut src = source(spec, secs);
    std::iter::from_fn(|| src.next_packet())
        .take(PREFIX)
        .collect()
}

/// The first [`PREFIX`] packets through `fill` calls of 1–300 packets,
/// each bounded by `until` = the last packet's arrival plus 0–2 ms (a
/// quarter of them unbounded). A held packet is appended in its turn.
fn batched(spec: &WorkloadSpec, secs: u64, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = source(spec, secs);
    let mut out: Vec<Packet> = Vec::new();
    while out.len() < PREFIX {
        let max = out.len() + rng.gen_range(1..=300usize);
        let last = out.last().map_or(SimTime::ZERO, |p| p.arrival);
        let until = match rng.gen_range(0..4u32) {
            0 => SimTime::MAX,
            1 => last,
            _ => SimTime::from_nanos(last.as_nanos() + rng.gen_range(0..2_000_000u64)),
        };
        let start = out.len();
        let filled = src.fill(&mut out, max, until);
        assert!(
            out[start..].iter().all(|p| p.arrival < until),
            "every batched packet is before `until`"
        );
        match filled {
            Filled::Full => assert_eq!(out.len(), max, "a full batch is full"),
            Filled::Held(pkt) => {
                assert!(pkt.arrival >= until, "a held packet is at or past `until`");
                out.push(pkt);
            }
            Filled::Done => break,
        }
    }
    out.truncate(PREFIX);
    out
}

#[test]
fn every_workload_fills_exactly_its_per_packet_stream() {
    for (k, &(name, secs)) in WORKLOADS.iter().enumerate() {
        let spec: WorkloadSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        let want = per_packet(&spec, secs);
        assert!(
            want.len() > 1_000,
            "{name}: the workload must carry traffic"
        );
        let got = batched(&spec, secs, 0xf111 + k as u64);
        assert_eq!(got.len(), want.len(), "{name}: stream length");
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{name}: packet {i} differs\n  fill: {:?}\n  next_packet: {:?}",
                got[i], want[i]
            );
        }
    }
}
