//! Matrix smoke test over the declarative scenario layer: every
//! [`DefenseSpec`] the factory can build runs the same short flood
//! workload end to end, conserves packets, and round-trips its spec
//! string. A second test pins `xp run workload=fig2 defense=accturbo`
//! to the Fig. 2d experiment it claims to reproduce, and a third runs
//! every workload kind at the shortest run lengths and a 1 bps link.

use accturbo_experiments::common::{share_series, Scale};
use accturbo_experiments::spec::{self, DefenseSpec, ScenarioSpec, WorkloadSpec};

/// Every defense in the matrix survives a short pulse-wave flood and
/// conserves packets (arrivals = departures + drops + backlog).
///
/// The flood attack window opens at t = 5 s, so `secs` must be at
/// least 10 for the attack to actually exercise the defense.
#[test]
fn every_defense_conserves_packets_on_the_flood_workload() {
    let flood: WorkloadSpec = "flood".parse().unwrap();
    for defense in spec::all_defenses() {
        let name = defense.to_string();
        let outcome = ScenarioSpec::new(flood.clone(), defense)
            .with_secs(10)
            .execute();
        let res = &outcome.result;
        assert!(res.arrivals > 0, "{name}: no packets arrived");
        assert_eq!(
            res.arrivals,
            res.departures + res.drops + outcome.backlog_pkts as u64,
            "{name}: packet conservation violated \
             (arrivals {} != departures {} + drops {} + backlog {})",
            res.arrivals,
            res.departures,
            res.drops,
            outcome.backlog_pkts,
        );
    }
}

/// Every defense's display form parses back to the same spec.
#[test]
fn every_defense_round_trips_through_its_spec_string() {
    for defense in spec::all_defenses() {
        let s = defense.to_string();
        let parsed: DefenseSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(parsed.to_string(), s, "display/parse round trip");
    }
}

/// `xp run workload=fig2 defense=accturbo` is the Fig. 2d experiment:
/// the scenario's defaults land on the figure's seed, and the mean
/// per-aggregate shares of the spec-built run equal the figure's own
/// `d.aggN.mean_share` summary numbers bit for bit (checked at quick
/// scale so the test stays fast in debug builds).
#[test]
fn fig2_accturbo_scenario_reproduces_fig2d() {
    use accturbo_experiments::result::Value;

    let full = ScenarioSpec::new(WorkloadSpec::Fig2, DefenseSpec::accturbo());
    assert_eq!(full.secs, WorkloadSpec::Fig2.default_secs(Scale::Full));
    assert_eq!(full.seed, 2022);

    let secs = WorkloadSpec::Fig2.default_secs(Scale::Quick);
    let spec = full.with_secs(secs);
    let via_spec = spec.execute().result;
    let figure = accturbo_experiments::fig2::figure(Scale::Quick, spec.seed);

    let classes = WorkloadSpec::Fig2.share_classes().unwrap();
    let shares = share_series(&via_spec, spec.link_bps, &classes, secs);
    for (i, &c) in classes.iter().enumerate() {
        let mean = shares.iter().map(|row| row[i]).sum::<f64>() / secs as f64;
        let key = format!("d.agg{}.mean_share", c.0);
        let golden = figure
            .result
            .get(&key)
            .unwrap_or_else(|| panic!("fig2 result lacks {key}"));
        match golden.value {
            Value::Num(v) => assert_eq!(v, mean, "{key}: figure {v} vs scenario {mean}"),
            ref other => panic!("{key}: unexpected value {other:?}"),
        }
        if c.0 <= 4 {
            assert!(
                (0.15..=0.25).contains(&mean),
                "benign agg{} mean share {mean:.3} out of the Fig. 2d band",
                c.0
            );
        } else {
            assert!(
                mean < 0.12,
                "attack mean share {mean:.3} not suppressed as in Fig. 2d"
            );
        }
    }
}

/// Every workload kind runs through `xp run` at the shortest run
/// lengths — `secs=1` and `secs=5`, at or before most attack starts —
/// and the Fig. 2/3 pair also at `link=1`, where the demand matrix
/// rounds benign rates to zero. Each run conserves packets instead of
/// panicking on a sub-source that would emit nothing.
#[test]
fn every_workload_kind_runs_at_short_lengths_and_tiny_links() {
    let workloads = [
        "fig2",
        "fig3",
        "fig6",
        "fig7",
        "background",
        "flood:none",
        "flood",
        "flood:carpet",
        "flood:spoof",
        "adversarial:plain",
        "adversarial:evade-pkt",
        "adversarial:evade-agg",
        "adversarial:swap",
        "adversarial:imitate",
        "elephant",
        "pulse",
        "cicday",
    ];
    let mut sentences: Vec<Vec<String>> = Vec::new();
    for w in workloads {
        for secs in [1, 5] {
            sentences.push(vec![format!("workload={w}"), format!("secs={secs}")]);
        }
    }
    for w in ["fig2", "fig3"] {
        sentences.push(vec![
            format!("workload={w}"),
            "link=1".into(),
            "secs=5".into(),
        ]);
    }
    for argv in sentences {
        let cmd =
            accturbo_experiments::cli::parse_run(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        let outcome = cmd.spec.execute();
        let res = &outcome.result;
        assert_eq!(
            res.arrivals,
            res.departures + res.drops + outcome.backlog_pkts as u64,
            "{argv:?}: packet conservation violated"
        );
    }
}
