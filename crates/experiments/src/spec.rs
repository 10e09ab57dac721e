//! The declarative scenario layer (DESIGN.md §10).
//!
//! Every experiment in this crate is the same sentence: *run workload W
//! against defense D on link L for S seconds at seed R (optionally under
//! faults F)*. This module makes that sentence a value:
//!
//! * [`WorkloadSpec`] — names a traffic generator from
//!   `accturbo_traffic` together with its parameters.
//! * [`DefenseSpec`] — names a switch under test and knows how to build
//!   it ([`DefenseSpec::build`]) and what control-plane period it
//!   naturally wants ([`DefenseSpec::control_period`]).
//! * [`ScenarioSpec`] — the full sentence, with one executor
//!   ([`execute_streamed`]; [`execute`] is it without telemetry). It
//!   builds the fault plane, switches and source, then runs the
//!   engine's one loop on the scenario's tree, so spec-driven runs are
//!   byte-identical to the hand-rolled ones they replaced. Every knob
//!   combines with every other.
//!
//! Both spec types round-trip through a colon-separated textual grammar
//! (`accturbo:profile=hw:clusters=8`, `flood:carpet`, …) — the `xp run`
//! subcommand's surface. `parse(display(x)) == x` for every spec, and
//! `Display` emits only non-default knobs so canonical strings stay
//! short.
//!
//! [`execute`]: ScenarioSpec::execute
//! [`execute_streamed`]: ScenarioSpec::execute_streamed

use crate::common::{forced_noop_faults, Scale, LINK_10G_SCALED};
use accturbo_acc::{AccConfig, AccSwitch};
use accturbo_clustering::{DistanceKind, FeatureSet, InitMode, NominalMode, RepMode, SearchKind};
use accturbo_core::{AccTurboConfig, AccTurboSwitch, IdealPifoSwitch, RankedAccTurboSwitch};
use accturbo_jaqen::{JaqenConfig, JaqenSwitch, Signature};
use accturbo_netsim::{
    run_topology_streamed, Bandwidth, ClassId, FaultConfig, FaultInjector, FaultSchedule,
    FaultStats, FaultedSource, LinkSpec, Packet, PacketSource, ProgramSwapSwitch, PushbackPlan,
    RedConfig, RedQueue, RunResult, SimDuration, SimTime, SingleQueueSwitch, Switch,
    ThreadedSource, Topology, TopologyConfig, TopologyRunResult,
};
use accturbo_obs::{NoopTracer, Telemetry};
use accturbo_sched::{DegradationCounters, RankingAlgorithm};
use accturbo_traffic::workloads::{self, AdversarialScenario, FloodVariation, PulseAttackConfig};
use accturbo_traffic::{scenarios, AttackVector, CicDdosConfig, LeafPlacement};
use std::fmt;
use std::str::FromStr;

/// Renders a duration as seconds — integer when whole, decimal
/// otherwise — the value format of the spec grammar.
fn fmt_secs(d: SimDuration) -> String {
    let s = d.as_secs_f64();
    if s == s.trunc() {
        format!("{}", s as u64)
    } else {
        format!("{s}")
    }
}

pub(crate) fn parse_secs(v: &str) -> Result<SimDuration, String> {
    let s: f64 = v
        .parse()
        .map_err(|_| format!("expected a duration in seconds, got `{v}`"))?;
    if !s.is_finite() || s <= 0.0 {
        return Err(format!("duration must be positive, got `{v}`"));
    }
    let d = SimDuration::from_secs_f64(s);
    if d.is_zero() {
        return Err(format!("duration `{v}` rounds to 0 ns"));
    }
    Ok(d)
}

/// Parses a duration that may be zero (ramp shapes: `0` = square pulse).
fn parse_secs_or_zero(v: &str) -> Result<SimDuration, String> {
    let s: f64 = v
        .parse()
        .map_err(|_| format!("expected a duration in seconds, got `{v}`"))?;
    if !s.is_finite() || s < 0.0 {
        return Err(format!("duration must be non-negative, got `{v}`"));
    }
    Ok(SimDuration::from_secs_f64(s))
}

/// Renders bits-per-second in the grammar's bandwidth notation: `2g`,
/// `40m`, `750k` when evenly divisible, raw bps otherwise.
pub(crate) fn fmt_bandwidth(bps: u64) -> String {
    if bps.is_multiple_of(1_000_000_000) {
        format!("{}g", bps / 1_000_000_000)
    } else if bps.is_multiple_of(1_000_000) {
        format!("{}m", bps / 1_000_000)
    } else if bps.is_multiple_of(1_000) {
        format!("{}k", bps / 1_000)
    } else {
        format!("{bps}")
    }
}

/// Parses the grammar's bandwidth notation (`10m`, `2.5g`, raw bps).
pub(crate) fn parse_bandwidth(v: &str) -> Result<u64, String> {
    let lower = v.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix('g') {
        (n, 1e9)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n, 1e6)
    } else if let Some(n) = lower.strip_suffix('k') {
        (n, 1e3)
    } else {
        (lower.as_str(), 1.0)
    };
    let x: f64 = num
        .parse()
        .map_err(|_| format!("`{v}` is not a bandwidth (e.g. 10m, 2.5g, 10000000)"))?;
    if !x.is_finite() || x <= 0.0 {
        return Err(format!("bandwidth `{v}` must be positive"));
    }
    match (x * mult).round() as u64 {
        0 => Err(format!("bandwidth `{v}` rounds to 0 bps")),
        bps => Ok(bps),
    }
}

/// Parses a `+`-separated attack-vector mix (`udp+syn+ntp`).
fn parse_vector_mix(val: &str) -> Result<Vec<AttackVector>, String> {
    let parsed = val
        .split('+')
        .map(|name| {
            AttackVector::by_name(name).ok_or_else(|| format!("unknown attack vector `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if parsed.is_empty() {
        return Err("vectors list must be non-empty".into());
    }
    Ok(parsed)
}

/// A spec string split into its head token and `key=val` options.
type SpecParts<'a> = (&'a str, Vec<(&'a str, &'a str)>);

/// Splits `spec` into its head token and `key=val` options.
fn split_spec(spec: &str) -> Result<SpecParts<'_>, String> {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or_default();
    let opts = parts
        .map(|p| {
            p.split_once('=')
                .ok_or_else(|| format!("expected `key=value`, got `{p}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((head, opts))
}

// ---------------------------------------------------------------------------
// Defenses
// ---------------------------------------------------------------------------

/// Which base profile an [`AccTurboSpec`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// [`AccTurboConfig::hardware`] — the Tofino-1 §6/§7 profile.
    Hardware,
    /// [`AccTurboConfig::simulation`] — the §8 simulation profile.
    Simulation,
}

/// Named feature sets the grammar can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureProfile {
    /// [`FeatureSet::simulation_default`] (`sim`).
    Simulation,
    /// [`FeatureSet::hardware_fig6`] (`fig6`).
    HwFig6,
    /// [`FeatureSet::hardware_dst_bytes`] (`dst4`).
    HwDstBytes,
}

impl FeatureProfile {
    /// The concrete feature set.
    pub fn feature_set(self) -> FeatureSet {
        match self {
            FeatureProfile::Simulation => FeatureSet::simulation_default(),
            FeatureProfile::HwFig6 => FeatureSet::hardware_fig6(),
            FeatureProfile::HwDstBytes => FeatureSet::hardware_dst_bytes(),
        }
    }

    /// Grammar token.
    pub fn name(self) -> &'static str {
        match self {
            FeatureProfile::Simulation => "sim",
            FeatureProfile::HwFig6 => "fig6",
            FeatureProfile::HwDstBytes => "dst4",
        }
    }

    /// Inverse of [`FeatureProfile::name`].
    pub fn parse(s: &str) -> Option<FeatureProfile> {
        match s {
            "sim" => Some(FeatureProfile::Simulation),
            "fig6" => Some(FeatureProfile::HwFig6),
            "dst4" => Some(FeatureProfile::HwDstBytes),
            _ => None,
        }
    }
}

/// A declarative ACC-Turbo configuration: a base profile plus the §8.1
/// design-space knobs the ablation experiments sweep. `None` means "keep
/// the profile's value", so [`AccTurboSpec::config`] reproduces exactly
/// the configurations the figure modules used to assemble by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct AccTurboSpec {
    /// Base profile (hardware/simulation).
    pub profile: Profile,
    /// Feature set fed to the base profile.
    pub features: FeatureProfile,
    /// Override: cluster (and queue) count.
    pub clusters: Option<usize>,
    /// Override: distance function.
    pub distance: Option<DistanceKind>,
    /// Override: search strategy.
    pub search: Option<SearchKind>,
    /// Override: reset representative.
    pub rep: Option<RepMode>,
    /// Override: slot initialization.
    pub init: Option<InitMode>,
    /// Override: per-window cluster-update budget (`Some(None)` =
    /// explicitly unlimited).
    pub budget: Option<Option<u64>>,
    /// Override: Bloom-filter nominal sets with this many bits
    /// (3 hashes, the ablation's shape). `None` keeps exact sets.
    pub bloom_bits: Option<u64>,
    /// Override: ranking algorithm.
    pub ranking: Option<RankingAlgorithm>,
}

impl AccTurboSpec {
    /// The §8 simulation baseline: 10 clusters over the full feature set.
    pub fn simulation() -> Self {
        AccTurboSpec {
            profile: Profile::Simulation,
            features: FeatureProfile::Simulation,
            clusters: None,
            distance: None,
            search: None,
            rep: None,
            init: None,
            budget: None,
            bloom_bits: None,
            ranking: None,
        }
    }

    /// The Tofino-1 hardware baseline over `features` (≤ 4 features).
    pub fn hardware(features: FeatureProfile) -> Self {
        AccTurboSpec {
            profile: Profile::Hardware,
            features,
            ..AccTurboSpec::simulation()
        }
    }

    /// Overrides the ranking algorithm.
    pub fn with_ranking(mut self, ranking: RankingAlgorithm) -> Self {
        self.ranking = Some(ranking);
        self
    }

    /// Overrides the distance function.
    pub fn with_distance(mut self, distance: DistanceKind) -> Self {
        self.distance = Some(distance);
        self
    }

    /// Overrides the search strategy.
    pub fn with_search(mut self, search: SearchKind) -> Self {
        self.search = Some(search);
        self
    }

    /// Overrides the reset representative.
    pub fn with_rep(mut self, rep: RepMode) -> Self {
        self.rep = Some(rep);
        self
    }

    /// Overrides slot initialization.
    pub fn with_init(mut self, init: InitMode) -> Self {
        self.init = Some(init);
        self
    }

    /// Overrides the update budget (`None` = explicitly unlimited).
    pub fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Switches nominal sets to Bloom filters of `bits` bits (3 hashes).
    pub fn with_bloom(mut self, bits: u64) -> Self {
        self.bloom_bits = Some(bits);
        self
    }

    /// Overrides the cluster count.
    pub fn with_clusters(mut self, n: usize) -> Self {
        self.clusters = Some(n);
        self
    }

    /// Materializes the [`AccTurboConfig`], applying overrides on top of
    /// the base profile.
    pub fn config(&self) -> AccTurboConfig {
        let mut cfg = match self.profile {
            Profile::Hardware => AccTurboConfig::hardware(self.features.feature_set()),
            Profile::Simulation => AccTurboConfig::simulation(self.features.feature_set()),
        };
        if let Some(n) = self.clusters {
            cfg = cfg.with_clusters(n);
        }
        if let Some(d) = self.distance {
            cfg.clustering.distance = d;
        }
        if let Some(s) = self.search {
            cfg.clustering.search = s;
        }
        if let Some(rep) = self.rep {
            cfg.clustering = cfg.clustering.clone().with_rep(rep);
        }
        if let Some(init) = self.init {
            cfg.clustering = cfg.clustering.clone().with_init(init);
        }
        if let Some(budget) = self.budget {
            cfg.clustering = cfg.clustering.clone().with_update_budget(budget);
        }
        if let Some(bits) = self.bloom_bits {
            cfg.clustering.nominal = NominalMode::Bloom { bits, hashes: 3 };
        }
        if let Some(rank) = self.ranking {
            cfg = cfg.with_ranking(rank);
        }
        cfg
    }

    /// Builds a fresh (untapped) switch from this spec.
    pub fn build<'a>(&self) -> AccTurboSwitch<'a> {
        AccTurboSwitch::new(self.config())
    }

    /// The profile's natural control-plane period: the prototype polls
    /// hardware at 50 ms; the §8 simulations poll at 250 ms.
    pub fn control_period(&self) -> SimDuration {
        match self.profile {
            Profile::Hardware => SimDuration::from_millis(50),
            Profile::Simulation => SimDuration::from_millis(250),
        }
    }

    fn fmt_knobs(&self, out: &mut String) {
        use std::fmt::Write as _;
        let default_features = match self.profile {
            Profile::Simulation => FeatureProfile::Simulation,
            Profile::Hardware => FeatureProfile::HwFig6,
        };
        if self.profile == Profile::Hardware {
            let _ = write!(out, ":profile=hw");
        }
        if self.features != default_features {
            let _ = write!(out, ":features={}", self.features.name());
        }
        if let Some(n) = self.clusters {
            let _ = write!(out, ":clusters={n}");
        }
        if let Some(d) = self.distance {
            let name = match d {
                DistanceKind::Manhattan => "manhattan",
                DistanceKind::Anime => "anime",
                DistanceKind::Euclidean => "euclidean",
            };
            let _ = write!(out, ":distance={name}");
        }
        if let Some(s) = self.search {
            let name = match s {
                SearchKind::Fast => "fast",
                SearchKind::Exhaustive => "exhaustive",
            };
            let _ = write!(out, ":search={name}");
        }
        if let Some(rep) = self.rep {
            let name = match rep {
                RepMode::LastPacket => "last",
                RepMode::RangeMidpoint => "midpoint",
            };
            let _ = write!(out, ":rep={name}");
        }
        if let Some(init) = self.init {
            let name = match init {
                InitMode::Anchors => "anchors",
                InitMode::FromTraffic => "traffic",
            };
            let _ = write!(out, ":init={name}");
        }
        if let Some(budget) = self.budget {
            match budget {
                Some(n) => {
                    let _ = write!(out, ":budget={n}");
                }
                None => {
                    let _ = write!(out, ":budget=unlimited");
                }
            }
        }
        if let Some(bits) = self.bloom_bits {
            let _ = write!(out, ":nominal=bloom{bits}");
        }
        if let Some(rank) = self.ranking {
            let name = match rank {
                RankingAlgorithm::Throughput => "th",
                RankingAlgorithm::NumPackets => "np",
                RankingAlgorithm::ThroughputOverSize => "thsize",
                RankingAlgorithm::NumPacketsOverSize => "npsize",
            };
            let _ = write!(out, ":ranking={name}");
        }
    }

    fn parse_opts(opts: &[(&str, &str)]) -> Result<AccTurboSpec, String> {
        let mut profile: Option<Profile> = None;
        let mut features: Option<FeatureProfile> = None;
        let mut spec = AccTurboSpec::simulation();
        for &(key, val) in opts {
            match key {
                "profile" => {
                    profile = Some(match val {
                        "sim" => Profile::Simulation,
                        "hw" => Profile::Hardware,
                        _ => return Err(format!("unknown profile `{val}` (sim|hw)")),
                    });
                }
                "features" => {
                    features = Some(
                        FeatureProfile::parse(val)
                            .ok_or_else(|| format!("unknown features `{val}` (sim|fig6|dst4)"))?,
                    );
                }
                "clusters" => {
                    let n: usize = val
                        .parse()
                        .map_err(|_| format!("bad cluster count `{val}`"))?;
                    if n == 0 {
                        return Err("cluster count must be positive".into());
                    }
                    spec.clusters = Some(n);
                }
                "distance" => {
                    spec.distance = Some(match val {
                        "manhattan" => DistanceKind::Manhattan,
                        "anime" => DistanceKind::Anime,
                        "euclidean" => DistanceKind::Euclidean,
                        _ => {
                            return Err(format!(
                                "unknown distance `{val}` (manhattan|anime|euclidean)"
                            ))
                        }
                    });
                }
                "search" => {
                    spec.search = Some(match val {
                        "fast" => SearchKind::Fast,
                        "exhaustive" => SearchKind::Exhaustive,
                        _ => return Err(format!("unknown search `{val}` (fast|exhaustive)")),
                    });
                }
                "rep" => {
                    spec.rep = Some(match val {
                        "last" => RepMode::LastPacket,
                        "midpoint" => RepMode::RangeMidpoint,
                        _ => return Err(format!("unknown rep `{val}` (last|midpoint)")),
                    });
                }
                "init" => {
                    spec.init = Some(match val {
                        "anchors" => InitMode::Anchors,
                        "traffic" => InitMode::FromTraffic,
                        _ => return Err(format!("unknown init `{val}` (anchors|traffic)")),
                    });
                }
                "budget" => {
                    spec.budget = Some(if val == "unlimited" {
                        None
                    } else {
                        Some(
                            val.parse()
                                .map_err(|_| format!("bad update budget `{val}`"))?,
                        )
                    });
                }
                "nominal" => {
                    if val == "exact" {
                        spec.bloom_bits = None;
                    } else if let Some(bits) = val.strip_prefix("bloom") {
                        spec.bloom_bits = Some(
                            bits.parse()
                                .map_err(|_| format!("bad bloom size `{val}`"))?,
                        );
                    } else {
                        return Err(format!("unknown nominal mode `{val}` (exact|bloomN)"));
                    }
                }
                "ranking" => {
                    spec.ranking = Some(match val {
                        "th" => RankingAlgorithm::Throughput,
                        "np" => RankingAlgorithm::NumPackets,
                        "thsize" => RankingAlgorithm::ThroughputOverSize,
                        "npsize" => RankingAlgorithm::NumPacketsOverSize,
                        _ => return Err(format!("unknown ranking `{val}` (th|np|thsize|npsize)")),
                    });
                }
                other => return Err(format!("unknown accturbo option `{other}`")),
            }
        }
        spec.profile = profile.unwrap_or(Profile::Simulation);
        spec.features = features.unwrap_or(match spec.profile {
            Profile::Simulation => FeatureProfile::Simulation,
            Profile::Hardware => FeatureProfile::HwFig6,
        });
        if spec.profile == Profile::Hardware && spec.features == FeatureProfile::Simulation {
            return Err(
                "profile=hw supports at most 4 features; pick features=fig6 or features=dst4"
                    .into(),
            );
        }
        Ok(spec)
    }
}

/// A declarative Jaqen configuration: signature and threshold plus the
/// optional knobs Fig. 7/8 sweep. `None` keeps
/// [`JaqenConfig::best_case`]'s value.
#[derive(Debug, Clone, PartialEq)]
pub struct JaqenSpec {
    /// Sketch signature.
    pub signature: Signature,
    /// Per-window packet-count threshold.
    pub threshold: u64,
    /// Override: detection window.
    pub window: Option<SimDuration>,
    /// Override: detection-to-mitigation deploy delay.
    pub deploy_delay: Option<SimDuration>,
}

/// Table 3's Jaqen threshold — the grammar's default.
pub const JAQEN_DEFAULT_THRESHOLD: u64 = 1_500;

impl JaqenSpec {
    /// Best-case Jaqen over `signature` at `threshold`.
    pub fn new(signature: Signature, threshold: u64) -> Self {
        JaqenSpec {
            signature,
            threshold,
            window: None,
            deploy_delay: None,
        }
    }

    /// Overrides the detection window.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = Some(window);
        self
    }

    /// Overrides the deploy delay.
    pub fn with_deploy_delay(mut self, delay: SimDuration) -> Self {
        self.deploy_delay = Some(delay);
        self
    }

    /// Materializes the [`JaqenConfig`].
    pub fn config(&self) -> JaqenConfig {
        let mut cfg = JaqenConfig::best_case(self.signature, self.threshold);
        if let Some(w) = self.window {
            cfg = cfg.with_window(w);
        }
        if let Some(d) = self.deploy_delay {
            cfg = cfg.with_deploy_delay(d);
        }
        cfg
    }
}

/// A defense under test: everything a scenario needs to know to put a
/// switch in front of the bottleneck link.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseSpec {
    /// Undefended drop-tail FIFO ([`crate::common::baseline_fifo`]).
    Fifo,
    /// A single RED queue (default parameters).
    Red,
    /// Classic ACC with monitoring window `k` (Table 4 defaults
    /// otherwise).
    Acc {
        /// The `K` monitoring window.
        k: SimDuration,
    },
    /// ACC-Turbo (the paper's system).
    AccTurbo(AccTurboSpec),
    /// ACC-Turbo with the SP-PIFO ranked scheduler ablation.
    RankedAccTurbo(AccTurboSpec),
    /// Jaqen (sketch-based detect-and-block baseline).
    Jaqen(JaqenSpec),
    /// The ground-truth PIFO-ideal upper bound.
    IdealPifo,
    /// Fig. 7c's reprogramming outage: a FIFO that blackholes during
    /// `[start, start + downtime)`.
    ProgramSwap {
        /// When the switch goes down.
        start: SimTime,
        /// How long reprogramming takes.
        downtime: SimDuration,
    },
}

impl DefenseSpec {
    /// The default ACC-Turbo defense (simulation profile).
    pub fn accturbo() -> Self {
        DefenseSpec::AccTurbo(AccTurboSpec::simulation())
    }

    /// The control-plane polling period this defense naturally wants —
    /// `None` for pure data-plane defenses.
    pub fn control_period(&self) -> Option<SimDuration> {
        match self {
            DefenseSpec::Fifo
            | DefenseSpec::Red
            | DefenseSpec::IdealPifo
            | DefenseSpec::ProgramSwap { .. } => None,
            DefenseSpec::Acc { k } => Some(AccConfig::default().with_k(*k).control_tick()),
            DefenseSpec::Jaqen(_) => Some(SimDuration::from_millis(100)),
            DefenseSpec::AccTurbo(s) | DefenseSpec::RankedAccTurbo(s) => Some(s.control_period()),
        }
    }

    /// Builds the switch for a bottleneck of `link_bps`.
    pub fn build(&self, link_bps: u64) -> Box<dyn Switch> {
        match self {
            DefenseSpec::Fifo => Box::new(SingleQueueSwitch::new(crate::common::baseline_fifo())),
            DefenseSpec::Red => {
                Box::new(SingleQueueSwitch::new(RedQueue::new(RedConfig::default())))
            }
            DefenseSpec::Acc { k } => Box::new(AccSwitch::new(
                AccConfig::default().with_k(*k),
                Bandwidth::from_bps(link_bps),
            )),
            DefenseSpec::AccTurbo(s) => Box::new(s.build()),
            DefenseSpec::RankedAccTurbo(s) => Box::new(RankedAccTurboSwitch::new(s.config())),
            DefenseSpec::Jaqen(j) => Box::new(JaqenSwitch::new(j.config())),
            DefenseSpec::IdealPifo => Box::new(IdealPifoSwitch::new(512 * 1024)),
            DefenseSpec::ProgramSwap { start, downtime } => {
                Box::new(ProgramSwapSwitch::new(*start, *downtime))
            }
        }
    }
}

impl fmt::Display for DefenseSpec {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseSpec::Fifo => write!(out, "fifo"),
            DefenseSpec::Red => write!(out, "red"),
            DefenseSpec::IdealPifo => write!(out, "ideal-pifo"),
            DefenseSpec::Acc { k } => {
                if *k == SimDuration::from_secs(2) {
                    write!(out, "acc")
                } else {
                    write!(out, "acc:k={}", fmt_secs(*k))
                }
            }
            DefenseSpec::AccTurbo(s) | DefenseSpec::RankedAccTurbo(s) => {
                let head = if matches!(self, DefenseSpec::AccTurbo(_)) {
                    "accturbo"
                } else {
                    "ranked-accturbo"
                };
                let mut knobs = String::new();
                s.fmt_knobs(&mut knobs);
                write!(out, "{head}{knobs}")
            }
            DefenseSpec::Jaqen(j) => {
                write!(out, "jaqen")?;
                if j.signature != Signature::FiveTuple {
                    write!(out, ":sig={}", j.signature.name())?;
                }
                if j.threshold != JAQEN_DEFAULT_THRESHOLD {
                    write!(out, ":th={}", j.threshold)?;
                }
                if let Some(w) = j.window {
                    write!(out, ":window={}", fmt_secs(w))?;
                }
                if let Some(d) = j.deploy_delay {
                    write!(out, ":deploy={}", fmt_secs(d))?;
                }
                Ok(())
            }
            DefenseSpec::ProgramSwap { start, downtime } => {
                write!(out, "swap")?;
                if *start != SimTime::from_secs(60) {
                    write!(
                        out,
                        ":at={}",
                        fmt_secs(start.saturating_since(SimTime::ZERO))
                    )?;
                }
                if *downtime != SimDuration::from_millis(11_500) {
                    write!(out, ":down={}", fmt_secs(*downtime))?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for DefenseSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (head, opts) = split_spec(s)?;
        let no_opts = |opts: &[(&str, &str)], name: &str| -> Result<(), String> {
            if opts.is_empty() {
                Ok(())
            } else {
                Err(format!("`{name}` takes no options"))
            }
        };
        match head {
            "fifo" => {
                no_opts(&opts, "fifo")?;
                Ok(DefenseSpec::Fifo)
            }
            "red" => {
                no_opts(&opts, "red")?;
                Ok(DefenseSpec::Red)
            }
            "ideal-pifo" => {
                no_opts(&opts, "ideal-pifo")?;
                Ok(DefenseSpec::IdealPifo)
            }
            "acc" => {
                let mut k = SimDuration::from_secs(2);
                for (key, val) in opts {
                    match key {
                        "k" => k = parse_secs(val)?,
                        other => return Err(format!("unknown acc option `{other}`")),
                    }
                }
                Ok(DefenseSpec::Acc { k })
            }
            "accturbo" => Ok(DefenseSpec::AccTurbo(AccTurboSpec::parse_opts(&opts)?)),
            "ranked-accturbo" => Ok(DefenseSpec::RankedAccTurbo(AccTurboSpec::parse_opts(
                &opts,
            )?)),
            "jaqen" => {
                let mut spec = JaqenSpec::new(Signature::FiveTuple, JAQEN_DEFAULT_THRESHOLD);
                for (key, val) in opts {
                    match key {
                        "sig" => {
                            spec.signature = Signature::parse(val).ok_or_else(|| {
                                format!("unknown signature `{val}` (5tuple|srcip)")
                            })?;
                        }
                        "th" => {
                            spec.threshold =
                                val.parse().map_err(|_| format!("bad threshold `{val}`"))?;
                        }
                        "window" => spec.window = Some(parse_secs(val)?),
                        "deploy" => spec.deploy_delay = Some(parse_secs(val)?),
                        other => return Err(format!("unknown jaqen option `{other}`")),
                    }
                }
                Ok(DefenseSpec::Jaqen(spec))
            }
            "swap" => {
                let mut start = SimTime::from_secs(60);
                let mut downtime = SimDuration::from_millis(11_500);
                for (key, val) in opts {
                    match key {
                        "at" => {
                            start = SimTime::from_secs_f64(
                                val.parse::<f64>()
                                    .map_err(|_| format!("bad start time `{val}`"))?,
                            );
                        }
                        "down" => downtime = parse_secs(val)?,
                        other => return Err(format!("unknown swap option `{other}`")),
                    }
                }
                Ok(DefenseSpec::ProgramSwap { start, downtime })
            }
            other => Err(format!(
                "unknown defense `{other}` \
                 (fifo|red|acc|accturbo|ranked-accturbo|jaqen|ideal-pifo|swap)"
            )),
        }
    }
}

/// Every defense head the grammar accepts, with its canonical default
/// spec — the CI matrix's row set.
pub fn all_defenses() -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::Fifo,
        DefenseSpec::Red,
        DefenseSpec::Acc {
            k: SimDuration::from_secs(2),
        },
        DefenseSpec::accturbo(),
        DefenseSpec::AccTurbo(AccTurboSpec::hardware(FeatureProfile::HwFig6)),
        DefenseSpec::RankedAccTurbo(AccTurboSpec::simulation()),
        DefenseSpec::Jaqen(JaqenSpec::new(
            Signature::FiveTuple,
            JAQEN_DEFAULT_THRESHOLD,
        )),
        DefenseSpec::IdealPifo,
        DefenseSpec::ProgramSwap {
            start: SimTime::from_secs(60),
            downtime: SimDuration::from_millis(11_500),
        },
    ]
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A named traffic generator plus its parameters. Each variant maps to
/// one `accturbo-traffic` builder and carries the scenario defaults
/// (link, duration, seed) the corresponding figure uses.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The Fig. 2 ramping-attack scenario (4 CBR aggregates + ramp).
    Fig2,
    /// The Fig. 3 distributed-aggregate variant.
    Fig3,
    /// Fig. 6's pulse-wave attack over background traffic.
    Fig6,
    /// Fig. 7's reaction-time flood (attack from t = 20 s).
    Fig7,
    /// Background traffic only (the program-swap control).
    Background,
    /// Table 3's flood variations.
    Flood(FloodVariation),
    /// The §9 adversarial scenarios.
    Adversarial(AdversarialScenario),
    /// Fig. 11c's elephant-flow workload.
    Elephant,
    /// The parameterized pulse-wave attack the adversarial search
    /// explores: every knob (`period`, `duty`, `amp`, `vectors`,
    /// `spread`, `ramp`) is a grammar option, so any point of the
    /// search space is a one-line replayable spec.
    Pulse(PulseAttackConfig),
    /// A CICDDoS2019-style day of pulsed episodes (Figs. 9–11).
    CicDay {
        /// Vectors in episode order (`None` = the default 10).
        vectors: Option<Vec<AttackVector>>,
        /// Override: episode length.
        episode: Option<SimDuration>,
        /// Override: inter-episode gap.
        gap: Option<SimDuration>,
    },
}

impl WorkloadSpec {
    /// The CICDDoS config this spec describes (panics unless
    /// [`WorkloadSpec::CicDay`] — callers that need episode timing, like
    /// Fig. 11, use this).
    pub fn cic_config(&self, seed: u64) -> CicDdosConfig {
        let WorkloadSpec::CicDay {
            vectors,
            episode,
            gap,
        } = self
        else {
            panic!("cic_config is only defined for cicday workloads");
        };
        let mut cfg = CicDdosConfig {
            seed,
            ..CicDdosConfig::default()
        };
        if let Some(v) = vectors {
            cfg.vectors = v.clone();
        }
        if let Some(e) = episode {
            cfg.episode = *e;
        }
        if let Some(g) = gap {
            cfg.gap = *g;
        }
        cfg
    }

    /// Builds the packet source. `link_bps` parameterizes the Fig. 2/3
    /// demand matrix; `secs` bounds generators that take an end time
    /// (Fig. 2/3 run to their scripted [`scenarios::RUN_SECS`] and rely
    /// on the engine's end-time cutoff, exactly as the figures do).
    /// The box is `Send` so a [`ThreadedSource`] can pull it on its
    /// producer thread.
    pub fn build(&self, link_bps: u64, secs: u64, seed: u64) -> Box<dyn PacketSource + Send> {
        match self {
            WorkloadSpec::Fig2 => Box::new(scenarios::fig2_source(link_bps, seed)),
            WorkloadSpec::Fig3 => Box::new(scenarios::fig3_source(link_bps, seed)),
            WorkloadSpec::Fig6 => Box::new(workloads::fig6_pulses(secs, seed)),
            WorkloadSpec::Fig7 => Box::new(workloads::reaction_flood(secs, seed)),
            WorkloadSpec::Background => Box::new(workloads::background_only(secs, seed)),
            WorkloadSpec::Flood(v) => Box::new(workloads::flood(*v, secs, seed)),
            WorkloadSpec::Adversarial(s) => Box::new(workloads::adversarial(*s, secs, seed)),
            WorkloadSpec::Elephant => Box::new(workloads::elephant(secs)),
            WorkloadSpec::Pulse(cfg) => Box::new(workloads::pulse_attack(cfg, secs, seed)),
            WorkloadSpec::CicDay { .. } => Box::new(self.cic_config(seed).into_source()),
        }
    }

    /// The bottleneck bandwidth the workload's figure runs at.
    pub fn default_link_bps(&self) -> u64 {
        match self {
            WorkloadSpec::Elephant => 18_000_000,
            _ => LINK_10G_SCALED,
        }
    }

    /// The run length the workload's figure uses at `scale`.
    pub fn default_secs(&self, scale: Scale) -> u64 {
        match self {
            WorkloadSpec::Fig2 | WorkloadSpec::Fig3 => scale.secs(scenarios::RUN_SECS, 2),
            WorkloadSpec::Fig6 | WorkloadSpec::Fig7 | WorkloadSpec::Background => {
                scale.secs(100, 4)
            }
            WorkloadSpec::Flood(_) => scale.secs(100, 5),
            WorkloadSpec::Adversarial(_) => scale.secs(40, 4),
            WorkloadSpec::Pulse(_) => scale.secs(30, 10),
            WorkloadSpec::Elephant => 30,
            WorkloadSpec::CicDay { .. } => {
                self.cic_config(0).total_duration().as_secs_f64().ceil() as u64
            }
        }
    }

    /// The canonical seed of the workload's figure.
    pub fn default_seed(&self) -> u64 {
        match self {
            WorkloadSpec::Fig2 => 2022,
            WorkloadSpec::Fig3 => 33,
            WorkloadSpec::Fig6 => 0xF16,
            WorkloadSpec::Fig7 | WorkloadSpec::Background => 0x716,
            WorkloadSpec::Flood(_) => 0x7AB,
            WorkloadSpec::Adversarial(_) => 0xADE5,
            WorkloadSpec::Pulse(_) => 0xA77,
            WorkloadSpec::Elephant => 0,
            WorkloadSpec::CicDay { .. } => 0xC1C,
        }
    }

    /// The aggregate classes a per-second share panel should plot, when
    /// the workload has the Fig. 2/3 five-aggregate structure.
    pub fn share_classes(&self) -> Option<Vec<ClassId>> {
        match self {
            WorkloadSpec::Fig2 | WorkloadSpec::Fig3 => Some((1..=5).map(ClassId).collect()),
            _ => None,
        }
    }

    /// The classes that are attack traffic, when not every class but
    /// benign is: Fig. 2/3 number their benign aggregates 1–4 and the
    /// attack 5. `None` means every class other than 0.
    pub fn attack_classes(&self) -> Option<Vec<ClassId>> {
        match self {
            WorkloadSpec::Fig2 | WorkloadSpec::Fig3 => Some(vec![scenarios::ATTACK_CLASS]),
            _ => None,
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Fig2 => write!(out, "fig2"),
            WorkloadSpec::Fig3 => write!(out, "fig3"),
            WorkloadSpec::Fig6 => write!(out, "fig6"),
            WorkloadSpec::Fig7 => write!(out, "fig7"),
            WorkloadSpec::Background => write!(out, "background"),
            WorkloadSpec::Elephant => write!(out, "elephant"),
            WorkloadSpec::Flood(v) => match v {
                FloodVariation::SingleFlow => write!(out, "flood"),
                FloodVariation::NoAttack => write!(out, "flood:none"),
                FloodVariation::CarpetBombing => write!(out, "flood:carpet"),
                FloodVariation::SourceSpoofing => write!(out, "flood:spoof"),
            },
            WorkloadSpec::Adversarial(s) => {
                let name = match s {
                    AdversarialScenario::PlainFlood => "plain",
                    AdversarialScenario::PacketLevelEvasion => "evade-pkt",
                    AdversarialScenario::AggregateLevelEvasion => "evade-agg",
                    AdversarialScenario::Swapping => "swap",
                    AdversarialScenario::Imitation => "imitate",
                };
                write!(out, "adversarial:{name}")
            }
            WorkloadSpec::Pulse(cfg) => {
                let d = PulseAttackConfig::default();
                write!(out, "pulse")?;
                if cfg.period != d.period {
                    write!(out, ":period={}", fmt_secs(cfg.period))?;
                }
                if cfg.duty != d.duty {
                    write!(out, ":duty={}", cfg.duty)?;
                }
                if cfg.amp_bps != d.amp_bps {
                    write!(out, ":amp={}", fmt_bandwidth(cfg.amp_bps))?;
                }
                if cfg.vectors != d.vectors {
                    let names: Vec<&str> = cfg.vectors.iter().map(|x| x.name()).collect();
                    write!(out, ":vectors={}", names.join("+"))?;
                }
                if cfg.spread != d.spread {
                    write!(out, ":spread={}", cfg.spread)?;
                }
                if cfg.ramp != d.ramp {
                    write!(out, ":ramp={}", fmt_secs(cfg.ramp))?;
                }
                Ok(())
            }
            WorkloadSpec::CicDay {
                vectors,
                episode,
                gap,
            } => {
                write!(out, "cicday")?;
                if let Some(v) = vectors {
                    let names: Vec<&str> = v.iter().map(|x| x.name()).collect();
                    write!(out, ":vectors={}", names.join("+"))?;
                }
                if let Some(e) = episode {
                    write!(out, ":episode={}", fmt_secs(*e))?;
                }
                if let Some(g) = gap {
                    write!(out, ":gap={}", fmt_secs(*g))?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for WorkloadSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        // `flood:<variation>` and `adversarial:<scenario>` take a bare
        // token, not key=val — handle them before the generic split.
        if let Some(rest) = s.strip_prefix("flood") {
            let v = match rest {
                "" | ":single" => FloodVariation::SingleFlow,
                ":none" => FloodVariation::NoAttack,
                ":carpet" => FloodVariation::CarpetBombing,
                ":spoof" => FloodVariation::SourceSpoofing,
                _ => {
                    return Err(format!(
                        "unknown flood variation `{rest}` (none|single|carpet|spoof)"
                    ))
                }
            };
            return Ok(WorkloadSpec::Flood(v));
        }
        if let Some(rest) = s.strip_prefix("adversarial") {
            let sc = match rest {
                ":plain" => AdversarialScenario::PlainFlood,
                ":evade-pkt" => AdversarialScenario::PacketLevelEvasion,
                ":evade-agg" => AdversarialScenario::AggregateLevelEvasion,
                ":swap" => AdversarialScenario::Swapping,
                ":imitate" => AdversarialScenario::Imitation,
                _ => {
                    return Err(format!(
                        "unknown adversarial scenario `{rest}` \
                         (plain|evade-pkt|evade-agg|swap|imitate)"
                    ))
                }
            };
            return Ok(WorkloadSpec::Adversarial(sc));
        }
        let (head, opts) = split_spec(s)?;
        match head {
            "fig2" | "fig3" | "fig6" | "fig7" | "background" | "elephant" => {
                if !opts.is_empty() {
                    return Err(format!("`{head}` takes no options"));
                }
                Ok(match head {
                    "fig2" => WorkloadSpec::Fig2,
                    "fig3" => WorkloadSpec::Fig3,
                    "fig6" => WorkloadSpec::Fig6,
                    "fig7" => WorkloadSpec::Fig7,
                    "background" => WorkloadSpec::Background,
                    _ => WorkloadSpec::Elephant,
                })
            }
            "pulse" => {
                let mut cfg = PulseAttackConfig::default();
                for (key, val) in opts {
                    match key {
                        "period" => cfg.period = parse_secs(val)?,
                        "duty" => {
                            let d: f64 = val.parse().map_err(|_| format!("bad duty `{val}`"))?;
                            if !d.is_finite() || d <= 0.0 || d > 1.0 {
                                return Err(format!("duty `{val}` must be in (0, 1]"));
                            }
                            cfg.duty = d;
                        }
                        "amp" => cfg.amp_bps = parse_bandwidth(val)?,
                        "vectors" => {
                            let mix = parse_vector_mix(val)?;
                            if mix.len() > 8 {
                                return Err(format!(
                                    "vector mix of {} is too long (≤8)",
                                    mix.len()
                                ));
                            }
                            cfg.vectors = mix;
                        }
                        "spread" => {
                            let s: u8 = val.parse().map_err(|_| format!("bad spread `{val}`"))?;
                            if s > 3 {
                                return Err(format!("spread `{val}` must be 0..=3"));
                            }
                            cfg.spread = s;
                        }
                        "ramp" => cfg.ramp = parse_secs_or_zero(val)?,
                        other => return Err(format!("unknown pulse option `{other}`")),
                    }
                }
                Ok(WorkloadSpec::Pulse(cfg))
            }
            "cicday" => {
                let mut vectors = None;
                let mut episode = None;
                let mut gap = None;
                for (key, val) in opts {
                    match key {
                        "vectors" => vectors = Some(parse_vector_mix(val)?),
                        "episode" => episode = Some(parse_secs(val)?),
                        "gap" => gap = Some(parse_secs(val)?),
                        other => return Err(format!("unknown cicday option `{other}`")),
                    }
                }
                Ok(WorkloadSpec::CicDay {
                    vectors,
                    episode,
                    gap,
                })
            }
            other => Err(format!(
                "unknown workload `{other}` \
                 (fig2|fig3|fig6|fig7|background|flood|adversarial|pulse|elephant|cicday)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

/// The topology vocabulary: which tree of switches fronts the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyShape {
    /// `line:N` — a chain of `N` switches (1–32); `line:1` is the
    /// single-switch model.
    Line(u32),
    /// `star:N` — `N` edge switches (1–1024) feeding one core.
    Star(u32),
    /// `fattree:K` — `K²` edges, `K` aggregations (2–16), one core
    /// (`fattree:16` is 273 switches).
    FatTree(u32),
    /// `isp-edge` — the fixed asymmetric 4-edge / 2-regional / 1-core
    /// shape.
    IspEdge,
}

/// What defends the non-bottleneck switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeDefense {
    /// Plain tail-drop FIFOs upstream (the default): only the bottleneck
    /// runs the scenario's defense.
    #[default]
    Fifo,
    /// `edges=same` — every switch runs the scenario's defense.
    Same,
}

/// The `topology=` half of a scenario sentence: shape plus link and
/// pushback knobs. `Display` emits only non-default knobs and
/// `parse(display(x)) == x`, like every other spec grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// The tree shape.
    pub shape: TopologyShape,
    /// Per-link propagation delay; `None` = the 50 µs default.
    pub delay: Option<SimDuration>,
    /// Uplink (non-bottleneck link) bandwidth; `None` = 1.2× the
    /// scenario's bottleneck so the core, not the edges, congests.
    pub uplink_bps: Option<u64>,
    /// Leaf ordinals hosting the attack sources (strictly ascending);
    /// `None` = attackers spread over all leaves.
    pub attackers: Option<Vec<usize>>,
    /// What runs on the non-bottleneck switches.
    pub edges: EdgeDefense,
    /// Whether the bottleneck's aggregate limits propagate upstream
    /// hop by hop.
    pub pushback: bool,
    /// Pushback refresh period at the root; `None` = the 500 ms default.
    pub refresh: Option<SimDuration>,
}

impl TopologySpec {
    /// A topology at the shape's defaults.
    pub fn new(shape: TopologyShape) -> Self {
        TopologySpec {
            shape,
            delay: None,
            uplink_bps: None,
            attackers: None,
            edges: EdgeDefense::Fifo,
            pushback: false,
            refresh: None,
        }
    }

    /// The placement of `workload`'s packets on this tree's leaves: the
    /// workload's attack classes confined to the `attackers` leaves,
    /// every other class hashed over all of them.
    pub fn placement(&self, workload: &WorkloadSpec) -> LeafPlacement {
        let placement = LeafPlacement::new(self.leaf_count(), self.attackers.as_deref());
        match workload.attack_classes() {
            Some(classes) => placement.with_attack_classes(classes),
            None => placement,
        }
    }

    /// Number of ingress leaves.
    pub fn leaf_count(&self) -> usize {
        match self.shape {
            TopologyShape::Line(_) => 1,
            TopologyShape::Star(n) => n as usize,
            TopologyShape::FatTree(k) => (k * k) as usize,
            TopologyShape::IspEdge => 4,
        }
    }

    /// Switch count on the longest leaf → root path.
    pub fn depth(&self) -> usize {
        match self.shape {
            TopologyShape::Line(n) => n as usize,
            TopologyShape::Star(_) => 2,
            TopologyShape::FatTree(_) | TopologyShape::IspEdge => 3,
        }
    }

    /// The effective per-link propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay.unwrap_or(SimDuration::from_micros(50))
    }

    /// The effective uplink bandwidth for a scenario at `link_bps`.
    pub fn uplink(&self, link_bps: u64) -> u64 {
        self.uplink_bps.unwrap_or(link_bps * 12 / 10)
    }

    /// The effective pushback refresh period.
    pub fn refresh(&self) -> SimDuration {
        self.refresh.unwrap_or(SimDuration::from_millis(500))
    }

    /// Extra run-length the topology wants on top of a single-switch
    /// default: the added path RTT (propagation both ways across the
    /// extra hops) plus, with pushback on, one refresh per level for
    /// limits to reach the leaves. Whole seconds, rounded up; zero for
    /// `line:1`.
    pub fn extra_secs(&self) -> u64 {
        let depth = self.depth() as f64;
        let mut extra = 2.0 * (depth - 1.0) * self.delay().as_secs_f64();
        if self.pushback {
            extra += depth * self.refresh().as_secs_f64();
        }
        extra.ceil() as u64
    }

    /// Materializes the [`Topology`] for a scenario at `link_bps`.
    pub fn build(&self, link_bps: u64) -> Topology {
        let uplink = LinkSpec::new(Bandwidth::from_bps(self.uplink(link_bps)), self.delay());
        let bottleneck = LinkSpec::new(Bandwidth::from_bps(link_bps), SimDuration::ZERO);
        match self.shape {
            TopologyShape::Line(n) => Topology::line(n as usize, uplink, bottleneck),
            TopologyShape::Star(n) => Topology::star(n as usize, uplink, bottleneck),
            TopologyShape::FatTree(k) => Topology::fattree(k as usize, uplink, bottleneck),
            TopologyShape::IspEdge => Topology::isp_edge(uplink, bottleneck),
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self.shape {
            TopologyShape::Line(n) if !(1..=32).contains(&n) => {
                return Err(format!("line arity must be 1..=32, got {n}"));
            }
            TopologyShape::Star(n) if !(1..=1024).contains(&n) => {
                return Err(format!("star arity must be 1..=1024, got {n}"));
            }
            TopologyShape::FatTree(k) if !(2..=16).contains(&k) => {
                return Err(format!("fattree arity must be 2..=16, got {k}"));
            }
            _ => {}
        }
        if let Some(att) = &self.attackers {
            if att.is_empty() {
                return Err("attackers list must be non-empty".into());
            }
            let leaves = self.leaf_count();
            if !att.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("attackers must be strictly ascending: {att:?}"));
            }
            if let Some(&worst) = att.last() {
                if worst >= leaves {
                    return Err(format!(
                        "attacker leaf {worst} out of range (the shape has {leaves} leaves)"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            TopologyShape::Line(n) => write!(out, "line:{n}")?,
            TopologyShape::Star(n) => write!(out, "star:{n}")?,
            TopologyShape::FatTree(k) => write!(out, "fattree:{k}")?,
            TopologyShape::IspEdge => write!(out, "isp-edge")?,
        }
        if let Some(d) = self.delay {
            write!(out, ":delay={}", fmt_secs(d))?;
        }
        if let Some(b) = self.uplink_bps {
            write!(out, ":uplink={}", fmt_bandwidth(b))?;
        }
        if let Some(att) = &self.attackers {
            let list: Vec<String> = att.iter().map(|a| a.to_string()).collect();
            write!(out, ":attackers={}", list.join("+"))?;
        }
        if self.edges == EdgeDefense::Same {
            write!(out, ":edges=same")?;
        }
        if self.pushback {
            write!(out, ":pushback=on")?;
        }
        if let Some(r) = self.refresh {
            write!(out, ":refresh={}", fmt_secs(r))?;
        }
        Ok(())
    }
}

impl FromStr for TopologySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Hand-rolled: the arity segment (`line:4`) is a bare token, so
        // this grammar cannot go through `split_spec`.
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        let mut spec = match head {
            "isp-edge" => TopologySpec::new(TopologyShape::IspEdge),
            "line" | "star" | "fattree" => {
                let arity = parts
                    .next()
                    .ok_or_else(|| format!("`{head}` needs an arity, e.g. `{head}:4`"))?;
                let n: u32 = arity
                    .parse()
                    .map_err(|_| format!("`{arity}` is not a {head} arity"))?;
                TopologySpec::new(match head {
                    "line" => TopologyShape::Line(n),
                    "star" => TopologyShape::Star(n),
                    _ => TopologyShape::FatTree(n),
                })
            }
            other => {
                return Err(format!(
                    "unknown topology `{other}` (expected line:N, star:N, fattree:K or isp-edge)"
                ));
            }
        };
        for part in parts {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("expected `key=value`, got `{part}`"))?;
            match key {
                "delay" => spec.delay = Some(parse_secs(val)?),
                "uplink" => spec.uplink_bps = Some(parse_bandwidth(val)?),
                "attackers" => {
                    let att = val
                        .split('+')
                        .map(|a| {
                            a.parse::<usize>()
                                .map_err(|_| format!("`{a}` is not a leaf ordinal"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    spec.attackers = Some(att);
                }
                "edges" => {
                    spec.edges = match val {
                        "same" => EdgeDefense::Same,
                        "fifo" => EdgeDefense::Fifo,
                        other => return Err(format!("unknown edges mode `{other}`")),
                    }
                }
                "pushback" => {
                    spec.pushback = match val {
                        "on" => true,
                        "off" => false,
                        other => return Err(format!("pushback must be on/off, got `{other}`")),
                    }
                }
                "refresh" => spec.refresh = Some(parse_secs(val)?),
                other => return Err(format!("unknown topology option `{other}`")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// The full experiment sentence: workload × defense × engine parameters,
/// with one [`execute`](ScenarioSpec::execute) entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// What traffic hits the switch.
    pub workload: WorkloadSpec,
    /// What defends the link.
    pub defense: DefenseSpec,
    /// Bottleneck bandwidth, bits per second.
    pub link_bps: u64,
    /// Run length, seconds (1-second stats buckets).
    pub secs: u64,
    /// Control-plane period override; `None` uses the defense's natural
    /// period ([`DefenseSpec::control_period`]).
    pub control_period: Option<SimDuration>,
    /// Workload (and fault) seed.
    pub seed: u64,
    /// Substrate fault plane (`None` = fault-free).
    pub faults: Option<FaultConfig>,
    /// Multi-switch topology (`None` = the classic single switch).
    pub topology: Option<TopologySpec>,
    /// `shards=` of the grammar: `1` generates the workload on the
    /// event loop's thread; any higher count generates it on a producer
    /// thread ([`ThreadedSource`]), with byte-identical output. The
    /// count itself changes nothing else.
    pub shards: usize,
}

/// What [`ScenarioSpec::execute`] returns: the engine's result plus the
/// end-of-run switch backlog (for conservation checks), on faulted runs
/// the injection and degradation counters, and on topology runs the hop
/// and pushback record.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The engine's run result.
    pub result: RunResult,
    /// Packets still queued in the switch at end-of-run.
    pub backlog_pkts: usize,
    /// Injection counters (faulted runs only).
    pub fault_stats: Option<FaultStats>,
    /// Control ticks suppressed by the fault plane (ACC-Turbo only).
    pub missed_ticks: u64,
    /// Control ticks served stale statistics (ACC-Turbo only).
    pub stale_ticks: u64,
    /// Bounded-staleness fallback decisions (ACC-Turbo only).
    pub fallbacks: u64,
    /// Inter-switch link crossings (topology runs only).
    pub hops: u64,
    /// Pushback limit messages delivered (topology runs only).
    pub pushback_installs: u64,
    /// Per node: when the first pushback limit arrived, if ever (a
    /// single switch is one node).
    pub node_first_limit: Vec<Option<SimTime>>,
}

impl ScenarioSpec {
    /// A scenario at the workload's full-scale defaults.
    pub fn new(workload: WorkloadSpec, defense: DefenseSpec) -> Self {
        let link_bps = workload.default_link_bps();
        let secs = workload.default_secs(Scale::Full);
        let seed = workload.default_seed();
        ScenarioSpec {
            workload,
            defense,
            link_bps,
            secs,
            control_period: None,
            seed,
            faults: None,
            topology: None,
            shards: 1,
        }
    }

    /// Overrides the run length.
    pub fn with_secs(mut self, secs: u64) -> Self {
        self.secs = secs;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the bottleneck bandwidth.
    pub fn with_link(mut self, link_bps: u64) -> Self {
        self.link_bps = link_bps;
        self
    }

    /// Overrides the control-plane period.
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.control_period = Some(period);
        self
    }

    /// Attaches a fault plane.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Runs the scenario on a multi-switch topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Generates the workload on a producer thread when `shards > 1`
    /// (`1` = on the event loop's thread).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The control period this scenario will run with.
    pub fn effective_period(&self) -> Option<SimDuration> {
        self.control_period
            .or_else(|| self.defense.control_period())
    }

    /// Runs the scenario on its topology and returns the full per-node
    /// picture. Panics without a topology.
    pub fn execute_topology(&self) -> TopologyRunResult {
        assert!(self.topology.is_some(), "execute_topology needs a topology");
        self.run(None).0
    }

    /// Runs the scenario: [`ScenarioSpec::execute_streamed`] without
    /// telemetry.
    pub fn execute(&self) -> ScenarioOutcome {
        self.execute_streamed(None)
    }

    /// The scenario executor.
    ///
    /// Every run goes through the engine's one loop on a tree of
    /// switches: the scenario's topology, or the one-node `line:1` when
    /// it has none. With `shards > 1` the workload is generated on a
    /// producer thread underneath everything else. The fault plane
    /// reaches the engine, the source (`FaultedSource`, ahead of leaf
    /// placement) and an ACC-Turbo bottleneck; ACC-Turbo also reports
    /// its degradation counters.
    ///
    /// With `telemetry`, the engine and an ACC-Turbo bottleneck share the
    /// bundle's registry (engine counters, queue depths, degradation
    /// gauges), so the aggregation stage has per-period values to delta,
    /// and the bundle's one tracer (with a trace or a flight recorder)
    /// goes to the engine and an ACC-Turbo bottleneck, so their events
    /// and the fault plane's land in one timeline. Without it the run is
    /// byte-identical to the plain engine paths the figures use.
    pub fn execute_streamed(&self, telemetry: Option<&mut Telemetry>) -> ScenarioOutcome {
        let (t, fault_stats, degradation) = self.run(telemetry);
        ScenarioOutcome {
            result: t.result,
            backlog_pkts: t.backlog_pkts,
            fault_stats,
            missed_ticks: degradation.total_missed,
            stale_ticks: degradation.total_stale,
            fallbacks: degradation.fallbacks,
            hops: t.hops,
            pushback_installs: t.pushback_installs,
            node_first_limit: t.node_first_limit,
        }
    }

    /// The body of both executors.
    fn run(
        &self,
        telemetry: Option<&mut Telemetry>,
    ) -> (TopologyRunResult, Option<FaultStats>, DegradationCounters) {
        let line1 = || TopologySpec::new(TopologyShape::Line(1));
        let tspec = self.topology.clone().unwrap_or_else(line1);
        let topo = tspec.build(self.link_bps);
        let tracer = telemetry.as_ref().and_then(|t| t.tracer());
        let faults = self
            .faults
            .clone()
            .map(|fc| FaultInjector::new(FaultSchedule::new(fc)));
        let engine_faults = faults.clone().or_else(forced_noop_faults);
        // ACC-Turbo stays concrete: its metrics/tracer/fault setters and
        // degradation counters are not on the `Switch` trait.
        let mut turbo = match &self.defense {
            DefenseSpec::AccTurbo(spec) => Some(Box::new(spec.build())),
            _ => None,
        };
        if let Some(sw) = &mut turbo {
            if let Some(t) = &telemetry {
                sw.set_metrics(t.metrics());
            }
            if let Some(t) = &tracer {
                sw.set_tracer(Box::new(t.clone()));
            }
            if let Some(inj) = &faults {
                sw.set_faults(inj.clone());
            }
        }
        let mut other: Box<dyn Switch>;
        let root: &mut dyn Switch = match &mut turbo {
            Some(sw) => &mut **sw,
            None => {
                other = self.defense.build(self.link_bps);
                &mut *other
            }
        };
        // The source is built before the edge switches: the reverse order
        // raised the fat-tree benchmark's peak RSS by about 5% through
        // heap allocation order alone.
        let mut src = self.workload.build(self.link_bps, self.secs, self.seed);
        if self.shards > 1 {
            src = Box::new(ThreadedSource::new(src));
        }
        let edge = match tspec.edges {
            EdgeDefense::Fifo => DefenseSpec::Fifo,
            EdgeDefense::Same => self.defense.clone(),
        };
        let uplink = tspec.uplink(self.link_bps);
        let mut edges: Vec<Box<dyn Switch>> =
            (1..topo.num_nodes()).map(|_| edge.build(uplink)).collect();
        let mut nodes: Vec<&mut dyn Switch> = edges.iter_mut().map(|s| s.as_mut() as _).collect();
        nodes.insert(topo.root(), root);
        let mut src: Box<dyn PacketSource> = match &faults {
            Some(inj) => Box::new(FaultedSource::new(src, inj.clone())),
            None => src,
        };
        let placement = tspec.placement(&self.workload);
        let place = &mut |p: &Packet| placement.place(p);
        let mut cfg = TopologyConfig::experiment(self.secs, self.effective_period());
        if tspec.pushback {
            cfg = cfg.with_pushback(PushbackPlan::new(tspec.refresh()));
        }
        let f = engine_faults.as_ref();
        let (topo, nodes, src) = (&topo, &mut nodes[..], &mut *src);
        let t = match tracer {
            Some(mut t) => {
                run_topology_streamed(topo, nodes, src, place, &cfg, &mut t, f, telemetry)
            }
            None => {
                let noop = &mut NoopTracer;
                run_topology_streamed(topo, nodes, src, place, &cfg, noop, f, telemetry)
            }
        };
        let degradation = turbo.map_or_else(Default::default, |sw| sw.degradation().counters());
        (t, faults.map(|inj| inj.stats()), degradation)
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "workload={} defense={} link={} secs={} seed={}",
            self.workload, self.defense, self.link_bps, self.secs, self.seed
        )?;
        if let Some(p) = self.control_period {
            write!(out, " period={}", fmt_secs(p))?;
        }
        if let Some(t) = &self.topology {
            write!(out, " topology={t}")?;
        }
        if self.shards != 1 {
            write!(out, " shards={}", self.shards)?;
        }
        if let Some(fc) = &self.faults {
            let mix = [
                fc.ctrl_drop,
                fc.ctrl_delay,
                fc.stale_snapshot,
                fc.pkt_drop,
                fc.pkt_reorder,
                fc.link_flap,
            ];
            let kinds: Vec<String> = crate::robustness::FAULT_KINDS
                .iter()
                .zip(mix)
                .filter(|&(_, v)| v != 0.0)
                .map(|(kind, v)| format!("{kind}:{v}"))
                .collect();
            if !kinds.is_empty() {
                write!(out, " faults={}", kinds.join("+"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every canonical string must survive parse → Display unchanged.
    #[test]
    fn defense_grammar_round_trips() {
        let cases = [
            "fifo",
            "red",
            "acc",
            "acc:k=0.1",
            "acc:k=1.5",
            "accturbo",
            "accturbo:profile=hw",
            "accturbo:profile=hw:features=dst4",
            "accturbo:clusters=8:distance=anime:search=exhaustive",
            "accturbo:rep=midpoint:init=traffic:budget=256:nominal=bloom1024:ranking=np",
            "accturbo:budget=unlimited",
            "ranked-accturbo:profile=hw",
            "jaqen",
            "jaqen:sig=srcip:th=2000:window=4:deploy=1.5",
            "ideal-pifo",
            "swap",
            "swap:at=30:down=5.5",
        ];
        for s in cases {
            let spec: DefenseSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form of `{s}`");
            let again: DefenseSpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn workload_grammar_round_trips() {
        let cases = [
            "fig2",
            "fig3",
            "fig6",
            "fig7",
            "background",
            "flood",
            "flood:none",
            "flood:carpet",
            "flood:spoof",
            "adversarial:plain",
            "adversarial:evade-agg",
            "adversarial:imitate",
            "elephant",
            "cicday",
            "cicday:vectors=MSSQL+SSDP",
            "cicday:vectors=NTP:episode=2:gap=1",
            "pulse",
            "pulse:period=0.5",
            "pulse:duty=0.25:amp=60m",
            "pulse:period=1.5:duty=0.05:amp=80m:vectors=SYN+NTP:spread=3:ramp=0.4",
            "pulse:vectors=UDP+UDPLag:spread=0",
        ];
        for s in cases {
            let spec: WorkloadSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form of `{s}`");
        }
    }

    #[test]
    fn grammar_rejects_nonsense() {
        assert!("wibble".parse::<DefenseSpec>().is_err());
        assert!("fifo:k=2".parse::<DefenseSpec>().is_err());
        assert!("accturbo:profile=hw:features=sim"
            .parse::<DefenseSpec>()
            .is_err());
        assert!("accturbo:distance=cosine".parse::<DefenseSpec>().is_err());
        assert!("jaqen:sig=6tuple".parse::<DefenseSpec>().is_err());
        assert!("acc:k=0".parse::<DefenseSpec>().is_err());
        assert!("flood:tsunami".parse::<WorkloadSpec>().is_err());
        assert!("adversarial".parse::<WorkloadSpec>().is_err());
        assert!("cicday:vectors=WIBBLE".parse::<WorkloadSpec>().is_err());
        assert!("pulse:duty=0".parse::<WorkloadSpec>().is_err());
        assert!("pulse:duty=1.5".parse::<WorkloadSpec>().is_err());
        assert!("pulse:spread=4".parse::<WorkloadSpec>().is_err());
        assert!("pulse:period=0".parse::<WorkloadSpec>().is_err());
        assert!("pulse:ramp=-1".parse::<WorkloadSpec>().is_err());
        assert!("pulse:vectors=".parse::<WorkloadSpec>().is_err());
        assert!("pulse:amp=0".parse::<WorkloadSpec>().is_err());
        assert!("pulse:wibble=1".parse::<WorkloadSpec>().is_err());
        // Positive values that round to 0 ns / 0 bps.
        assert!("pulse:period=0.0000000001".parse::<WorkloadSpec>().is_err());
        assert!("pulse:amp=0.4".parse::<WorkloadSpec>().is_err());
    }

    /// Every canonical topology string must survive parse → Display
    /// unchanged.
    #[test]
    fn topology_grammar_round_trips() {
        let cases = [
            "line:1",
            "line:4",
            "star:4",
            "star:4:attackers=0+2",
            "fattree:2",
            "star:1024",
            "fattree:16:pushback=on",
            "isp-edge",
            "line:3:delay=0.002:pushback=on:refresh=0.25",
            "star:8:uplink=12m:edges=same",
            "isp-edge:attackers=1+2+3:pushback=on",
        ];
        for s in cases {
            let spec: TopologySpec = s.parse().unwrap_or_else(|e| panic!("`{s}`: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form changed");
            let again: TopologySpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn topology_grammar_rejects_nonsense() {
        assert!("ring:4".parse::<TopologySpec>().is_err());
        assert!("line".parse::<TopologySpec>().is_err());
        assert!("line:0".parse::<TopologySpec>().is_err());
        assert!("line:33".parse::<TopologySpec>().is_err());
        assert!("star:1025".parse::<TopologySpec>().is_err());
        assert!("fattree:1".parse::<TopologySpec>().is_err());
        assert!("fattree:17".parse::<TopologySpec>().is_err());
        assert!("isp-edge:4".parse::<TopologySpec>().is_err());
        assert!("line:x".parse::<TopologySpec>().is_err());
        assert!("star:4:attackers=".parse::<TopologySpec>().is_err());
        assert!("star:4:attackers=2+1".parse::<TopologySpec>().is_err());
        assert!("star:4:attackers=1+1".parse::<TopologySpec>().is_err());
        assert!("star:4:attackers=4".parse::<TopologySpec>().is_err());
        assert!("star:4:edges=none".parse::<TopologySpec>().is_err());
        assert!("star:4:pushback=maybe".parse::<TopologySpec>().is_err());
        assert!("star:4:refresh=0".parse::<TopologySpec>().is_err());
        assert!("star:4:delay=-1".parse::<TopologySpec>().is_err());
        assert!("star:4:wibble=1".parse::<TopologySpec>().is_err());
        let err = "line:2:pushback=on:refresh=0.0000000001"
            .parse::<TopologySpec>()
            .unwrap_err();
        assert!(err.contains("rounds to 0 ns"), "{err}");
        let err = "line:2:uplink=0.1".parse::<TopologySpec>().unwrap_err();
        assert!(err.contains("rounds to 0 bps"), "{err}");
    }

    #[test]
    fn topology_shape_arithmetic_matches_the_structures() {
        for s in ["line:5", "star:6", "fattree:3", "isp-edge"] {
            let spec: TopologySpec = s.parse().unwrap();
            let topo = spec.build(10_000_000);
            assert_eq!(spec.leaf_count(), topo.leaves().len(), "{s}");
            assert_eq!(spec.depth(), topo.depth(), "{s}");
        }
        let line1: TopologySpec = "line:1".parse().unwrap();
        assert_eq!(line1.extra_secs(), 0, "line:1 must not pad the run");
        let deep: TopologySpec = "line:4:delay=0.2:pushback=on".parse().unwrap();
        assert!(deep.extra_secs() >= 3, "deep paths must pad the run");
    }

    #[test]
    fn topology_execute_smoke_and_conservation() {
        let out = ScenarioSpec::new(
            WorkloadSpec::Flood(FloodVariation::SingleFlow),
            DefenseSpec::accturbo(),
        )
        .with_secs(10)
        .with_topology("star:4:attackers=0".parse().unwrap())
        .execute();
        assert!(out.result.arrivals > 0);
        assert_eq!(
            out.result.arrivals,
            out.result.departures + out.result.drops + out.backlog_pkts as u64,
            "packet conservation across the topology"
        );
    }

    #[test]
    fn attackers_confine_only_the_workloads_attack_classes() {
        // Fig. 2/3's benign aggregates 1–4 are one source address each;
        // under `attackers=0` they keep their hashed leaves, which cover
        // the whole star, while the attack aggregate 5 sits on leaf 0.
        let topo: TopologySpec = "star:4:attackers=0".parse().unwrap();
        let unconfined = LeafPlacement::new(4, None);
        for workload in [WorkloadSpec::Fig2, WorkloadSpec::Fig3] {
            let placement = topo.placement(&workload);
            let mut src = workload.build(workload.default_link_bps(), 20, workload.default_seed());
            let mut benign_leaves = [false; 4];
            let mut attack = 0;
            while let Some(p) = src.next_packet() {
                let leaf = placement.place(&p);
                if p.class == scenarios::ATTACK_CLASS {
                    assert_eq!(leaf, 0, "{workload}: the attack leaked off leaf 0");
                    attack += 1;
                } else {
                    assert_eq!(leaf, unconfined.place(&p), "{workload}: {} herded", p.class);
                    benign_leaves[leaf] = true;
                }
            }
            assert!(attack > 0, "{workload}: the attack ramps up within 20 s");
            assert_eq!(
                benign_leaves, [true; 4],
                "{workload}: benign aggregates spread"
            );
        }
        // Elsewhere every class but benign is attack traffic.
        let flood = WorkloadSpec::Flood(FloodVariation::SingleFlow);
        assert_eq!(flood.attack_classes(), None);
        let placement = topo.placement(&flood);
        let mut src = flood.build(flood.default_link_bps(), 10, flood.default_seed());
        while let Some(p) = src.next_packet() {
            if p.class.is_attack() {
                assert_eq!(placement.place(&p), 0);
            }
        }
    }

    /// The natural control periods encode each figure's wiring.
    #[test]
    fn natural_control_periods() {
        assert_eq!(DefenseSpec::Fifo.control_period(), None);
        assert_eq!(DefenseSpec::IdealPifo.control_period(), None);
        // ACC ticks at its EWMA interval, or faster when K is shorter.
        assert_eq!(
            DefenseSpec::Acc {
                k: SimDuration::from_secs(2)
            }
            .control_period(),
            Some(SimDuration::from_millis(100))
        );
        assert_eq!(
            DefenseSpec::Acc {
                k: SimDuration::from_millis(50)
            }
            .control_period(),
            Some(SimDuration::from_millis(50))
        );
        assert_eq!(
            DefenseSpec::accturbo().control_period(),
            Some(SimDuration::from_millis(250))
        );
        assert_eq!(
            DefenseSpec::AccTurbo(AccTurboSpec::hardware(FeatureProfile::HwFig6)).control_period(),
            Some(SimDuration::from_millis(50))
        );
        assert_eq!(
            DefenseSpec::Jaqen(JaqenSpec::new(Signature::FiveTuple, 1_500)).control_period(),
            Some(SimDuration::from_millis(100))
        );
    }

    /// `accturbo:profile=hw` must mean hardware_fig6, and overrides must
    /// land in the materialized config.
    #[test]
    fn accturbo_spec_materializes_overrides() {
        let spec: DefenseSpec = "accturbo:profile=hw:clusters=8:ranking=np".parse().unwrap();
        let DefenseSpec::AccTurbo(s) = &spec else {
            panic!("not accturbo")
        };
        let cfg = s.config();
        assert_eq!(cfg.clustering.num_clusters, 8);
        assert_eq!(cfg.num_queues, 8);
        assert_eq!(cfg.ranking, RankingAlgorithm::NumPackets);
        assert_eq!(cfg.clustering.features.len(), 4);
    }

    /// The workload defaults match the figures they came from.
    #[test]
    fn workload_defaults_match_figures() {
        assert_eq!(WorkloadSpec::Fig2.default_seed(), 2022);
        assert_eq!(WorkloadSpec::Fig2.default_secs(Scale::Full), 50);
        assert_eq!(WorkloadSpec::Fig2.default_secs(Scale::Quick), 25);
        assert_eq!(WorkloadSpec::Elephant.default_link_bps(), 18_000_000);
        assert_eq!(
            WorkloadSpec::Flood(FloodVariation::SingleFlow).default_seed(),
            0x7AB
        );
        assert!(WorkloadSpec::Fig2.share_classes().is_some());
        assert!(WorkloadSpec::Fig6.share_classes().is_none());
    }

    /// A spec-driven run conserves packets and actually moves traffic.
    #[test]
    fn execute_smoke_and_conservation() {
        let out = ScenarioSpec::new(
            WorkloadSpec::Flood(FloodVariation::SingleFlow),
            DefenseSpec::accturbo(),
        )
        .with_secs(10)
        .execute();
        assert!(out.result.arrivals > 0);
        assert_eq!(
            out.result.arrivals,
            out.result.departures + out.result.drops + out.backlog_pkts as u64,
            "packet conservation"
        );
        assert!(out.fault_stats.is_none());
    }
}
