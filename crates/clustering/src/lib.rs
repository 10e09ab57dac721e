//! # accturbo-clustering
//!
//! The inference half of ACC-Turbo (paper §4): online clustering of packet
//! headers, implemented across the full design space the paper studies —
//! fast vs. exhaustive search, range-based vs. center-based cluster
//! representations, Manhattan vs. Anime vs. Euclidean distances — plus the
//! offline k-means and hybrid baselines of §8.1 and the purity/recall
//! evaluation protocol.
//!
//! The deployable configuration (what runs on Tofino) is
//! [`ClusteringConfig::deployable`]: Manhattan distance, fast search,
//! range-based clusters.

#![deny(missing_docs)]
// `unsafe` is confined to the AVX2 kernel module; every block there
// carries a `// SAFETY:` comment.
#![deny(unsafe_code)]

pub mod bloom;
pub mod cluster;
pub mod eval;
pub mod feature;
pub mod hybrid;
#[allow(unsafe_code)]
mod kernel;
pub mod kmeans;
pub mod online;

pub use bloom::BloomFilter;
pub use cluster::{CenterCluster, Dim, NominalMode, NominalSet, RangeCluster};
pub use eval::{ClusterEval, QualitySummary, WindowedEval};
pub use feature::{Feature, FeatureBatch, FeatureKind, FeatureSet, FeatureSpec};
pub use hybrid::HybridClusterer;
pub use kmeans::{kmeans, nearest, KMeansFit};
pub use online::{
    Assignment, ClusteringConfig, DistanceKind, InitMode, OnlineClusterer, RepMode, Repr,
    SearchKind, WindowStats,
};
