//! Struct-of-arrays packet storage for the sharded datapath.
//!
//! A shard's slice of a sealed batch lives in two parallel columns: the
//! full [`Packet`] payload, and the switch's classification features as
//! one flat interleaved column (`feature_width` values per row),
//! precomputed on the producer thread so the event loop can hand the
//! switch a ready row through
//! [`Switch::ingress_featured`](crate::switch::Switch::ingress_featured).
//!
//! Arenas are recycled: [`clear`](PacketArena::clear) keeps every
//! column's capacity, so once the batch-buffer pool has warmed up,
//! steady state allocates nothing (locked down by the zero-allocation
//! test suite).

use crate::packet::Packet;
use crate::switch::FeatureExtractor;

/// Struct-of-arrays storage for one shard's slice of a batch.
#[derive(Debug)]
pub(crate) struct PacketArena {
    feature_width: usize,
    features: Vec<u32>,
    payload: Vec<Packet>,
    scratch: Vec<u32>,
}

impl PacketArena {
    /// An empty arena whose feature column holds `feature_width` values
    /// per packet (zero for switches without a feature extractor).
    pub(crate) fn new(feature_width: usize) -> Self {
        PacketArena {
            feature_width,
            features: Vec::new(),
            payload: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Empties every column, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.features.clear();
        self.payload.clear();
    }

    /// Appends a packet, extracting its feature row with `extractor` when
    /// one is given (otherwise the feature column stays empty for this
    /// arena, which must then have `feature_width == 0`).
    pub(crate) fn push(&mut self, pkt: Packet, extractor: Option<&FeatureExtractor>) {
        if let Some(ex) = extractor {
            debug_assert_eq!(ex.width(), self.feature_width, "extractor width mismatch");
            ex.extract_into(&pkt, &mut self.scratch);
            self.features.extend_from_slice(&self.scratch);
        } else {
            debug_assert_eq!(self.feature_width, 0, "arena expects feature rows");
        }
        self.payload.push(pkt);
    }

    /// The feature row at `index` (empty when the arena carries no
    /// feature column).
    pub(crate) fn features_row(&self, index: usize) -> &[u32] {
        let w = self.feature_width;
        &self.features[index * w..(index + 1) * w]
    }

    /// The full packet payload at `index`.
    pub(crate) fn packet(&self, index: usize) -> &Packet {
        &self.payload[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::sync::Arc;

    fn extractor() -> FeatureExtractor {
        FeatureExtractor::new(
            2,
            Arc::new(|p: &Packet, out: &mut Vec<u32>| {
                out.clear();
                out.push(p.size);
                out.push(p.size * 2);
            }),
        )
    }

    #[test]
    fn columns_stay_parallel() {
        let ex = extractor();
        let mut arena = PacketArena::new(2);
        for i in 0..5u32 {
            let pkt = Packet::new(SimTime::from_micros(u64::from(i))).with_size(100 + i);
            arena.push(pkt, Some(&ex));
        }
        assert_eq!(arena.features_row(3), &[103, 206]);
        assert_eq!(arena.packet(3).size, 103);
        assert_eq!(arena.packet(3).arrival, SimTime::from_micros(3));
    }

    #[test]
    fn clear_keeps_capacity() {
        let ex = extractor();
        let mut arena = PacketArena::new(2);
        arena.push(Packet::new(SimTime::ZERO).with_size(1), Some(&ex));
        let cap = (arena.payload.capacity(), arena.features.capacity());
        arena.clear();
        assert!(arena.payload.is_empty() && arena.features.is_empty());
        assert_eq!(
            (arena.payload.capacity(), arena.features.capacity()),
            cap,
            "clear must keep capacity"
        );
        arena.push(Packet::new(SimTime::ZERO).with_size(9), Some(&ex));
        assert_eq!(arena.packet(0).size, 9);
        assert_eq!(arena.features_row(0), &[9, 18]);
    }

    #[test]
    fn featureless_arena_has_empty_rows() {
        let mut arena = PacketArena::new(0);
        arena.push(Packet::new(SimTime::ZERO), None);
        assert_eq!(arena.features_row(0), &[] as &[u32]);
    }
}
