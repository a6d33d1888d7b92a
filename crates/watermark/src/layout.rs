//! Key-derived embedding-pair layout.

use rand::seq::SliceRandom;
use rand::Rng;
use stepstone_flow::Flow;

use crate::error::WatermarkError;
use crate::key::WatermarkKey;
use crate::params::WatermarkParams;

/// One embedding pair `(p_first, p_second)` and its group assignment.
///
/// `second = first + d`. Group-1 IPDs enter the decode statistic `D`
/// positively, group-2 IPDs negatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairRef {
    /// Upstream index of the pair's first packet (`e`).
    pub first: usize,
    /// Upstream index of the pair's second packet (`e + d`).
    pub second: usize,
    /// `true` if the pair's IPD is in group 1.
    pub group1: bool,
}

impl PairRef {
    /// The two upstream indices as `(first, second)`.
    pub const fn indices(&self) -> (usize, usize) {
        (self.first, self.second)
    }
}

/// The complete embedding layout for one `(key, params, flow length)`
/// triple: `l` bits × `2r` pairs, all pairs index-disjoint.
///
/// Both embedder and detector derive the same layout from the shared
/// secret key; an observer without the key sees only ordinary traffic.
///
/// # Example
///
/// ```
/// use stepstone_watermark::{BitLayout, WatermarkKey, WatermarkParams};
///
/// let params = WatermarkParams::small();
/// let layout = BitLayout::derive(WatermarkKey::new(5), &params, 200)?;
/// assert_eq!(layout.bits(), params.bits);
/// assert_eq!(layout.pairs(0).len(), 2 * params.redundancy);
/// # Ok::<(), stepstone_watermark::WatermarkError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitLayout {
    pairs_per_bit: Vec<Vec<PairRef>>,
    flow_len: usize,
}

impl BitLayout {
    /// Derives the layout for a flow of `flow_len` packets.
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::FlowTooShort`] when the flow cannot
    /// host `l · 2r` disjoint pairs.
    pub fn derive(
        key: WatermarkKey,
        params: &WatermarkParams,
        flow_len: usize,
    ) -> Result<Self, WatermarkError> {
        let candidates: Vec<usize> = (0..flow_len.saturating_sub(params.offset)).collect();
        Self::pick_and_assemble(key, params, flow_len, candidates, true)
    }

    /// Derives the layout for a concrete (unwatermarked) flow,
    /// preferring *tight* pairs — those whose IPD is at most the timing
    /// adjustment `a`.
    ///
    /// The unwatermarked statistic `D = Σ(ipd¹ − ipd²)` only has zero
    /// *mean*; interactive traffic's think-time IPDs are heavy-tailed
    /// (multi-minute outliers), so an unconstrained pair selection gives
    /// `D` a spread that dwarfs the embedded `±2r·a` shift and bits fail
    /// to embed. Restricting pairs to `ipd ≤ a` bounds `|D|` before
    /// embedding by `2r·a` in the worst case (typically far less), so
    /// the shift dominates. Raise-only embedding (see
    /// [`IpdWatermarker::embed`]) never needs to shrink an IPD, so tight
    /// pairs cost nothing.
    ///
    /// Both sides can derive this layout: the embedder sees the flow it
    /// marks, and the detector keeps the original flow it marked. When
    /// too few tight pairs exist, the tightest remaining pairs fill the
    /// deficit (deterministically), degrading gracefully toward
    /// [`derive`].
    ///
    /// [`IpdWatermarker::embed`]: crate::IpdWatermarker::embed
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::FlowTooShort`] when the flow cannot
    /// host `l · 2r` disjoint pairs at all.
    pub fn derive_for_flow(
        key: WatermarkKey,
        params: &WatermarkParams,
        flow: &Flow,
    ) -> Result<Self, WatermarkError> {
        let d = params.offset;
        let n = flow.len();
        let mut tight: Vec<usize> = Vec::new();
        let mut loose: Vec<usize> = Vec::new();
        for e in 0..n.saturating_sub(d) {
            if flow.ipd(e, e + d) <= params.adjustment {
                tight.push(e);
            } else {
                loose.push(e);
            }
        }
        // Tight pairs first (in secret random order); then loose ones,
        // tightest first (stable sort: deterministic tie-break by index).
        loose.sort_by_key(|&e| flow.ipd(e, e + d));
        let mut rng = key.rng(1);
        tight.shuffle(&mut rng);
        let mut candidates = tight;
        candidates.extend(loose);
        Self::pick_and_assemble(key, params, n, candidates, false)
    }

    /// Shared picker: walks `candidates` (optionally shuffling as it
    /// goes — partial Fisher–Yates), greedily keeping disjoint pairs,
    /// then splits each bit's pairs into two random groups.
    fn pick_and_assemble(
        key: WatermarkKey,
        params: &WatermarkParams,
        flow_len: usize,
        candidates: Vec<usize>,
        shuffle: bool,
    ) -> Result<Self, WatermarkError> {
        params.validate();
        let d = params.offset;
        let pairs_needed = params.pairs_needed();
        if flow_len < d + 1 || flow_len < params.indices_needed() {
            return Err(WatermarkError::FlowTooShort {
                needed: params.indices_needed().max(d + 1),
                available: flow_len,
            });
        }
        let mut rng = key.rng(0);

        // Greedily pick disjoint pairs (e, e+d) from a random permutation
        // of candidate positions (partial Fisher–Yates).
        let mut candidates = candidates;
        let mut used = vec![false; flow_len];
        let mut picked: Vec<(usize, usize)> = Vec::with_capacity(pairs_needed);
        let mut i = 0;
        while picked.len() < pairs_needed && i < candidates.len() {
            if shuffle {
                let j = rng.gen_range(i..candidates.len());
                candidates.swap(i, j);
            }
            let e = candidates[i];
            i += 1;
            if !used[e] && !used[e + d] {
                used[e] = true;
                used[e + d] = true;
                picked.push((e, e + d));
            }
        }
        if picked.len() < pairs_needed {
            return Err(WatermarkError::FlowTooShort {
                needed: params.indices_needed(),
                available: flow_len,
            });
        }

        // Distribute pairs over bits and split each bit's 2r pairs into
        // two random groups of r.
        let per_bit = 2 * params.redundancy;
        let mut pairs_per_bit = Vec::with_capacity(params.bits);
        for chunk in picked.chunks_exact(per_bit) {
            let mut group_flags: Vec<bool> = std::iter::repeat_n(true, params.redundancy)
                .chain(std::iter::repeat_n(false, params.redundancy))
                .collect();
            group_flags.shuffle(&mut rng);
            let pairs = chunk
                .iter()
                .zip(group_flags)
                .map(|(&(first, second), group1)| PairRef {
                    first,
                    second,
                    group1,
                })
                .collect();
            pairs_per_bit.push(pairs);
        }
        Ok(BitLayout {
            pairs_per_bit,
            flow_len,
        })
    }

    /// Number of watermark bits.
    pub fn bits(&self) -> usize {
        self.pairs_per_bit.len()
    }

    /// The embedding pairs of `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn pairs(&self, bit: usize) -> &[PairRef] {
        &self.pairs_per_bit[bit]
    }

    /// Iterates over `(bit index, pairs)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[PairRef])> {
        self.pairs_per_bit
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.as_slice()))
    }

    /// All upstream indices used by any pair, sorted ascending.
    pub fn all_indices(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .pairs_per_bit
            .iter()
            .flatten()
            .flat_map(|p| [p.first, p.second])
            .collect();
        out.sort_unstable();
        out
    }

    /// The largest upstream index any pair touches.
    pub fn max_index(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "layout derivation rejects zero-bit watermarks, so pairs exist"
        )]
        let max = self
            .pairs_per_bit
            .iter()
            .flatten()
            .map(|p| p.second.max(p.first))
            .max()
            .expect("layouts are never empty");
        max
    }

    /// The flow length this layout was derived for.
    pub fn flow_len(&self) -> usize {
        self.flow_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: usize) -> BitLayout {
        BitLayout::derive(WatermarkKey::new(1), &WatermarkParams::small(), n).unwrap()
    }

    #[test]
    fn derivation_is_deterministic_in_key() {
        let a = BitLayout::derive(WatermarkKey::new(1), &WatermarkParams::small(), 300).unwrap();
        let b = BitLayout::derive(WatermarkKey::new(1), &WatermarkParams::small(), 300).unwrap();
        let c = BitLayout::derive(WatermarkKey::new(2), &WatermarkParams::small(), 300).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pairs_are_disjoint_and_in_range() {
        let l = layout(200);
        let indices = l.all_indices();
        let mut dedup = indices.clone();
        dedup.dedup();
        assert_eq!(indices.len(), dedup.len(), "indices reused");
        assert_eq!(indices.len(), WatermarkParams::small().indices_needed());
        assert!(l.max_index() < 200);
        assert_eq!(l.flow_len(), 200);
    }

    #[test]
    fn pair_offset_is_honoured() {
        let params = WatermarkParams::small();
        let l = BitLayout::derive(WatermarkKey::new(3), &params, 300).unwrap();
        for (_, pairs) in l.iter() {
            for p in pairs {
                assert_eq!(p.second, p.first + params.offset);
                assert_eq!(p.indices(), (p.first, p.second));
            }
        }
    }

    #[test]
    fn groups_are_balanced_per_bit() {
        let params = WatermarkParams::small();
        let l = BitLayout::derive(WatermarkKey::new(4), &params, 300).unwrap();
        for (_, pairs) in l.iter() {
            assert_eq!(pairs.len(), 2 * params.redundancy);
            let g1 = pairs.iter().filter(|p| p.group1).count();
            assert_eq!(g1, params.redundancy);
        }
    }

    #[test]
    fn too_short_flows_are_rejected() {
        let params = WatermarkParams::small(); // needs 64 indices
        let err = BitLayout::derive(WatermarkKey::new(5), &params, 63).unwrap_err();
        assert!(matches!(err, WatermarkError::FlowTooShort { .. }));
        // Exactly the minimum works with d=1 (pairs can tile adjacent).
        assert!(BitLayout::derive(WatermarkKey::new(5), &params, 200).is_ok());
    }

    #[test]
    fn larger_offset_spreads_pairs() {
        let params = WatermarkParams::small();
        let params = WatermarkParams {
            offset: 5,
            ..params
        };
        let l = BitLayout::derive(WatermarkKey::new(6), &params, 400).unwrap();
        for (_, pairs) in l.iter() {
            for p in pairs {
                assert_eq!(p.second - p.first, 5);
            }
        }
    }

    #[test]
    fn bit_count_matches_params() {
        let l = layout(300);
        assert_eq!(l.bits(), WatermarkParams::small().bits);
        assert_eq!(l.iter().count(), l.bits());
    }
}
