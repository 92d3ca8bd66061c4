//! Distributed collections: machine-sharded vectors of fixed-width
//! records.
//!
//! Operations that stay machine-local cost **zero rounds** in the MPC
//! model and are provided here ([`Dist::map`], [`Dist::filter`],
//! [`Dist::flat_map`], [`Dist::union`], …); they still validate the
//! per-machine memory constraint because local transforms can grow data.
//! Anything that moves records across machines lives in [`crate::comm`]
//! and [`crate::primitives`] and charges rounds.
//!
//! The "machines" execute concurrently on the rayon pool (shards are
//! disjoint, closures are `Sync`, and collects preserve shard order), so
//! every operation is deterministic regardless of `RAYON_NUM_THREADS`.

use rayon::prelude::*;

use crate::record::Record;
use crate::system::MpcSystem;
use crate::{MpcError, Result};

/// A collection of `T` records sharded across the machines of one
/// [`MpcSystem`]. Shard `i` lives on machine `i`.
#[derive(Debug, Clone)]
pub struct Dist<T: Record> {
    shards: Vec<Vec<T>>,
}

impl<T: Record> Dist<T> {
    /// An empty collection spread over the system's machines.
    pub fn empty(sys: &MpcSystem) -> Self {
        Dist {
            shards: vec![Vec::new(); sys.machines()],
        }
    }

    /// Distributes `items` across machines in contiguous blocks, the
    /// model's "input is arbitrarily distributed" starting state.
    ///
    /// Fails with [`MpcError::InputTooLarge`] if the data cannot fit even
    /// at full capacity.
    pub fn distribute(sys: &mut MpcSystem, items: Vec<T>) -> Result<Self> {
        let p = sys.machines();
        let total_words = items.len() * T::WORDS;
        if total_words > sys.cfg().capacity() * p {
            return Err(MpcError::InputTooLarge {
                needed: total_words,
                available: sys.cfg().capacity() * p,
            });
        }
        let per = items.len().div_ceil(p).max(1);
        let mut shards = vec![Vec::new(); p];
        for (i, chunk) in items.chunks(per).enumerate() {
            shards[i] = chunk.to_vec();
        }
        sys.check_all_storage(&shards, "distribute")?;
        Ok(Dist { shards })
    }

    /// Builds a collection from explicit shards (used by the comm layer).
    pub(crate) fn from_shards(shards: Vec<Vec<T>>) -> Self {
        Dist { shards }
    }

    /// Read-only access to the shards.
    pub fn shards(&self) -> &[Vec<T>] {
        &self.shards
    }

    /// Consumes the collection into its shards.
    pub(crate) fn into_shards(self) -> Vec<Vec<T>> {
        self.shards
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Vec::is_empty)
    }

    /// **Out-of-model extraction**: concatenates all shards in machine
    /// order. This is how the experimenter reads the final answer off the
    /// cluster once the algorithm has finished; it charges no rounds and
    /// must not be used *inside* algorithms (use
    /// [`crate::comm::gather_to_machine`] there, which pays for the
    /// communication).
    pub fn collect_out_of_model(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            out.extend(s.iter().cloned());
        }
        out
    }

    /// Machine-local map (0 rounds). Validates post-transform storage.
    pub fn map<U: Record>(
        &self,
        sys: &mut MpcSystem,
        f: impl Fn(&T) -> U + Send + Sync,
    ) -> Result<Dist<U>> {
        let shards: Vec<Vec<U>> = self
            .shards
            .par_iter()
            .map(|s| s.iter().map(&f).collect())
            .collect();
        sys.check_all_storage(&shards, "map")?;
        Ok(Dist { shards })
    }

    /// Machine-local filter (0 rounds).
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync) -> Dist<T> {
        let shards: Vec<Vec<T>> = self
            .shards
            .par_iter()
            .map(|s| s.iter().filter(|x| f(x)).cloned().collect())
            .collect();
        Dist { shards }
    }

    /// Machine-local flat-map (0 rounds). Validates post-transform
    /// storage: fan-out transforms (like emitting both directions of an
    /// edge) can overflow a machine.
    pub fn flat_map<U: Record, I: IntoIterator<Item = U>>(
        &self,
        sys: &mut MpcSystem,
        f: impl Fn(&T) -> I + Send + Sync,
    ) -> Result<Dist<U>> {
        let shards: Vec<Vec<U>> = self
            .shards
            .par_iter()
            .map(|s| s.iter().flat_map(&f).collect())
            .collect();
        sys.check_all_storage(&shards, "flat_map")?;
        Ok(Dist { shards })
    }

    /// Machine-local union: shard-wise concatenation (0 rounds — both
    /// collections already live on the same machines). Validates storage.
    pub fn union(&self, sys: &mut MpcSystem, other: &Dist<T>) -> Result<Dist<T>> {
        if self.shards.len() != other.shards.len() {
            return Err(MpcError::ShapeMismatch {
                what: "shards (collections from deployments of different sizes)",
                expected: self.shards.len(),
                got: other.shards.len(),
                op: "union",
            });
        }
        let shards: Vec<Vec<T>> = self
            .shards
            .par_iter()
            .zip(other.shards.par_iter())
            .map(|(a, b)| {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend(a.iter().cloned());
                v.extend(b.iter().cloned());
                v
            })
            .collect();
        sys.check_all_storage(&shards, "union")?;
        Ok(Dist { shards })
    }

    /// Per-shard aggregation (0 rounds): applies `f` to each shard,
    /// producing one local summary per machine. The caller then combines
    /// summaries with a tree primitive that charges rounds.
    pub fn per_machine<U: Send>(&self, f: impl Fn(&[T]) -> U + Send + Sync) -> Vec<U> {
        self.shards.par_iter().map(|s| f(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn sys(words: usize, machines: usize) -> MpcSystem {
        MpcSystem::new(MpcConfig::explicit(words, machines, 1))
    }

    #[test]
    fn distribute_blocks() {
        let mut s = sys(4, 4);
        let d = Dist::distribute(&mut s, (0u64..10).collect()).unwrap();
        assert_eq!(d.len(), 10);
        assert_eq!(d.shards()[0].len(), 3);
        assert_eq!(d.collect_out_of_model(), (0u64..10).collect::<Vec<_>>());
    }

    #[test]
    fn distribute_rejects_oversize() {
        let mut s = sys(2, 2);
        let err = Dist::distribute(&mut s, (0u64..100).collect()).unwrap_err();
        assert!(matches!(err, MpcError::InputTooLarge { .. }));
    }

    #[test]
    fn map_and_filter_are_local() {
        let mut s = sys(8, 4);
        let d = Dist::distribute(&mut s, (0u64..16).collect()).unwrap();
        let doubled = d.map(&mut s, |x| x * 2).unwrap();
        assert_eq!(doubled.collect_out_of_model()[3], 6);
        let evens = d.filter(|x| x % 2 == 0);
        assert_eq!(evens.len(), 8);
        assert_eq!(s.rounds(), 0, "local ops must not charge rounds");
    }

    #[test]
    fn flat_map_checks_capacity() {
        let mut s = sys(4, 2); // capacity 4 words per machine
        let d = Dist::distribute(&mut s, vec![1u64, 2]).unwrap();
        // Fan-out ×8 overflows a 4-word machine.
        let err = d.flat_map(&mut s, |&x| vec![x; 8]).unwrap_err();
        assert!(matches!(err, MpcError::MemoryExceeded { .. }));
    }

    #[test]
    fn union_concatenates_shardwise() {
        let mut s = sys(8, 2);
        let a = Dist::distribute(&mut s, vec![1u64, 2]).unwrap();
        let b = Dist::distribute(&mut s, vec![3u64, 4]).unwrap();
        let u = a.union(&mut s, &b).unwrap();
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn per_machine_summaries() {
        let mut s = sys(8, 2);
        let d = Dist::distribute(&mut s, vec![1u64, 2, 3, 4]).unwrap();
        let sums = d.per_machine(|s| s.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 10);
    }
}
