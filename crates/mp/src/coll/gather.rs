//! `MPI_Gather` / `MPI_Allgather` — the *Gather* pattern (paper §III.E,
//! Figures 25–28): every rank's buffer is collected at the root, in rank
//! order.

use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::opcodes;

impl Comm {
    /// Gather per-rank buffers (possibly of different lengths) at `root`.
    /// Returns `Some(vec_of_per_rank_buffers)` at the root, `None`
    /// elsewhere. This is the `MPI_Gatherv` generality.
    pub fn gather_by_rank<T: Datatype + Clone>(
        &self,
        root: usize,
        local: &[T],
    ) -> Result<Option<Vec<Vec<T>>>> {
        let p = self.size();
        if root >= p {
            return Err(Error::RankOutOfRange {
                rank: root,
                size: p,
            });
        }
        let tags = self.start_collective(opcodes::GATHER, "gather")?;
        let _phase = self.coll_phase("gather");
        if self.rank() == root {
            let mut all: Vec<Vec<T>> = Vec::with_capacity(p);
            for r in 0..p {
                if r == root {
                    all.push(local.to_vec());
                } else {
                    let (data, _) = self.recv_internal::<T>(r.into(), tags(0).into())?;
                    all.push(data);
                }
            }
            Ok(Some(all))
        } else {
            self.send_internal(local, root, tags(0))?;
            Ok(None)
        }
    }

    /// `MPI_Gather`: every rank contributes the same count; the root
    /// receives the concatenation in rank order (paper Fig. 26: process 0's
    /// values, then process 1's, ...). Fails with
    /// [`Error::CountMismatch`] if some rank contributed a different count.
    pub fn gather<T: Datatype + Clone>(&self, root: usize, local: &[T]) -> Result<Option<Vec<T>>> {
        let expected = local.len();
        match self.gather_by_rank(root, local)? {
            None => Ok(None),
            Some(per_rank) => {
                let mut flat = Vec::with_capacity(expected * per_rank.len());
                for buf in per_rank {
                    if buf.len() != expected {
                        return Err(Error::CountMismatch {
                            expected,
                            found: buf.len(),
                        });
                    }
                    flat.extend(buf);
                }
                Ok(Some(flat))
            }
        }
    }

    /// `MPI_Allgather`: gather at rank 0, then broadcast, so every rank
    /// ends with the full rank-ordered concatenation.
    pub fn allgather<T: Datatype + Clone>(&self, local: &[T]) -> Result<Vec<T>> {
        let mut buf = self.gather(0, local)?.unwrap_or_default();
        self.bcast(0, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    /// The paper's Fig. 25 computeArray: rank r contributes
    /// `[r*10, r*10+1, r*10+2]`.
    fn compute_array(rank: usize) -> Vec<i32> {
        (0..3).map(|i| (rank * 10 + i) as i32).collect()
    }

    #[test]
    fn gather_matches_paper_figure_26() {
        // 2 processes: gatherArray = 0 1 2 10 11 12.
        let out = World::run(2, |comm| {
            comm.gather(0, &compute_array(comm.rank())).unwrap()
        });
        assert_eq!(out[0].as_deref(), Some(&[0, 1, 2, 10, 11, 12][..]));
        assert_eq!(out[1], None);
    }

    #[test]
    fn gather_matches_paper_figure_27_and_28() {
        // 4 processes (Fig. 27).
        let out = World::run(4, |comm| {
            comm.gather(0, &compute_array(comm.rank())).unwrap()
        });
        assert_eq!(
            out[0].as_deref(),
            Some(&[0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32][..])
        );
        // 6 processes (Fig. 28).
        let out = World::run(6, |comm| {
            comm.gather(0, &compute_array(comm.rank())).unwrap()
        });
        let expected: Vec<i32> = (0..6).flat_map(compute_array).collect();
        assert_eq!(out[0].as_deref(), Some(&expected[..]));
    }

    #[test]
    fn gather_at_nonzero_root() {
        let out = World::run(3, |comm| comm.gather(1, &[comm.rank() as u64]).unwrap());
        assert_eq!(out[0], None);
        assert_eq!(out[1].as_deref(), Some(&[0u64, 1, 2][..]));
        assert_eq!(out[2], None);
    }

    #[test]
    fn gather_by_rank_allows_ragged_buffers() {
        let out = World::run(3, |comm| {
            let mine: Vec<u32> = (0..comm.rank() as u32).collect();
            comm.gather_by_rank(0, &mine).unwrap()
        });
        assert_eq!(out[0], Some(vec![vec![], vec![0], vec![0, 1]]));
    }

    #[test]
    fn gather_detects_count_mismatch() {
        let out = World::run(2, |comm| {
            let mine: Vec<i32> = vec![0; comm.rank() + 1]; // 1 vs 2 elements
            comm.gather(0, &mine)
        });
        assert!(matches!(
            out[0],
            Err(Error::CountMismatch {
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        for p in [1, 2, 4, 5] {
            let out = World::run(p, |comm| comm.allgather(&[comm.rank() as i64 * 2]).unwrap());
            let expected: Vec<i64> = (0..p as i64).map(|r| r * 2).collect();
            assert!(out.iter().all(|v| v == &expected), "p={p}: {out:?}");
        }
    }
}
