//! Variable-count collectives (`MPI_Scatterv` / `MPI_Gatherv` semantics)
//! and `MPI_Reduce_scatter`.

use patternlets_core::reduce::ReduceOp;
use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::opcodes;

impl Comm {
    /// `MPI_Scatterv`: the root supplies one buffer *per rank* (possibly of
    /// different lengths); each rank receives its own.
    pub fn scatter_varied<T: Datatype + Clone>(
        &self,
        root: usize,
        sendbufs: Option<&[Vec<T>]>,
    ) -> Result<Vec<T>> {
        let p = self.size();
        if root >= p {
            return Err(Error::RankOutOfRange {
                rank: root,
                size: p,
            });
        }
        let tags = self.start_collective(opcodes::SCATTER, "scatterv")?;
        let _phase = self.coll_phase("scatterv");
        if self.rank() == root {
            let bufs = sendbufs.ok_or_else(|| {
                Error::InvalidConfig("scatter_varied: root must supply buffers".into())
            })?;
            if bufs.len() != p {
                return Err(Error::CountMismatch {
                    expected: p,
                    found: bufs.len(),
                });
            }
            for (r, buf) in bufs.iter().enumerate() {
                if r != root {
                    self.send_internal(buf, r, tags(0))?;
                }
            }
            Ok(bufs[root].clone())
        } else {
            let (data, _) = self.recv_internal::<T>(root.into(), tags(0).into())?;
            Ok(data)
        }
    }

    /// `MPI_Reduce_scatter` (equal block sizes): elementwise-reduce every
    /// rank's buffer, then scatter the result so rank `i` holds block `i`.
    /// `local.len()` must be `block_len × size`.
    pub fn reduce_scatter<T: Datatype + Clone>(
        &self,
        local: &[T],
        op: &dyn ReduceOp<T>,
    ) -> Result<Vec<T>> {
        let p = self.size();
        if !local.len().is_multiple_of(p) {
            return Err(Error::CountMismatch {
                expected: local.len().div_ceil(p) * p,
                found: local.len(),
            });
        }
        // Reduce to rank 0, then scatter the combined vector.
        let combined = self.reduce(0, local, op)?;
        self.scatter(0, combined.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use patternlets_core::reduce::ops;

    #[test]
    fn scatter_varied_delivers_ragged_buffers() {
        let out = World::run(3, |comm| {
            let bufs: Option<Vec<Vec<i64>>> = if comm.is_master() {
                Some(vec![vec![], vec![10], vec![20, 21]])
            } else {
                None
            };
            comm.scatter_varied(0, bufs.as_deref()).unwrap()
        });
        assert_eq!(out, vec![vec![], vec![10], vec![20, 21]]);
    }

    #[test]
    fn scatter_varied_wrong_bucket_count_rejected() {
        let out = World::run(2, |comm| {
            let bufs: Option<Vec<Vec<i64>>> = if comm.is_master() {
                Some(vec![vec![1]])
            } else {
                None
            };
            comm.scatter_varied(0, bufs.as_deref())
        });
        assert!(matches!(
            out[0],
            Err(Error::CountMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_block() {
        // 3 ranks, 2 elements per block: rank r contributes
        // [r, r, r, r, r, r]; the sum per element is 0+1+2 = 3.
        let out = World::run(3, |comm| {
            let local = vec![comm.rank() as i64; 6];
            comm.reduce_scatter(&local, &ops::Sum).unwrap()
        });
        assert!(out.iter().all(|b| b == &[3, 3]));
    }

    #[test]
    fn reduce_scatter_blocks_are_positional() {
        // Element j of rank r's buffer is r*10 + j; the reduced vector is
        // sum_r(r*10) + p*j per... verify blocks differ by position.
        let out = World::run(2, |comm| {
            let local: Vec<i64> = (0..4).map(|j| (comm.rank() * 10 + j) as i64).collect();
            comm.reduce_scatter(&local, &ops::Sum).unwrap()
        });
        // Reduced vector: [10, 12, 14, 16]; rank 0 gets [10, 12], rank 1 [14, 16].
        assert_eq!(out[0], vec![10, 12]);
        assert_eq!(out[1], vec![14, 16]);
    }

    #[test]
    fn reduce_scatter_uneven_rejected() {
        let out = World::run(2, |comm| comm.reduce_scatter(&[1i64, 2, 3], &ops::Sum));
        assert!(matches!(out[0], Err(Error::CountMismatch { .. })));
    }
}
