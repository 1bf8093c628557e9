//! `MPI_Scatter` — the *Scatter* pattern (paper §III.E): the root deals
//! equal slices of its buffer to every rank.

use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::opcodes;

impl Comm {
    /// Scatter `sendbuf` (significant only at `root`) evenly over all
    /// ranks; every rank receives its `len/p` slice. `sendbuf.len()` must
    /// be a multiple of the world size, the `MPI_Scatter` equal-count rule.
    pub fn scatter<T: Datatype + Clone>(
        &self,
        root: usize,
        sendbuf: Option<&[T]>,
    ) -> Result<Vec<T>> {
        let p = self.size();
        if root >= p {
            return Err(Error::RankOutOfRange {
                rank: root,
                size: p,
            });
        }
        let tags = self.start_collective(opcodes::SCATTER, "scatter")?;
        let _phase = self.coll_phase("scatter");
        if self.rank() == root {
            let data = sendbuf
                .ok_or_else(|| Error::InvalidConfig("scatter: root must supply sendbuf".into()))?;
            if data.len() % p != 0 {
                return Err(Error::CountMismatch {
                    expected: data.len().div_ceil(p) * p,
                    found: data.len(),
                });
            }
            let chunk = data.len() / p;
            for r in 0..p {
                if r != root {
                    self.send_internal(&data[r * chunk..(r + 1) * chunk], r, tags(0))?;
                }
            }
            Ok(data[root * chunk..(root + 1) * chunk].to_vec())
        } else {
            let (data, _) = self.recv_internal::<T>(root.into(), tags(0).into())?;
            Ok(data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn scatter_deals_contiguous_slices_in_rank_order() {
        let out = World::run(4, |comm| {
            let send: Option<Vec<i64>> = if comm.is_master() {
                Some((0..12).collect())
            } else {
                None
            };
            comm.scatter(0, send.as_deref()).unwrap()
        });
        assert_eq!(out[0], vec![0, 1, 2]);
        assert_eq!(out[1], vec![3, 4, 5]);
        assert_eq!(out[2], vec![6, 7, 8]);
        assert_eq!(out[3], vec![9, 10, 11]);
    }

    #[test]
    fn scatter_from_nonzero_root() {
        let out = World::run(3, |comm| {
            let send: Option<Vec<u32>> = if comm.rank() == 2 {
                Some(vec![7, 8, 9])
            } else {
                None
            };
            comm.scatter(2, send.as_deref()).unwrap()
        });
        assert_eq!(out, vec![vec![7], vec![8], vec![9]]);
    }

    #[test]
    fn scatter_uneven_count_rejected() {
        let out = World::run(3, |comm| {
            let send: Option<Vec<i32>> = if comm.is_master() {
                Some(vec![1, 2, 3, 4])
            } else {
                None
            };
            comm.scatter(0, send.as_deref())
        });
        assert!(matches!(out[0], Err(Error::CountMismatch { .. })));
    }

    #[test]
    fn scatter_single_rank_is_identity() {
        let out = World::run(1, |comm| comm.scatter(0, Some(&[5i32, 6][..])).unwrap());
        assert_eq!(out, vec![vec![5, 6]]);
    }

    #[test]
    fn scatter_missing_sendbuf_at_root_errors() {
        let out = World::run(1, |comm| comm.scatter::<i32>(0, None));
        assert!(matches!(out[0], Err(Error::InvalidConfig(_))));
    }
}
