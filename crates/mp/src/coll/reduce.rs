//! `MPI_Reduce` / `MPI_Allreduce` — the *Reduction* pattern over messages
//! (paper §III.D, Figures 23–24).

use patternlets_core::reduce::ReduceOp;
use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::opcodes;

impl Comm {
    /// Combine every rank's `local` buffer elementwise with `op`, leaving
    /// the result at `root` (`Some` there, `None` elsewhere).
    ///
    /// Binomial combining tree: `p − 1` messages in `⌈lg p⌉` rounds — the
    /// message-passing realization of the paper's Figure 19. Partials are
    /// combined in contiguous virtual-rank order (virtual rank = rank
    /// rotated so the root is 0), so any *associative* op is safe when
    /// `root == 0`; with a non-zero root the order is rotated, so
    /// non-commutative ops should reduce to root 0 and send.
    pub fn reduce<T: Datatype + Clone>(
        &self,
        root: usize,
        local: &[T],
        op: &dyn ReduceOp<T>,
    ) -> Result<Option<Vec<T>>> {
        let p = self.size();
        if root >= p {
            return Err(Error::RankOutOfRange {
                rank: root,
                size: p,
            });
        }
        let tags = self.start_collective(opcodes::REDUCE, "reduce")?;
        let _phase = self.coll_phase("reduce");
        let me = self.rank();
        let vrank = (me + p - root) % p;
        let mut acc: Vec<T> = local.to_vec();

        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                // Send our accumulated block to the partner covering the
                // block to our left, then leave the tree.
                let dst = (vrank - mask + root) % p;
                self.send_internal(&acc, dst, tags(0))?;
                return Ok(None);
            }
            let src_v = vrank + mask;
            if src_v < p {
                let src = (src_v + root) % p;
                let (incoming, _) = self.recv_internal::<T>(src.into(), tags(0).into())?;
                if incoming.len() != acc.len() {
                    return Err(Error::CountMismatch {
                        expected: acc.len(),
                        found: incoming.len(),
                    });
                }
                // Our block is to the LEFT of the incoming block in
                // virtual-rank order.
                for (a, b) in acc.iter_mut().zip(incoming) {
                    *a = op.combine(a.clone(), b);
                }
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Reduce a single value to `root`.
    pub fn reduce_one<T: Datatype + Clone>(
        &self,
        root: usize,
        local: T,
        op: &dyn ReduceOp<T>,
    ) -> Result<Option<T>> {
        Ok(self
            .reduce(root, std::slice::from_ref(&local), op)?
            .map(|mut v| v.pop().expect("one element in, one out")))
    }

    /// `MPI_Allreduce`: reduce to rank 0, then broadcast — every rank gets
    /// the combined result.
    pub fn allreduce<T: Datatype + Clone>(
        &self,
        local: &[T],
        op: &dyn ReduceOp<T>,
    ) -> Result<Vec<T>> {
        let mut buf = self.reduce(0, local, op)?.unwrap_or_default();
        self.bcast(0, &mut buf)?;
        Ok(buf)
    }

    /// Recursive-doubling allreduce: `⌈lg p⌉` rounds of pairwise exchange,
    /// no root bottleneck. Combine order interleaves blocks, so `op`
    /// should be **commutative** (like `MPI_SUM`, `MPI_MAX`); that is the
    /// trade the classic algorithm makes, and the `mp_collectives` bench
    /// compares it against [`Comm::allreduce`].
    pub fn allreduce_rd<T: Datatype + Clone>(
        &self,
        local: &[T],
        op: &dyn ReduceOp<T>,
    ) -> Result<Vec<T>> {
        let p = self.size();
        let me = self.rank();
        let tags = self.start_collective(opcodes::ALLREDUCE, "allreduce")?;
        let _phase = self.coll_phase("allreduce");
        let mut acc: Vec<T> = local.to_vec();

        // Fold ranks beyond the largest power of two into low partners.
        let pow2 = p.next_power_of_two() / if p.is_power_of_two() { 1 } else { 2 };
        let extra = p - pow2;
        let combine = |acc: &mut Vec<T>, incoming: Vec<T>| -> Result<()> {
            if incoming.len() != acc.len() {
                return Err(Error::CountMismatch {
                    expected: acc.len(),
                    found: incoming.len(),
                });
            }
            for (a, b) in acc.iter_mut().zip(incoming) {
                *a = op.combine(a.clone(), b);
            }
            Ok(())
        };

        if me >= pow2 {
            // Surplus rank: hand partial to (me - pow2), wait for result.
            self.send_internal(&acc, me - pow2, tags(0))?;
            let (result, _) = self.recv_internal::<T>((me - pow2).into(), tags(1).into())?;
            return Ok(result);
        }
        if me < extra {
            let (incoming, _) = self.recv_internal::<T>((me + pow2).into(), tags(0).into())?;
            combine(&mut acc, incoming)?;
        }
        // Butterfly over the pow2 core.
        let mut mask = 1usize;
        let mut round = 2u32;
        while mask < pow2 {
            let partner = me ^ mask;
            self.send_internal(&acc, partner, tags(round))?;
            let (incoming, _) = self.recv_internal::<T>(partner.into(), tags(round).into())?;
            combine(&mut acc, incoming)?;
            mask <<= 1;
            round += 1;
        }
        if me < extra {
            self.send_internal(&acc, me + pow2, tags(1))?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use patternlets_core::reduce::ops;

    #[test]
    fn reduce_matches_paper_figure_24() {
        // Paper Fig. 23/24: 10 processes, each computes (rank+1)^2;
        // sum = 385, max = 100.
        let out = World::run(10, |comm| {
            let square = ((comm.rank() + 1) * (comm.rank() + 1)) as i64;
            let sum = comm.reduce_one(0, square, &ops::Sum).unwrap();
            let max = comm.reduce_one(0, square, &ops::Max).unwrap();
            (sum, max)
        });
        assert_eq!(out[0], (Some(385), Some(100)));
        assert!(out[1..].iter().all(|o| *o == (None, None)));
    }

    #[test]
    fn reduce_elementwise_vectors() {
        let out = World::run(4, |comm| {
            let local = vec![comm.rank() as i64, 10 + comm.rank() as i64];
            comm.reduce(0, &local, &ops::Sum).unwrap()
        });
        assert_eq!(out[0].as_deref(), Some(&[6i64, 46][..]));
    }

    #[test]
    fn reduce_to_every_possible_root() {
        for root in 0..5 {
            let out = World::run(5, |comm| {
                comm.reduce_one(root, comm.rank() as i64 + 1, &ops::Prod)
                    .unwrap()
            });
            for (r, v) in out.iter().enumerate() {
                if r == root {
                    assert_eq!(*v, Some(120));
                } else {
                    assert_eq!(*v, None);
                }
            }
        }
    }

    #[test]
    fn reduce_noncommutative_at_root_zero_preserves_rank_order() {
        let op = ops::FnOp::new(String::new(), |a: String, b: String| a + &b);
        for p in [1, 2, 3, 4, 6, 8] {
            let out = World::run(p, |comm| {
                comm.reduce_one(0, comm.rank().to_string(), &op).unwrap()
            });
            let expected: String = (0..p).map(|r| r.to_string()).collect();
            assert_eq!(out[0].as_deref(), Some(expected.as_str()), "p={p}");
        }
    }

    #[test]
    fn reduce_minloc_finds_owner() {
        // Each rank holds a value; MINLOC finds the min and who had it.
        let values = [7i64, 3, 9, 3, 8];
        let out = World::run(5, |comm| {
            let pair = (values[comm.rank()], comm.rank());
            comm.reduce_one(0, pair, &ops::MinLoc).unwrap()
        });
        assert_eq!(out[0], Some((3, 1)), "ties break to the lower rank");
    }

    #[test]
    fn allreduce_gives_everyone_the_result() {
        for p in [1, 2, 3, 4, 5, 8] {
            let out = World::run(p, |comm| {
                comm.allreduce(&[comm.rank() as i64 + 1], &ops::Sum)
                    .unwrap()[0]
            });
            let expected = (p * (p + 1) / 2) as i64;
            assert!(out.iter().all(|&v| v == expected), "p={p}: {out:?}");
        }
    }

    #[test]
    fn allreduce_rd_matches_allreduce_for_commutative_ops() {
        for p in [1, 2, 3, 4, 5, 6, 7, 8] {
            let out = World::run(p, |comm| {
                let a = comm.allreduce(&[comm.rank() as i64], &ops::Sum).unwrap();
                let b = comm.allreduce_rd(&[comm.rank() as i64], &ops::Sum).unwrap();
                let c = comm.allreduce_rd(&[comm.rank() as i64], &ops::Max).unwrap();
                (a[0], b[0], c[0])
            });
            let sum = (0..p as i64).sum::<i64>();
            let max = p as i64 - 1;
            assert!(
                out.iter()
                    .all(|&(a, b, c)| a == sum && b == sum && c == max),
                "p={p}: {out:?}"
            );
        }
    }

    #[test]
    fn reduce_count_mismatch_detected() {
        let out = World::run(2, |comm| {
            let local: Vec<i64> = vec![0; comm.rank() + 1];
            comm.reduce(0, &local, &ops::Sum)
        });
        assert!(matches!(out[0], Err(Error::CountMismatch { .. })));
    }
}
