//! `MPI_Scan` / `MPI_Exscan` — prefix reductions across ranks.

use patternlets_core::reduce::ReduceOp;
use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::opcodes;

impl Comm {
    /// Inclusive prefix reduction: rank `i` receives
    /// `op(local_0, …, local_i)`, elementwise. Linear chain (`p − 1`
    /// messages), preserving rank order for non-commutative ops.
    pub fn scan<T: Datatype + Clone>(&self, local: &[T], op: &dyn ReduceOp<T>) -> Result<Vec<T>> {
        let tags = self.start_collective(opcodes::SCAN, "scan")?;
        let _phase = self.coll_phase("scan");
        let me = self.rank();
        let p = self.size();
        let mut acc: Vec<T> = local.to_vec();
        if me > 0 {
            let (prefix, _) = self.recv_internal::<T>((me - 1).into(), tags(0).into())?;
            if prefix.len() != acc.len() {
                return Err(Error::CountMismatch {
                    expected: acc.len(),
                    found: prefix.len(),
                });
            }
            for (a, pfx) in acc.iter_mut().zip(prefix) {
                *a = op.combine(pfx, a.clone());
            }
        }
        if me + 1 < p {
            self.send_internal(&acc, me + 1, tags(0))?;
        }
        Ok(acc)
    }

    /// Exclusive prefix reduction: rank 0 gets `None`; rank `i > 0` gets
    /// `op(local_0, …, local_{i−1})`.
    pub fn exscan<T: Datatype + Clone>(
        &self,
        local: &[T],
        op: &dyn ReduceOp<T>,
    ) -> Result<Option<Vec<T>>> {
        let tags = self.start_collective(opcodes::SCAN, "exscan")?;
        let _phase = self.coll_phase("exscan");
        let me = self.rank();
        let p = self.size();
        let prefix: Option<Vec<T>> = if me > 0 {
            let (pfx, _) = self.recv_internal::<T>((me - 1).into(), tags(0).into())?;
            Some(pfx)
        } else {
            None
        };
        if me + 1 < p {
            // Forward prefix ⊕ local.
            let mut next: Vec<T> = local.to_vec();
            if let Some(pfx) = &prefix {
                if pfx.len() != next.len() {
                    return Err(Error::CountMismatch {
                        expected: next.len(),
                        found: pfx.len(),
                    });
                }
                for (n, pfx_v) in next.iter_mut().zip(pfx.iter().cloned()) {
                    *n = op.combine(pfx_v, n.clone());
                }
            }
            self.send_internal(&next, me + 1, tags(0))?;
        }
        Ok(prefix)
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;
    use patternlets_core::reduce::ops;

    #[test]
    fn inclusive_scan_of_ranks() {
        let out = World::run(5, |comm| {
            comm.scan(&[comm.rank() as i64 + 1], &ops::Sum).unwrap()[0]
        });
        assert_eq!(out, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn exclusive_scan_of_ranks() {
        let out = World::run(5, |comm| {
            comm.exscan(&[comm.rank() as i64 + 1], &ops::Sum)
                .unwrap()
                .map(|v| v[0])
        });
        assert_eq!(out, vec![None, Some(1), Some(3), Some(6), Some(10)]);
    }

    #[test]
    fn scan_preserves_order_for_noncommutative() {
        let op = ops::FnOp::new(String::new(), |a: String, b: String| a + &b);
        let out = World::run(4, |comm| {
            comm.scan(&[comm.rank().to_string()], &op)
                .unwrap()
                .pop()
                .unwrap()
        });
        assert_eq!(out, vec!["0", "01", "012", "0123"]);
    }

    #[test]
    fn scan_single_rank() {
        let out = World::run(1, |comm| comm.scan(&[9i64], &ops::Sum).unwrap()[0]);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn scan_elementwise() {
        let out = World::run(3, |comm| {
            let r = comm.rank() as i64;
            comm.scan(&[r, 10 * r], &ops::Sum).unwrap()
        });
        assert_eq!(out[2], vec![3, 30]);
    }
}
