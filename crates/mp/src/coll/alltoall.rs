//! `MPI_Alltoall` — total exchange: rank `i`'s `j`-th block lands in rank
//! `j`'s result at position `i`.

use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::opcodes;

impl Comm {
    /// Total exchange. `sendbuf.len()` must be a multiple of the world
    /// size; block `j` (of `len/p` elements) is sent to rank `j`, and the
    /// result concatenates one block from every rank, in rank order.
    pub fn alltoall<T: Datatype + Clone>(&self, sendbuf: &[T]) -> Result<Vec<T>> {
        let p = self.size();
        if !sendbuf.len().is_multiple_of(p) {
            return Err(Error::CountMismatch {
                expected: sendbuf.len().div_ceil(p) * p,
                found: sendbuf.len(),
            });
        }
        let tags = self.start_collective(opcodes::ALLTOALL, "alltoall")?;
        let _phase = self.coll_phase("alltoall");
        let chunk = sendbuf.len() / p;
        // Eager sends to everyone, including self (the self-send shortcut
        // delivers that block straight into our own mailbox).
        for dst in 0..p {
            self.send_internal(&sendbuf[dst * chunk..(dst + 1) * chunk], dst, tags(0))?;
        }
        let mut out = Vec::with_capacity(sendbuf.len());
        for src in 0..p {
            let (block, _) = self.recv_internal::<T>(src.into(), tags(0).into())?;
            if block.len() != chunk {
                return Err(Error::CountMismatch {
                    expected: chunk,
                    found: block.len(),
                });
            }
            out.extend(block);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn alltoall_transposes_blocks() {
        // Rank i sends value i*10 + j to rank j; rank j ends with
        // [0*10+j, 1*10+j, ...].
        let out = World::run(4, |comm| {
            let send: Vec<i64> = (0..4).map(|j| (comm.rank() * 10 + j) as i64).collect();
            comm.alltoall(&send).unwrap()
        });
        for (j, row) in out.iter().enumerate() {
            let expected: Vec<i64> = (0..4).map(|i| (i * 10 + j) as i64).collect();
            assert_eq!(row, &expected);
        }
    }

    #[test]
    fn alltoall_multiblock() {
        let out = World::run(2, |comm| {
            let r = comm.rank() as i32;
            // Two elements per destination.
            let send = vec![r * 100, r * 100 + 1, r * 100 + 10, r * 100 + 11];
            comm.alltoall(&send).unwrap()
        });
        assert_eq!(out[0], vec![0, 1, 100, 101]);
        assert_eq!(out[1], vec![10, 11, 110, 111]);
    }

    #[test]
    fn alltoall_single_rank_is_identity() {
        let out = World::run(1, |comm| comm.alltoall(&[1i32, 2, 3]).unwrap());
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    #[test]
    fn alltoall_uneven_rejected() {
        let out = World::run(2, |comm| comm.alltoall(&[1i32, 2, 3]));
        assert!(matches!(out[0], Err(Error::CountMismatch { .. })));
    }
}
