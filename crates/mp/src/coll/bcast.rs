//! `MPI_Bcast` — binomial tree (the *Broadcast* pattern, paper §III.E).

use patternlets_core::{Error, Result};

use crate::comm::Comm;
use crate::datatype::{decode_payload, Datatype};
use crate::envelope::{opcodes, Outgoing, Payload};

impl Comm {
    /// Broadcast `buf` from `root` to every rank. On the root, `buf` is the
    /// input; on every other rank it is replaced with the root's data —
    /// the in-place shape of `MPI_Bcast`.
    ///
    /// Binomial tree: `p − 1` messages over `⌈lg p⌉` rounds; interior
    /// ranks forward as soon as they receive.
    pub fn bcast<T: Datatype>(&self, root: usize, buf: &mut Vec<T>) -> Result<()> {
        let p = self.size();
        if root >= p {
            return Err(Error::RankOutOfRange {
                rank: root,
                size: p,
            });
        }
        let tags = self.start_collective(opcodes::BCAST, "bcast")?;
        let _phase = self.coll_phase("bcast");
        let me = self.rank();
        let vrank = (me + p - root) % p;

        // Receive from the parent: the bit position of vrank's lowest set
        // bit names the round in which our subtree was reached. Keep the
        // raw envelope — the payload is forwarded to our children before
        // it is decoded, so one payload travels the whole tree.
        let mut incoming = None;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % p;
                incoming = Some(self.recv_envelope::<T>(parent.into(), tags(0).into())?);
                break;
            }
            mask <<= 1;
        }
        // Forward to children: every bit below our lowest set bit (all
        // bits, for the root). Every child gets a clone of the same
        // payload — a refcount bump in either representation — prepared
        // lazily at the root on the first child (locality is uniform
        // across peers on every backend, so one child is representative).
        let count = incoming.as_ref().map_or(buf.len(), |env| env.count);
        let mut outgoing: Option<Payload> = incoming.as_ref().map(|env| env.payload.clone());
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < p {
                let child = (vrank + mask + root) % p;
                let payload = outgoing
                    .get_or_insert_with(|| self.prepare_payload(buf.as_slice(), child).into_owned())
                    .clone();
                self.send_prepared(
                    Outgoing::Owned(payload),
                    T::TYPE_NAME,
                    count,
                    child,
                    tags(0),
                    false,
                )?;
            }
            mask >>= 1;
        }
        // Decode last (and release our forwarding clone first): a leaf —
        // or an interior rank whose children have already consumed their
        // copies — recovers the vector without copying at all.
        drop(outgoing);
        if let Some(env) = incoming {
            *buf = decode_payload::<T>(env.payload, env.count)?;
        }
        Ok(())
    }

    /// Linear broadcast: the root sends to every rank directly. `p − 1`
    /// messages, all from one sender — the naive algorithm the binomial
    /// tree is measured against in the `mp_collectives` bench.
    pub fn bcast_linear<T: Datatype>(&self, root: usize, buf: &mut Vec<T>) -> Result<()> {
        let p = self.size();
        if root >= p {
            return Err(Error::RankOutOfRange {
                rank: root,
                size: p,
            });
        }
        let tags = self.start_collective(opcodes::BCAST, "bcast")?;
        let _phase = self.coll_phase("bcast");
        if self.rank() == root {
            // One payload, prepared once, cloned per destination.
            let mut outgoing: Option<Payload> = None;
            for r in 0..p {
                if r != root {
                    let payload = outgoing
                        .get_or_insert_with(|| self.prepare_payload(buf.as_slice(), r).into_owned())
                        .clone();
                    self.send_prepared(
                        Outgoing::Owned(payload),
                        T::TYPE_NAME,
                        buf.len(),
                        r,
                        tags(0),
                        false,
                    )?;
                }
            }
        } else {
            let (data, _) = self.recv_internal::<T>(root.into(), tags(0).into())?;
            *buf = data;
        }
        Ok(())
    }

    /// Broadcast a single value from `root`; returns the value everywhere.
    pub fn bcast_one<T: Datatype + Clone>(&self, root: usize, value: Option<T>) -> Result<T> {
        let mut buf = match (self.rank() == root, value) {
            (true, Some(v)) => vec![v],
            (true, None) => {
                return Err(Error::InvalidConfig(
                    "bcast_one: root must supply the value".into(),
                ))
            }
            (false, _) => Vec::new(),
        };
        self.bcast(root, &mut buf)?;
        if buf.len() != 1 {
            return Err(Error::CountMismatch {
                expected: 1,
                found: buf.len(),
            });
        }
        Ok(buf.pop().expect("length checked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn bcast_from_rank_zero() {
        for p in [1, 2, 3, 4, 5, 7, 8] {
            let out = World::run(p, |comm| {
                let mut buf = if comm.rank() == 0 {
                    vec![10i64, 20, 30]
                } else {
                    Vec::new()
                };
                comm.bcast(0, &mut buf).unwrap();
                buf
            });
            assert!(out.iter().all(|b| b == &[10, 20, 30]), "p={p}: {out:?}");
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        for root in 0..5 {
            let out = World::run(5, |comm| {
                let mut buf = if comm.rank() == root {
                    vec![root as u64 * 7]
                } else {
                    Vec::new()
                };
                comm.bcast(root, &mut buf).unwrap();
                buf[0]
            });
            assert!(out.iter().all(|&v| v == root as u64 * 7), "root={root}");
        }
    }

    #[test]
    fn bcast_one_convenience() {
        let out = World::run(4, |comm| {
            let v = if comm.rank() == 2 {
                Some("answer".to_string())
            } else {
                None
            };
            comm.bcast_one(2, v).unwrap()
        });
        assert!(out.iter().all(|s| s == "answer"));
    }

    #[test]
    fn bcast_invalid_root_errors() {
        let out = World::run(2, |comm| comm.bcast(9, &mut vec![0i32]));
        assert!(matches!(out[0], Err(Error::RankOutOfRange { .. })));
        assert!(matches!(out[1], Err(Error::RankOutOfRange { .. })));
    }

    #[test]
    fn successive_bcasts_keep_order() {
        let out = World::run(3, |comm| {
            let mut a = if comm.is_master() {
                vec![1i32]
            } else {
                Vec::new()
            };
            let mut b = if comm.is_master() {
                vec![2i32]
            } else {
                Vec::new()
            };
            comm.bcast(0, &mut a).unwrap();
            comm.bcast(0, &mut b).unwrap();
            (a[0], b[0])
        });
        assert!(out.iter().all(|&x| x == (1, 2)));
    }

    #[test]
    fn linear_and_tree_bcast_agree() {
        for p in [1, 2, 3, 5, 8] {
            let out = World::run(p, |comm| {
                let mut tree = if comm.rank() == 1 % p {
                    vec![7i64, 8]
                } else {
                    Vec::new()
                };
                comm.bcast(1 % p, &mut tree).unwrap();
                let mut lin = if comm.rank() == 1 % p {
                    vec![7i64, 8]
                } else {
                    Vec::new()
                };
                comm.bcast_linear(1 % p, &mut lin).unwrap();
                (tree, lin)
            });
            assert!(
                out.iter().all(|(t, l)| t == &[7, 8] && l == &[7, 8]),
                "p={p}"
            );
        }
    }

    #[test]
    fn bcast_empty_payload() {
        let out = World::run(3, |comm| {
            let mut buf: Vec<i32> = Vec::new();
            comm.bcast(0, &mut buf).unwrap();
            buf.len()
        });
        assert!(out.iter().all(|&n| n == 0));
    }
}
