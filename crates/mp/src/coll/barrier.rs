//! `MPI_Barrier` — dissemination over messages (paper §III.B, Figures
//! 10–12).

use patternlets_core::Result;

use crate::comm::Comm;
use crate::envelope::opcodes;

impl Comm {
    /// Block until every rank of the world has entered the barrier.
    ///
    /// Dissemination: in round `r`, rank `i` sends an empty message to
    /// `(i + 2^r) mod p` and waits for the mirror message from
    /// `(i − 2^r) mod p`; after `⌈lg p⌉` rounds every rank transitively
    /// depends on every other.
    pub fn barrier(&self) -> Result<()> {
        let tags = self.start_collective(opcodes::BARRIER, "barrier")?;
        let _phase = self.coll_phase("barrier");
        let p = self.size();
        let me = self.rank();
        let mut dist = 1;
        let mut round = 0u32;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist) % p;
            self.send_internal::<u8>(&[], to, tags(round))?;
            self.recv_internal::<u8>(from.into(), tags(round).into())?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_separates_phases() {
        // The Figure 12 property: every BEFORE precedes every AFTER.
        for p in [1, 2, 3, 4, 5, 8] {
            let before = AtomicUsize::new(0);
            World::run(p, |comm| {
                before.fetch_add(1, Ordering::SeqCst);
                comm.barrier().unwrap();
                assert_eq!(
                    before.load(Ordering::SeqCst),
                    p,
                    "rank {} passed the barrier before all arrived",
                    comm.rank()
                );
            });
        }
    }

    #[test]
    fn repeated_barriers_do_not_cross_match() {
        let phase = AtomicUsize::new(0);
        World::run(4, |comm| {
            for k in 0..20 {
                comm.barrier().unwrap();
                // The trailing barrier of round k-1 ensured all 4 of its
                // increments landed; our own round-k increment hasn't.
                let seen = phase.load(Ordering::SeqCst);
                assert!(
                    (k * 4..k * 4 + 4).contains(&seen),
                    "phase {seen} outside round-{k} window: barriers cross-matched"
                );
                phase.fetch_add(1, Ordering::SeqCst);
                comm.barrier().unwrap();
            }
        });
        assert_eq!(phase.load(Ordering::SeqCst), 80);
    }

    #[test]
    fn barrier_with_staggered_arrivals() {
        let released = AtomicUsize::new(0);
        World::run(3, |comm| {
            std::thread::sleep(std::time::Duration::from_millis(comm.rank() as u64 * 15));
            comm.barrier().unwrap();
            released.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(released.load(Ordering::SeqCst), 3);
    }
}
