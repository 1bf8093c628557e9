//! Shared workload generators for the figure-regeneration benches.

use patternlets_mp::Comm;

/// Round trips per world in [`pingpong`]: enough to amortise the world's
/// thread spawns.
pub const ROUNDS: usize = 32;

/// Rank 0 sends `size` bytes to rank 1 and waits for them to come back,
/// [`ROUNDS`] times.
pub fn pingpong(comm: &Comm, size: usize) {
    let buf = vec![7u8; size];
    for _ in 0..ROUNDS {
        if comm.rank() == 0 {
            comm.send(&buf, 1, 1).unwrap();
            std::hint::black_box(comm.recv::<u8>(1, 2).unwrap());
        } else {
            let (data, _) = comm.recv::<u8>(0, 1).unwrap();
            comm.send(&data, 0, 2).unwrap();
        }
    }
}

/// The paper's Fig. 20 array: `SIZE` values in `0..1000`.
pub fn reduction_array(size: usize, seed: u64) -> Vec<i64> {
    use patternlets_core::rng::{fill_mod, Xoshiro256StarStar};
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let mut a = vec![0i64; size];
    fill_mod(&mut rng, &mut a, 1000);
    a
}

/// A skewed per-iteration cost profile (iteration i costs ~i units), used
/// by the loop-schedule ablation to show why dynamic/guided exist.
pub fn skewed_costs(len: usize) -> Vec<u64> {
    (0..len as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_array_is_reproducible_and_bounded() {
        let a = reduction_array(1000, 42);
        let b = reduction_array(1000, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0..1000).contains(&x)));
    }

    #[test]
    fn skewed_costs_are_increasing() {
        let c = skewed_costs(10);
        assert_eq!(c, (0..10u64).collect::<Vec<_>>());
    }
}
