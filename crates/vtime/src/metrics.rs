//! Parallel performance metrics: speedup, efficiency, Karp–Flatt.

/// Speedup `S(p) = T₁ / Tₚ`.
pub fn speedup(t1: f64, tp: f64) -> f64 {
    assert!(t1 > 0.0 && tp > 0.0, "times must be positive");
    t1 / tp
}

/// Efficiency `E(p) = S(p) / p`.
pub fn efficiency(t1: f64, tp: f64, p: usize) -> f64 {
    assert!(p > 0);
    speedup(t1, tp) / p as f64
}

/// Karp–Flatt experimentally determined serial fraction:
/// `e = (1/S − 1/p) / (1 − 1/p)`. Undefined for `p == 1`.
pub fn karp_flatt(t1: f64, tp: f64, p: usize) -> f64 {
    assert!(p > 1, "Karp–Flatt needs p > 1");
    let s = speedup(t1, tp);
    let p = p as f64;
    (1.0 / s - 1.0 / p) / (1.0 - 1.0 / p)
}

/// A row of a speedup table: the CS2 lab's spreadsheet chart (paper
/// §IV.A step d) in data form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Thread/processor count.
    pub p: usize,
    /// Measured or simulated time.
    pub time: f64,
    /// Speedup relative to the 1-processor time.
    pub speedup: f64,
    /// Efficiency.
    pub efficiency: f64,
}

/// Build a scaling table from `(p, time)` measurements. The `p == 1` entry
/// is the baseline and must be present.
pub fn scaling_table(measurements: &[(usize, f64)]) -> Vec<ScalingPoint> {
    let t1 = measurements
        .iter()
        .find(|&&(p, _)| p == 1)
        .map(|&(_, t)| t)
        .expect("scaling table needs a p=1 baseline");
    measurements
        .iter()
        .map(|&(p, time)| ScalingPoint {
            p,
            time,
            speedup: speedup(t1, time),
            efficiency: efficiency(t1, time, p),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_scaling() {
        assert!((speedup(8.0, 2.0) - 4.0).abs() < 1e-12);
        assert!((efficiency(8.0, 2.0, 4) - 1.0).abs() < 1e-12);
        // Perfect scaling → zero experimental serial fraction.
        assert!(karp_flatt(8.0, 2.0, 4).abs() < 1e-12);
    }

    #[test]
    fn no_scaling_karp_flatt_is_one() {
        // Tp == T1 → serial fraction 1.
        assert!((karp_flatt(5.0, 5.0, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_table_builds_from_measurements() {
        let table = scaling_table(&[(1, 10.0), (2, 6.0), (4, 4.0)]);
        assert_eq!(table.len(), 3);
        assert!((table[1].speedup - 10.0 / 6.0).abs() < 1e-12);
        assert!((table[2].efficiency - (10.0 / 4.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p=1 baseline")]
    fn scaling_table_requires_baseline() {
        scaling_table(&[(2, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_time_rejected() {
        speedup(1.0, 0.0);
    }
}
