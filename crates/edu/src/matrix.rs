//! The CS2 closed-lab `Matrix` class (paper §IV.A, Tuesday).
//!
//! Students time sequential matrix addition and transpose, parallelize
//! them with OpenMP, and chart time against thread count. This is that
//! artifact: a dense row-major matrix with sequential and team-parallel
//! addition and transpose (parallelized over rows with the static-block
//! schedule, exactly what `#pragma omp parallel for` does to the outer
//! loop).

use patternlets_shmem::sched::Schedule;
use patternlets_shmem::Team;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A rows×cols matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    // -- the lab's four operations ---------------------------------------

    /// Sequential elementwise addition (the lab's step a).
    pub fn add_sequential(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Parallel addition over a team of `tasks` threads (step b): rows are
    /// divided in equal blocks; each thread produces its block, and the
    /// blocks are stitched in thread order.
    pub fn add_parallel(&self, other: &Matrix, tasks: usize) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let blocks = Team::new(tasks).parallel_map(|ctx| {
            let mut local = Vec::new();
            ctx.for_each_nowait(self.rows, Schedule::StaticBlock, |r| {
                let base = r * self.cols;
                local.extend(
                    self.data[base..base + self.cols]
                        .iter()
                        .zip(&other.data[base..base + self.cols])
                        .map(|(a, b)| a + b),
                );
            });
            local
        });
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: blocks.concat(),
        }
    }

    /// Sequential transpose.
    pub fn transpose_sequential(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Parallel transpose over output rows.
    pub fn transpose_parallel(&self, tasks: usize) -> Matrix {
        let out_rows = self.cols;
        let blocks = Team::new(tasks).parallel_map(|ctx| {
            let mut local = Vec::new();
            ctx.for_each_nowait(out_rows, Schedule::StaticBlock, |out_r| {
                for out_c in 0..self.rows {
                    local.push(self.get(out_c, out_r));
                }
            });
            local
        });
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data: blocks.concat(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| (i * 31 + j * 7) as f64 % 13.0)
    }

    #[test]
    fn parallel_add_matches_sequential() {
        let a = sample(37, 23);
        let b = Matrix::from_fn(37, 23, |i, j| (i + j) as f64);
        let seq = a.add_sequential(&b);
        for tasks in [1, 2, 4, 8] {
            assert_eq!(a.add_parallel(&b, tasks), seq, "tasks={tasks}");
        }
    }

    #[test]
    fn parallel_transpose_matches_sequential() {
        let a = sample(19, 41);
        let seq = a.transpose_sequential();
        for tasks in [1, 3, 5] {
            assert_eq!(a.transpose_parallel(tasks), seq, "tasks={tasks}");
        }
        assert_eq!(seq.rows(), 41);
        assert_eq!(seq.cols(), 19);
    }

    #[test]
    fn transpose_is_an_involution() {
        let a = sample(12, 8);
        assert_eq!(a.transpose_sequential().transpose_sequential(), a);
        assert_eq!(a.transpose_parallel(4).transpose_parallel(4), a);
    }

    #[test]
    fn addition_values_are_elementwise() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 3, |_, _| 1.0);
        let c = a.add_parallel(&b, 2);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), (i * 3 + j) as f64 + 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = sample(2, 3).add_sequential(&sample(3, 2));
    }

    #[test]
    fn more_tasks_than_rows() {
        let a = sample(3, 4);
        let b = sample(3, 4);
        assert_eq!(a.add_parallel(&b, 16), a.add_sequential(&b));
    }

    proptest! {
        #[test]
        fn parallel_ops_agree_with_sequential_for_any_shape(
            rows in 1usize..24,
            cols in 1usize..24,
            tasks in 1usize..7,
        ) {
            let a = sample(rows, cols);
            let b = Matrix::from_fn(rows, cols, |i, j| (i as f64) - (j as f64));
            prop_assert_eq!(a.add_parallel(&b, tasks), a.add_sequential(&b));
            prop_assert_eq!(a.transpose_parallel(tasks), a.transpose_sequential());
        }
    }
}
