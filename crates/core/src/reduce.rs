//! The *Reduction* pattern (paper §III.D).
//!
//! Tasks compute local partial results which must be combined into one
//! global result. Combining pairwise up a tree performs the same `t − 1`
//! operations as a sequential fold but finishes in `⌈lg t⌉` parallel steps
//! (paper Fig. 19). This module provides:
//!
//! * [`ReduceOp`] — an associative combining operation with identity,
//!   mirroring OpenMP's `reduction(op:var)` clause operators and MPI's
//!   built-in `MPI_Op`s;
//! * [`ops`] — the built-in operators the paper enumerates for OpenMP
//!   (`+ * - & | ^ && ||`) plus `min`/`max` (which MPI adds), and
//!   [`ops::FnOp`] for user-defined associative operations (supported by
//!   OpenMP ≥ 4.0 and MPI, as the paper notes);
//! * [`tree_fold`] — the pairwise combining tree itself, used by
//!   `patternlets_shmem::TeamCtx::reduce` and by the `mp` collectives.

/// An associative combining operation with an identity element.
///
/// Implementations must be associative — the paper points out MPI requires
/// exactly this of user-defined operations. Commutativity is *not* required:
/// [`tree_fold`] combines adjacent partials only, preserving operand order.
pub trait ReduceOp<T>: Sync {
    /// The identity element (`0` for `+`, `1` for `*`, ...).
    fn identity(&self) -> T;
    /// Combine two values.
    fn combine(&self, a: T, b: T) -> T;
}

/// Combine a slice of partials pairwise up a binary tree, preserving order:
/// round 1 combines `(x0,x1), (x2,x3), …`; round 2 combines the survivors;
/// … until one value remains. Exactly `len − 1` combines in `⌈lg len⌉`
/// rounds — the shape of the paper's Figure 19.
pub fn tree_fold<T: Clone>(op: &dyn ReduceOp<T>, values: &[T]) -> T {
    if values.is_empty() {
        return op.identity();
    }
    let mut level: Vec<T> = values.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.chunks(2);
        for pair in &mut it {
            match pair {
                [a, b] => next.push(op.combine(a.clone(), b.clone())),
                [a] => next.push(a.clone()),
                _ => unreachable!(),
            }
        }
        level = next;
    }
    level.pop().expect("non-empty by construction")
}

/// Sequential left fold — the baseline the reduction tree is compared
/// against (`O(t)` combining time in the paper's analysis).
pub fn seq_fold<T: Clone>(op: &dyn ReduceOp<T>, values: &[T]) -> T {
    values
        .iter()
        .cloned()
        .fold(op.identity(), |acc, v| op.combine(acc, v))
}

/// Built-in reduction operators.
pub mod ops {
    use super::ReduceOp;

    /// Addition (`reduction(+:var)` / `MPI_SUM`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Sum;
    /// Multiplication (`reduction(*:var)` / `MPI_PROD`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Prod;
    /// Minimum (`MPI_MIN`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Min;
    /// Maximum (`MPI_MAX`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Max;
    /// Bitwise and (`reduction(&:var)` / `MPI_BAND`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BitAnd;
    /// Bitwise or (`reduction(|:var)` / `MPI_BOR`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BitOr;
    /// Bitwise xor (`reduction(^:var)` / `MPI_BXOR`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BitXor;
    /// Logical and over `bool` (`reduction(&&:var)` / `MPI_LAND`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LogicalAnd;
    /// Logical or over `bool` (`reduction(||:var)` / `MPI_LOR`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LogicalOr;
    /// Logical xor over `bool` (`MPI_LXOR`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LogicalXor;

    macro_rules! impl_arith {
        ($($t:ty => $zero:expr, $one:expr, $min_id:expr, $max_id:expr;)*) => {$(
            impl ReduceOp<$t> for Sum {
                fn identity(&self) -> $t { $zero }
                fn combine(&self, a: $t, b: $t) -> $t { a + b }
            }
            impl ReduceOp<$t> for Prod {
                fn identity(&self) -> $t { $one }
                fn combine(&self, a: $t, b: $t) -> $t { a * b }
            }
            impl ReduceOp<$t> for Min {
                fn identity(&self) -> $t { $min_id }
                fn combine(&self, a: $t, b: $t) -> $t { if a < b { a } else { b } }
            }
            impl ReduceOp<$t> for Max {
                fn identity(&self) -> $t { $max_id }
                fn combine(&self, a: $t, b: $t) -> $t { if a > b { a } else { b } }
            }
        )*};
    }

    impl_arith! {
        i32 => 0, 1, i32::MAX, i32::MIN;
        i64 => 0, 1, i64::MAX, i64::MIN;
        u32 => 0, 1, u32::MAX, u32::MIN;
        u64 => 0, 1, u64::MAX, u64::MIN;
        usize => 0, 1, usize::MAX, usize::MIN;
        f32 => 0.0, 1.0, f32::INFINITY, f32::NEG_INFINITY;
        f64 => 0.0, 1.0, f64::INFINITY, f64::NEG_INFINITY;
    }

    macro_rules! impl_bits {
        ($($t:ty),*) => {$(
            impl ReduceOp<$t> for BitAnd {
                fn identity(&self) -> $t { !0 }
                fn combine(&self, a: $t, b: $t) -> $t { a & b }
            }
            impl ReduceOp<$t> for BitOr {
                fn identity(&self) -> $t { 0 }
                fn combine(&self, a: $t, b: $t) -> $t { a | b }
            }
            impl ReduceOp<$t> for BitXor {
                fn identity(&self) -> $t { 0 }
                fn combine(&self, a: $t, b: $t) -> $t { a ^ b }
            }
        )*};
    }

    impl_bits!(i32, i64, u32, u64, usize);

    impl ReduceOp<bool> for LogicalAnd {
        fn identity(&self) -> bool {
            true
        }
        fn combine(&self, a: bool, b: bool) -> bool {
            a && b
        }
    }
    impl ReduceOp<bool> for LogicalOr {
        fn identity(&self) -> bool {
            false
        }
        fn combine(&self, a: bool, b: bool) -> bool {
            a || b
        }
    }
    impl ReduceOp<bool> for LogicalXor {
        fn identity(&self) -> bool {
            false
        }
        fn combine(&self, a: bool, b: bool) -> bool {
            a ^ b
        }
    }

    /// `(min_value, index_of_min)` — `MPI_MINLOC`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct MinLoc;
    /// `(max_value, index_of_max)` — `MPI_MAXLOC`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct MaxLoc;

    macro_rules! impl_loc {
        ($($t:ty => $min_id:expr, $max_id:expr;)*) => {$(
            impl ReduceOp<($t, usize)> for MinLoc {
                fn identity(&self) -> ($t, usize) { ($min_id, usize::MAX) }
                fn combine(&self, a: ($t, usize), b: ($t, usize)) -> ($t, usize) {
                    // Ties break toward the lower index, per MPI.
                    if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) { b } else { a }
                }
            }
            impl ReduceOp<($t, usize)> for MaxLoc {
                fn identity(&self) -> ($t, usize) { ($max_id, usize::MAX) }
                fn combine(&self, a: ($t, usize), b: ($t, usize)) -> ($t, usize) {
                    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) { b } else { a }
                }
            }
        )*};
    }

    impl_loc! {
        i32 => i32::MAX, i32::MIN;
        i64 => i64::MAX, i64::MIN;
        f64 => f64::INFINITY, f64::NEG_INFINITY;
    }

    /// A user-defined associative operation, like MPI's `MPI_Op_create` /
    /// OpenMP 4.0's `declare reduction`.
    pub struct FnOp<T, F: Fn(T, T) -> T + Sync> {
        identity: T,
        f: F,
    }

    impl<T: Clone + Sync, F: Fn(T, T) -> T + Sync> FnOp<T, F> {
        /// Wrap `f` (which must be associative) with its identity element.
        pub fn new(identity: T, f: F) -> Self {
            FnOp { identity, f }
        }
    }

    impl<T: Clone + Sync, F: Fn(T, T) -> T + Sync> ReduceOp<T> for FnOp<T, F> {
        fn identity(&self) -> T {
            self.identity.clone()
        }
        fn combine(&self, a: T, b: T) -> T {
            (self.f)(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_figure_19_values() {
        // "…eight tasks, which respectively find 6, 8, 9, 1, 5, 7, 2, and 4
        // red pixels. To solve the problem these intermediate values must be
        // summed" — total is 42.
        let partials = [6i64, 8, 9, 1, 5, 7, 2, 4];
        assert_eq!(tree_fold(&Sum, &partials), 42);
        assert_eq!(seq_fold(&Sum, &partials), 42);
    }

    #[test]
    fn tree_fold_empty_and_singleton() {
        assert_eq!(tree_fold::<i64>(&Sum, &[]), 0);
        assert_eq!(tree_fold(&Sum, &[7i64]), 7);
        assert_eq!(tree_fold::<i64>(&Prod, &[]), 1);
    }

    #[test]
    fn builtin_ops_match_folds() {
        let xs = [3i64, 1, 4, 1, 5, 9, 2, 6, 5];
        assert_eq!(tree_fold(&Sum, &xs), xs.iter().sum::<i64>());
        assert_eq!(tree_fold(&Prod, &xs), xs.iter().product::<i64>());
        assert_eq!(tree_fold(&Min, &xs), 1);
        assert_eq!(tree_fold(&Max, &xs), 9);
        assert_eq!(tree_fold(&BitAnd, &xs), xs.iter().fold(!0, |a, b| a & b));
        assert_eq!(tree_fold(&BitOr, &xs), xs.iter().fold(0, |a, b| a | b));
        assert_eq!(tree_fold(&BitXor, &xs), xs.iter().fold(0, |a, b| a ^ b));
    }

    #[test]
    fn logical_ops() {
        assert!(!tree_fold(&LogicalAnd, &[true, true, false]));
        assert!(tree_fold(&LogicalAnd, &[true, true, true]));
        assert!(tree_fold(&LogicalOr, &[false, false, true]));
        assert!(!tree_fold(&LogicalOr, &[false, false]));
        assert!(tree_fold(&LogicalXor, &[true, false, true, true]));
        assert!(!tree_fold(&LogicalXor, &[true, true]));
    }

    #[test]
    fn minloc_maxloc_find_value_and_location() {
        let vals: Vec<(i64, usize)> = [5i64, 2, 8, 2, 8].iter().copied().zip(0..).collect();
        assert_eq!(tree_fold(&MinLoc, &vals), (2, 1)); // first min wins
        assert_eq!(tree_fold(&MaxLoc, &vals), (8, 2)); // first max wins
    }

    #[test]
    fn fn_op_user_defined() {
        // gcd is associative with identity 0.
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let op = FnOp::new(0u64, gcd);
        assert_eq!(tree_fold(&op, &[12, 18, 24]), 6);
        assert_eq!(seq_fold(&op, &[12, 18, 24]), 6);
    }

    #[test]
    fn tree_fold_preserves_order_for_noncommutative_ops() {
        // String concatenation: associative, NOT commutative.
        let op = FnOp::new(String::new(), |a: String, b: String| a + &b);
        let parts: Vec<String> = "abcdefg".chars().map(|c| c.to_string()).collect();
        assert_eq!(tree_fold(&op, &parts), "abcdefg");
        assert_eq!(seq_fold(&op, &parts), "abcdefg");
    }

    proptest! {
        /// Tree fold equals sequential fold for every associative builtin,
        /// any input length — the paper's claim that the reduction tree
        /// performs the same t−1 additions, just reordered.
        #[test]
        fn tree_equals_seq_sum(xs in proptest::collection::vec(-1000i64..1000, 0..64)) {
            prop_assert_eq!(tree_fold(&Sum, &xs), seq_fold(&Sum, &xs));
            prop_assert_eq!(tree_fold(&Min, &xs), seq_fold(&Min, &xs));
            prop_assert_eq!(tree_fold(&Max, &xs), seq_fold(&Max, &xs));
            prop_assert_eq!(tree_fold(&BitXor, &xs), seq_fold(&BitXor, &xs));
        }

        #[test]
        fn tree_equals_seq_concat(words in proptest::collection::vec("[a-z]{0,4}", 0..32)) {
            let op = FnOp::new(String::new(), |a: String, b: String| a + &b);
            prop_assert_eq!(tree_fold(&op, &words), words.concat());
        }

        /// MinLoc returns an actual (value, index) pair from the input.
        #[test]
        fn minloc_is_sound(xs in proptest::collection::vec(-100i64..100, 1..32)) {
            let pairs: Vec<(i64, usize)> = xs.iter().copied().zip(0..).collect();
            let (v, i) = tree_fold(&MinLoc, &pairs);
            prop_assert_eq!(v, *xs.iter().min().unwrap());
            prop_assert_eq!(xs[i], v);
            // And it is the FIRST minimum.
            prop_assert!(xs[..i].iter().all(|&x| x > v));
        }
    }
}
