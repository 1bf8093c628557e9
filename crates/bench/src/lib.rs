//! Benchmark-harness support crate. The criterion benches live in
//! `benches/`; this library hosts shared workload generators and the
//! summariser behind `bench_smoke`.
pub mod record;
pub mod workloads;
