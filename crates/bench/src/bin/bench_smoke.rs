//! `bench_smoke [OUT]`: summarise the pbench result files under
//! `.pbench/results/` into `OUT`, by default the next free
//! `BENCH_N.json` in the current directory (the repository root). It runs
//! no workload of its own; see `patternlets_bench::record`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = std::env::args().nth(1).map(PathBuf::from);
    let written = patternlets_bench::record::write(Path::new("."), out);
    match &written {
        Ok(summary) => println!("{summary}"),
        Err(e) => eprintln!("bench_smoke: {e}"),
    }
    ExitCode::from(u8::from(written.is_err()))
}
