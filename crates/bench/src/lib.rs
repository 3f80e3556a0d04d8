//! # jroute-bench — shared helpers for the experiment harness
//!
//! The bench targets (`benches/e*.rs`) regenerate every experiment in
//! DESIGN.md §4 on the in-repo `harness` microbench driver; this small
//! library holds the helpers they share. Each bench prints the
//! experiment's table rows (via `eprintln!`) in addition to the timing
//! output, and writes machine-readable `BENCH_<target>.json` under
//! `target/bench-json/`, so EXPERIMENTS.md can be refreshed by running
//! `cargo bench`.

/// Standard seed for all experiment RNGs (reproducibility).
pub const SEED: u64 = 0x4A52_4F55_5445; // "JROUTE"

/// Worker-count sweep for the scaling experiments (e10/e18/e19/e20),
/// overridable with the `JROUTE_THREADS` environment variable — a
/// comma-separated list, e.g. `JROUTE_THREADS=1,2`. Invalid or zero
/// entries are dropped; an empty or unset override yields `default`.
pub fn thread_counts(default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("JROUTE_THREADS")
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// Format a ratio as `x.yz×`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}
