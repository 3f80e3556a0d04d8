//! The JRoute benchmark: end-to-end metrics of three workloads, and a
//! traced run that splits them by layer. See `perfbench/README.md`.
//!
//! ```text
//! jroute-perfbench [--workload <rtr_swap|negotiate_cliques|server_bursts>]
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the named workload with tracing off and
//! reports the end-to-end metrics. With `--trace 1` it runs every
//! workload on the same seed twice, untraced and then traced, and
//! reports the per-layer metrics; `--workload` may then be left out and
//! is ignored. The last line of standard output is
//! one JSON object with the result.

mod gen;
mod measure;
mod negotiate;
mod rtr_swap;
mod server;

use jroute_obs::Recorder;
use measure::{median, quantile, CountingAlloc, Fold};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["rtr_swap", "negotiate_cliques", "server_bursts"];
/// Ops an end-to-end run times at least: `op_p90_ms` then has at least
/// ten samples above it.
const MIN_OPS: usize = 100;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops each phase of the traced run times at least.
const TRACE_MIN_OPS: usize = 24;

/// The number of ops a phase times: `seconds` worth at `per_second`, the
/// workload's rate on the reference box, and at least `min_ops`. The
/// count is fixed before the phase starts, never read off the clock, so
/// every run of a seed does the same work on any machine.
pub fn ops_for(seconds: f64, per_second: f64, min_ops: usize) -> usize {
    ((seconds * per_second).round() as usize).max(min_ops)
}

/// A timed phase: the latency of each op, the ops that failed, and the
/// wall time, less what the output checks between ops took.
pub struct Phase {
    start: Instant,
    untimed: Duration,
    op_ms: Vec<f64>,
    failed: u64,
}

impl Phase {
    pub fn start() -> Self {
        Phase {
            start: Instant::now(),
            untimed: Duration::ZERO,
            op_ms: Vec::new(),
            failed: 0,
        }
    }

    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    pub fn record(&mut self, took: Duration, ok: bool) {
        self.op_ms.push(took.as_secs_f64() * 1e3);
        if !ok {
            self.failed += 1;
        }
    }

    /// Run `f`, an output check, and keep its time out of the phase's
    /// wall time.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.untimed += t.elapsed();
        out
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The latency of every timed op.
    pub op_ms: Vec<f64>,
    /// The samples `op_p50_ms` and `op_p90_ms` are taken over when they
    /// are not `op_ms`: on rtr_swap, each op's fastest repeat.
    pub best_ms: Option<Vec<f64>>,
    pub wall_s: f64,
    pub failed: u64,
    /// Output checks that failed (empty when the outputs are correct).
    pub problems: Vec<String>,
    pub segments_per_sink: f64,
    pub crit_path_ns: f64,
    pub frames_per_op: f64,
    /// Per-layer metrics of a traced run: `(name, value, unit)`.
    pub layers: Vec<(String, f64, &'static str)>,
    pub dropped_spans: u64,
}

impl Run {
    /// Add a finished phase's ops and wall time to the run.
    pub fn add_phase(&mut self, phase: Phase) {
        self.wall_s += (phase.start.elapsed() - phase.untimed).as_secs_f64();
        self.failed += phase.failed;
        self.op_ms.extend(phase.op_ms);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    /// The maze metrics every workload reports: `expansions` nodes were
    /// expanded inside public calls that took `enclosing_ns` in total.
    pub fn maze_layers(&mut self, workload: &str, fold: &Fold, expansions: u64, enclosing_ns: u64) {
        let ops = self.op_ms.len() as f64;
        self.layer(
            format!("core.maze.expansions_per_op.{workload}"),
            expansions as f64 / ops,
            "count",
        );
        self.layer(
            format!("core.maze.ns_per_expansion.{workload}"),
            enclosing_ns as f64 / expansions.max(1) as f64,
            "ns",
        );
        self.layer(
            format!("core.maze.self_ms_per_op.{workload}"),
            fold.self_ns("maze.search") as f64 / 1e6 / ops,
            "ms",
        );
    }

    /// The latency samples the op quantiles are taken over.
    fn latency_ms(&self) -> Vec<f64> {
        self.best_ms.clone().unwrap_or_else(|| self.op_ms.clone())
    }
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    setups: usize,
    rec: &Recorder,
    min_ops: usize,
) -> Run {
    match name {
        "rtr_swap" => rtr_swap::run(seed, seconds, setups, rec, min_ops),
        "negotiate_cliques" => negotiate::run(seed, seconds, setups, rec, min_ops),
        "server_bursts" => server::run(seed, seconds, setups, rec, min_ops),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

struct Args {
    /// `None` with `--trace 1`, which runs every workload.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = trace.ok_or("--trace is required")?;
    if !trace && workload.is_none() {
        return Err("--workload is required with --trace 0".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn header(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"available_parallelism\": {cores}, \"git_revision\": \"{}\", \"seed\": {}, \
         \"workload\": \"{}\", \"trace\": {}, \"seconds\": {}, \
         \"families\": {{\"rtr_swap\": \"{}\", \"negotiate_cliques\": \"{}\", \"server_bursts\": \"{}\"}}, \
         \"workers\": {{\"negotiate_cliques\": {}, \"server_pool\": {}, \"server_tenant_threads\": {}, \
         \"server_tenants\": {}, \"client_threads\": 1}}}}",
        git_revision(),
        args.seed,
        // `--trace 1` runs every workload, whichever one is named.
        match (&args.workload, args.trace) {
            (Some(w), false) => w.as_str(),
            _ => "all",
        },
        u8::from(args.trace),
        args.seconds,
        rtr_swap::FAMILY.name(),
        negotiate::FAMILY.name(),
        server::FAMILY.name(),
        negotiate::WORKERS,
        server::POOL_WIDTH,
        server::TENANT_THREADS,
        server::TENANTS,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: [--workload <{}>] --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("run header: {}", header(&args));

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    if let (false, Some(w)) = (args.trace, &args.workload) {
        let r = run_workload(
            w,
            args.seed,
            args.seconds,
            SETUPS,
            &Recorder::disabled(),
            MIN_OPS,
        );
        let ops = r.op_ms.len();
        println!("{w}: {ops} ops timed, {} failed", r.failed);
        attempted += ops as u64;
        failed += r.failed;
        problems.extend(r.problems.iter().map(|p| format!("{w}: {p}")));
        let mut op_ms = r.latency_ms();
        metrics = vec![
            ("setup_s".into(), median(&mut r.setup_s.clone()), "s"),
            ("op_p50_ms".into(), quantile(&mut op_ms, 0.5), "ms"),
            ("op_p90_ms".into(), quantile(&mut op_ms, 0.9), "ms"),
            ("ops_per_s".into(), ops as f64 / r.wall_s, "1/s"),
            (
                "peak_heap_mb".into(),
                measure::peak_heap_bytes() as f64 / 1e6,
                "MB",
            ),
            ("segments_per_sink".into(), r.segments_per_sink, "count"),
            ("crit_path_ns".into(), r.crit_path_ns, "ns"),
            ("frames_per_op".into(), r.frames_per_op, "count"),
        ];
    } else {
        // Every workload (whatever `--workload` names), each untraced and
        // then traced, sized for a sixth of the run; the difference of
        // the two is the tracing overhead. One set-up each: the traced
        // run reports no set-up time.
        let each = args.seconds / 6.0;
        for w in WORKLOADS {
            let plain = run_workload(w, args.seed, each, 1, &Recorder::disabled(), TRACE_MIN_OPS);
            let traced = run_workload(w, args.seed, each, 1, &Recorder::enabled(), TRACE_MIN_OPS);
            println!(
                "{w}: {} untraced and {} traced ops, {} spans shed",
                plain.op_ms.len(),
                traced.op_ms.len(),
                traced.dropped_spans
            );
            for r in [&plain, &traced] {
                attempted += r.op_ms.len() as u64;
                failed += r.failed;
                problems.extend(r.problems.iter().map(|p| format!("{w}: {p}")));
            }
            if traced.dropped_spans > 0 {
                problems.push(format!(
                    "{w}: {} spans shed before the fold",
                    traced.dropped_spans
                ));
            }
            metrics.extend(traced.layers.iter().cloned());
            metrics.push((
                format!("obs.overhead_pct.{w}"),
                (median(&mut traced.latency_ms()) / median(&mut plain.latency_ms()) - 1.0) * 100.0,
                "%",
            ));
        }
    }

    for (name, value, unit) in &metrics {
        println!("{name:<48} {value:>16.6} {unit}");
    }
    for p in &problems {
        println!("check failed: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
