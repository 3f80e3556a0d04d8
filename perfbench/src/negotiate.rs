//! `negotiate_cliques`: timing-driven negotiated routing of seeded
//! congestion netlists on XCV1000.
//!
//! Why: large maze searches dominate here, over a segment space far
//! larger than cache, and nets must negotiate for shared wires over
//! several iterations. It alone exercises negotiation, `partition`
//! waves, `steiner` trees and criticality; it skips `cores`, the
//! `Router` and `svc`.
//!
//! Set-up generates a pool of netlists and negotiates two untimed. One
//! op negotiates the next netlist of the pool with two workers and
//! programs the result into a fresh bitstream. Negotiation is
//! deterministic, so every repeat of a netlist must reproduce its first
//! result exactly; the count metrics are means over the pool.

use crate::gen;
use crate::measure::Fold;
use crate::{Phase, Run};
use detrand::DetRng;
use jbits::Bitstream;
use jroute::maze::CRIT_ONE;
use jroute::pathfinder::{self, NetSpec, PathFinderConfig, PathFinderResult};
use jroute_obs::Recorder;
use std::collections::HashSet;
use std::time::Instant;
use virtex::{Device, Family};

pub const FAMILY: Family = Family::Xcv1000;
pub const WORKERS: usize = 2;
const NETLISTS: usize = 50;
/// Negotiations per second on the reference box (two cores, x86-64);
/// sizes a run from `--seconds`.
const NETLISTS_PER_SECOND: f64 = 3.5;
/// Netlists negotiated, untimed, at the end of set-up.
const WARM_UP: usize = 2;
const CLIQUES: usize = 10;
const PER_CLIQUE: usize = 12;
const WINDOW: u16 = 10;
const FANOUT_NETS: usize = 12;
const MAX_FANOUT: usize = 10;

/// What one negotiation of a netlist produced; repeats must match.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    iterations: usize,
    expansions: usize,
    frames: usize,
    segments: usize,
    sinks: usize,
    /// Delay of every source-to-sink connection, in ps.
    delays_ps: Vec<u64>,
}

fn config() -> PathFinderConfig {
    PathFinderConfig {
        threads: WORKERS,
        ..PathFinderConfig::timing_driven()
    }
}

/// Negotiate `specs`, then program the result into a fresh bitstream.
fn negotiate(
    dev: &Device,
    specs: &[NetSpec],
    cfg: &PathFinderConfig,
    rec: &Recorder,
) -> Result<(PathFinderResult, Bitstream), jroute::RouteError> {
    let result = {
        let _s = rec.span("core.pathfinder.route_all");
        pathfinder::route_all_obs(dev, specs, cfg, rec)?
    };
    let _s = rec.span("jbits.apply");
    let mut bits = Bitstream::new(dev);
    pathfinder::apply(&result, &mut bits)?;
    Ok((result, bits))
}

/// Read the programmed nets back: every net must reach each of its
/// sinks and no segment may have two drivers.
fn check(dev: &Device, result: &PathFinderResult, bits: &Bitstream) -> Result<Outcome, String> {
    if !result.legal {
        return Err(format!("not legal: {} segments overused", result.overused));
    }
    let mut driven = HashSet::new();
    let (mut segments, mut sinks, mut delays_ps) = (0, 0, Vec::new());
    for net in &result.nets {
        let src = dev
            .canonicalize(net.spec.source.rc, net.spec.source.wire)
            .ok_or("source wire missing")?;
        let reached: HashSet<_> = jroute::trace::trace(bits, src).sinks.into_iter().collect();
        if let Some(miss) = net.spec.sinks.iter().find(|s| !reached.contains(s)) {
            return Err(format!(
                "net from {:?} misses sink {miss:?}",
                net.spec.source
            ));
        }
        for &seg in &net.segments {
            if !driven.insert(seg) || bits.segment_drivers(seg).len() != 1 {
                return Err(format!("segment {seg:?} is driven twice"));
            }
        }
        segments += net.segments.len();
        sinks += net.spec.sinks.len();
        let timing = jroute_timing::analyze_net(bits, src);
        delays_ps.extend(timing.sink_delays.iter().map(|&(_, ps)| ps));
    }
    Ok(Outcome {
        iterations: result.iterations,
        expansions: result.nodes_expanded,
        frames: bits.frames().dirty_count(),
        segments,
        sinks,
        delays_ps,
    })
}

/// Set up `setups` times, then negotiate pool netlists for `seconds`.
pub fn run(seed: u64, seconds: f64, setups: usize, rec: &Recorder, min_ops: usize) -> Run {
    let dev = Device::new(FAMILY);
    let cfg = config();
    let mut run = Run::default();
    let mut pool = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        let mut rng = DetRng::seed_from_u64(seed);
        pool = (0..NETLISTS)
            .map(|_| {
                gen::clique_netlist(
                    &dev,
                    CLIQUES,
                    PER_CLIQUE,
                    WINDOW,
                    FANOUT_NETS,
                    MAX_FANOUT,
                    &mut rng,
                )
            })
            .collect();
        for specs in &pool[..WARM_UP] {
            negotiate(&dev, specs, &cfg, &Recorder::disabled()).expect("warm-up negotiation");
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut first: Vec<Option<Outcome>> = vec![None; NETLISTS];
    let mut fold = Fold::default();
    let mut expansions = 0;
    let mut phase = Phase::start();
    for op in 0..crate::ops_for(seconds, NETLISTS_PER_SECOND, NETLISTS.max(min_ops)) {
        let i = op % NETLISTS;
        let t = Instant::now();
        let r = {
            let _op = rec.span_root("bench.op");
            negotiate(&dev, &pool[i], &cfg, rec)
        };
        let dt = t.elapsed();
        // The check, and dropping the result and its bitstream, stay out
        // of the phase's wall time.
        let checked = phase.untimed(|| {
            r.map_err(|e| e.to_string())
                .and_then(|(res, bits)| check(&dev, &res, &bits))
        });
        let ok = match checked {
            Ok(out) => {
                expansions += out.expansions;
                match &first[i] {
                    None => {
                        first[i] = Some(out);
                        true
                    }
                    Some(prev) if *prev == out => true,
                    Some(prev) => {
                        run.problems.push(format!(
                            "netlist {i} repeated differently: {prev:?} then {out:?}"
                        ));
                        false
                    }
                }
            }
            Err(e) => {
                run.problems.push(format!("netlist {i}: {e}"));
                false
            }
        };
        phase.record(dt, ok);
        if rec.is_enabled() {
            phase.untimed(|| fold.drain(rec));
        }
    }
    run.add_phase(phase);

    let outs: Vec<&Outcome> = first.iter().flatten().collect();
    if outs.len() < NETLISTS {
        run.problems
            .push(format!("only {} of {NETLISTS} netlists routed", outs.len()));
    }
    let n = outs.len().max(1) as f64;
    let sum = |f: fn(&Outcome) -> usize| outs.iter().map(|o| f(o)).sum::<usize>() as f64;
    run.frames_per_op = sum(|o| o.frames) / n;
    run.segments_per_sink = sum(|o| o.segments) / sum(|o| o.sinks).max(1.0);
    run.crit_path_ns = crate::measure::critical_tail_ns(
        outs.iter()
            .flat_map(|o| o.delays_ps.iter().copied())
            .collect(),
    );

    if rec.is_enabled() {
        let ops = run.op_ms.len() as f64;
        let per_op = |name: &str| fold.counter(name) as f64 / ops;
        let ms_per_op = |name: &str| fold.total_ns(name) as f64 / 1e6 / ops;
        let route_all_ns = fold.total_ns("core.pathfinder.route_all");
        run.layer("jbits.apply_ms", ms_per_op("jbits.apply"), "ms");
        run.layer(
            "core.pathfinder.route_all_ms",
            ms_per_op("core.pathfinder.route_all"),
            "ms",
        );
        run.layer(
            "core.pathfinder.iterations",
            sum(|o| o.iterations) / n,
            "count",
        );
        run.layer(
            "core.pathfinder.nets_rerouted_per_op",
            per_op("pathfinder.nets_rerouted"),
            "count",
        );
        run.layer(
            "core.partition.waves_per_op",
            per_op("pathfinder.waves"),
            "count",
        );
        run.layer(
            "core.partition.conflicts_per_op",
            per_op("pathfinder.partition_conflicts"),
            "count",
        );
        run.layer(
            "core.steiner.builds_per_op",
            per_op("steiner.builds"),
            "count",
        );
        run.layer(
            "core.steiner.win_share",
            fold.counter("steiner.wins") as f64 / fold.counter("steiner.builds").max(1) as f64,
            "fraction",
        );
        // The gauge holds each negotiation's last p99; summed over the
        // per-op drains it averages over ops.
        run.layer(
            "timing.crit_p99",
            per_op("pathfinder.crit_p99") / f64::from(CRIT_ONE),
            "fraction",
        );
        run.layer(
            "core.maze.pushes_per_expansion",
            fold.counter("maze.open_pushes") as f64 / fold.counter("maze.open_pops").max(1) as f64,
            "ratio",
        );
        run.maze_layers("negotiate_cliques", &fold, expansions as u64, route_all_ns);
        run.dropped_spans = fold.dropped;
    }
    run
}
