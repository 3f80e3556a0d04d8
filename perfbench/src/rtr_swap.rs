//! `rtr_swap`: run-time core swaps on a routed XCV1000 (paper §3.3).
//!
//! Why: this is the paper's headline use, replacing or moving a core
//! while the rest of the design keeps running. It is the only workload
//! that runs `cores`, the router's templates, ports, unroute and trace,
//! and `jbits` writes. Its maze searches are many and small; it never
//! enters `pathfinder` or `svc`.
//!
//! Set-up routes a static design: background nets in the east half of
//! the device, and stimulus -> constant multiplier -> constant adder
//! pipelines in the west half joined by bus routes. One op is one swap:
//! either a multiplier gets a new constant (detach, remove, set the
//! constant, implement) or an adder moves to a free column of its band
//! (detach, remove, move, implement). The op then traces the port nets
//! that were re-made and takes the dirty configuration frames.
//!
//! Swaps come in rounds that end in the configuration they began with,
//! so every round of a design repeats the same work. A run keeps several
//! designs and runs their rounds in turn.

use crate::gen::{PinPool, Region};
use crate::measure::Fold;
use crate::{Phase, Run};
use detrand::DetRng;
use jbits::readback::Snapshot;
use jroute::{EndPoint, Pin, PortId, RouteError, Router, RouterStats};
use jroute_cores::{detach, ConstAdder, ConstMultiplier, RtpCore, StimulusBank};
use jroute_obs::Recorder;
use std::time::Instant;
use virtex::{Device, Family, RowCol};
use vsim::{LogicSource, Simulator};

pub const FAMILY: Family = Family::Xcv1000;
const BACKGROUND_NETS: usize = 800;
const BACKGROUND_MAX_FANOUT: usize = 4;
const BACKGROUND_SPAN: u16 = 6;
const BACKGROUND_SEARCH_NODES: usize = 20_000;
const PIPELINES: usize = 8;
/// Each pipeline owns a band of rows; its adder moves among these
/// columns of the band.
const BAND_ROWS: u16 = 8;
const STIM_COL: u16 = 2;
const MUL_COL: u16 = 6;
const ADDER_COLS: std::ops::Range<u16> = 12..24;
const ADDER_WIDTH: usize = 8;
/// Random swaps per round, before the swaps back.
const ROUND_SWAPS: usize = 200;
/// Independent designs per run, each with its own round: the op cost
/// depends on the placement a seed draws, so a run averages several.
const DESIGNS: usize = 6;
/// Swaps per second on the reference box (two cores, x86-64); sizes a
/// run from `--seconds`.
const SWAPS_PER_SECOND: f64 = 400.0;

struct Pipeline {
    stim: StimulusBank,
    mul: ConstMultiplier,
    adder: ConstAdder,
    row: u16,
}

/// One run-time swap.
#[derive(Debug, Clone, Copy)]
enum Swap {
    Constant { pipe: usize, k: u8 },
    Relocate { pipe: usize, col: u16 },
}

struct Design {
    router: Router,
    pipes: Vec<Pipeline>,
    rng: DetRng,
}

fn ports(ids: &[PortId]) -> Vec<EndPoint> {
    ids.iter().map(|&p| p.into()).collect()
}

impl Design {
    /// Route the static design; returns it with the time `Router::new`
    /// took.
    fn build(seed: u64) -> Result<(Design, f64), RouteError> {
        let dev = Device::new(FAMILY);
        let mut rng = DetRng::seed_from_u64(seed);
        let t = Instant::now();
        let mut router = Router::new(&dev);
        let new_s = t.elapsed().as_secs_f64();
        router.set_recorder(Recorder::disabled());
        let dims = dev.dims();
        let east = Region {
            rows: (0, dims.rows),
            cols: (dims.cols / 2, dims.cols),
        };
        // The background is scenery, not an op: a net the greedy router
        // cannot fit past the nets before it, within a small search
        // budget, is taken back and redrawn.
        let budget = router.options().max_maze_nodes;
        router.options_mut().max_maze_nodes = BACKGROUND_SEARCH_NODES;
        let mut pool = PinPool::default();
        let mut routed = 0;
        while routed < BACKGROUND_NETS {
            let fanout = rng.gen_range(1..=BACKGROUND_MAX_FANOUT);
            let spec = pool.net(east, fanout, BACKGROUND_SPAN, &mut rng);
            let source: EndPoint = spec.source.into();
            let sinks: Vec<EndPoint> = spec.sinks.iter().map(|&p| p.into()).collect();
            match router.route_fanout(&source, &sinks) {
                Ok(()) => routed += 1,
                Err(RouteError::Unroutable { .. }) => {
                    match router.unroute(&source) {
                        Ok(_) | Err(RouteError::NoSuchNet { .. }) => {}
                        Err(e) => return Err(e),
                    }
                    pool.release(&spec);
                }
                Err(e) => return Err(e),
            }
        }
        router.options_mut().max_maze_nodes = budget;
        let mut pipes = Vec::with_capacity(PIPELINES);
        for i in 0..PIPELINES {
            let row = BAND_ROWS * i as u16;
            let k = rng.gen_range(1..16u8);
            let c = rng.gen_range(0..256u64);
            let col = rng.gen_range(ADDER_COLS);
            let mut p = Pipeline {
                stim: StimulusBank::new(4, RowCol::new(row, STIM_COL)),
                mul: ConstMultiplier::new(k, 8, RowCol::new(row, MUL_COL)),
                adder: ConstAdder::new(ADDER_WIDTH, c, RowCol::new(row, col)),
                row,
            };
            p.stim.implement(&mut router)?;
            p.mul.implement(&mut router)?;
            p.adder.implement(&mut router)?;
            router.route_bus(&ports(p.stim.out_ports()), &ports(p.mul.a_ports()))?;
            router.route_bus(&ports(p.mul.p_ports()), &ports(p.adder.a_ports()))?;
            pipes.push(p);
        }
        router.bits_mut().frames_mut().take();
        Ok((Design { router, pipes, rng }, new_s))
    }

    /// One round of the seeded swap mix: `ROUND_SWAPS` swaps, half
    /// constant changes and half moves to a column the adder does not
    /// occupy, then the swaps that put every pipeline back where it
    /// started. A round therefore ends in the configuration it began
    /// with, and every round of a run is the same work.
    fn round(&mut self) -> Vec<Swap> {
        let start: Vec<(u8, u16)> = self
            .pipes
            .iter()
            .map(|p| (p.mul.constant(), p.adder.origin().col))
            .collect();
        let mut now = start.clone();
        let mut plan = Vec::with_capacity(ROUND_SWAPS + 2 * PIPELINES);
        for _ in 0..ROUND_SWAPS {
            let pipe = self.rng.gen_range(0..PIPELINES);
            let (k, col) = &mut now[pipe];
            if self.rng.gen_bool(0.5) {
                *k = other(&mut self.rng, 1, 16, u16::from(*k)) as u8;
                plan.push(Swap::Constant { pipe, k: *k });
            } else {
                *col = other(&mut self.rng, ADDER_COLS.start, ADDER_COLS.end, *col);
                plan.push(Swap::Relocate { pipe, col: *col });
            }
        }
        for (pipe, (&(k0, c0), &(k, col))) in start.iter().zip(&now).enumerate() {
            if k != k0 {
                plan.push(Swap::Constant { pipe, k: k0 });
            }
            if col != c0 {
                plan.push(Swap::Relocate { pipe, col: c0 });
            }
        }
        plan
    }

    /// Perform one swap, trace the re-made port nets and take the dirty
    /// frames. Returns the traced nets and the frame count.
    fn swap(&mut self, op: Swap, rec: &Recorder) -> Result<(Vec<Traced>, usize), RouteError> {
        let (pipe, p) = match op {
            Swap::Constant { pipe, .. } | Swap::Relocate { pipe, .. } => (pipe, &self.pipes[pipe]),
        };
        // The nets re-made when the core comes back: those driven by the
        // stimulus into a multiplier, and by the multiplier into its adder.
        let mut sources = p.mul.p_ports().to_vec();
        if let Swap::Constant { .. } = op {
            sources.extend_from_slice(p.stim.out_ports());
        }
        let router = &mut self.router;
        {
            let _s = rec.span("cores.detach");
            detach(core_of(&mut self.pipes, op), router)?;
        }
        {
            let _s = rec.span("cores.remove");
            core_of(&mut self.pipes, op).remove(router)?;
        }
        let p = &mut self.pipes[pipe];
        match op {
            Swap::Constant { k, .. } => p.mul.set_constant(k),
            Swap::Relocate { col, .. } => p.adder.set_origin(RowCol::new(p.row, col)),
        }
        {
            let _s = rec.span("cores.implement");
            core_of(&mut self.pipes, op).implement(router)?;
        }
        let mut traced = Vec::with_capacity(sources.len());
        for id in sources {
            let _s = rec.span("core.trace");
            let ep: EndPoint = id.into();
            traced.push((ep, router.trace(&ep)?.sinks));
        }
        let _s = rec.span("jbits.take_frames");
        let frames = router.bits_mut().frames_mut().take().len();
        Ok((traced, frames))
    }

    /// Whether a traced port net reaches exactly the pins its sink ports
    /// are bound to.
    fn trace_ok(&self, (source, mut sinks): Traced) -> bool {
        let want = self.expected_sinks(source);
        sinks.sort_unstable();
        sinks == want
    }

    fn expected_sinks(&self, source: EndPoint) -> Vec<Pin> {
        let mut want = Vec::new();
        for p in &self.pipes {
            let bus = [
                (p.stim.out_ports(), p.mul.a_ports()),
                (p.mul.p_ports(), p.adder.a_ports()),
            ];
            for (outs, ins) in bus {
                if let Some(i) = outs.iter().position(|&o| EndPoint::from(o) == source) {
                    want = self
                        .router
                        .resolve(&ins[i].into())
                        .expect("bound input port");
                }
            }
        }
        want.sort_unstable();
        want
    }

    /// Every pipeline computes `a * k + c` (mod 2^8) for every 4-bit
    /// `a`, and every port net traces to all of its sinks.
    fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let bits = self.router.bits();
        for a in 0..16u64 {
            let mut sim = Simulator::new(bits);
            for p in &self.pipes {
                for bit in 0..p.stim.width() {
                    let pin = p.stim.driver_pin(bit);
                    sim.force(
                        LogicSource::Yq {
                            rc: pin.rc,
                            slice: 1,
                        },
                        (a >> bit) & 1 == 1,
                    );
                }
            }
            for (i, p) in self.pipes.iter().enumerate() {
                let got = (0..p.adder.width()).try_fold(0u64, |acc, j| {
                    let rc = p.adder.sum_site(j);
                    sim.read(LogicSource::X { rc, slice: 0 })
                        .map(|v| acc | u64::from(v) << j)
                });
                let want = (a * u64::from(p.mul.constant()) + p.adder.constant()) & 0xFF;
                if got != Ok(want) {
                    bad.push(format!("pipeline {i}: a={a} gave {got:?}, want {want}"));
                }
            }
        }
        for p in &self.pipes {
            for &id in p.stim.out_ports().iter().chain(p.mul.p_ports()) {
                let ep: EndPoint = id.into();
                match self.router.trace(&ep) {
                    Ok(t) if self.trace_ok((ep, t.sinks.clone())) => {}
                    other => bad.push(format!("port net {ep:?} traced as {other:?}")),
                }
            }
        }
        if !self.router.remembered().is_empty() {
            bad.push(format!(
                "{} port connections were never re-made",
                self.router.remembered().len()
            ));
        }
        bad
    }
}

type Traced = (EndPoint, Vec<Pin>);

/// The core a swap takes out and puts back.
fn core_of(pipes: &mut [Pipeline], op: Swap) -> &mut dyn RtpCore {
    match op {
        Swap::Constant { pipe, .. } => &mut pipes[pipe].mul,
        Swap::Relocate { pipe, .. } => &mut pipes[pipe].adder,
    }
}

/// A value of `lo..hi` other than `old`, uniformly.
fn other(rng: &mut DetRng, lo: u16, hi: u16, old: u16) -> u16 {
    let v = rng.gen_range(lo..hi - 1);
    v + u16::from(v >= old)
}

/// The work counts of one round; every round on a design must repeat
/// its first exactly.
#[derive(Debug, Clone, PartialEq)]
struct RoundCounts {
    ops: usize,
    frames: usize,
    stats: RouterStats,
}

/// The seed of design `k` of a run.
fn design_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Build a design and its round, and warm up with the first swap of
/// the round and its way back.
fn set_up(seed: u64) -> (Design, Vec<Swap>, f64) {
    let (mut d, new_s) = Design::build(seed).expect("static design routes");
    let plan = d.round();
    let undo = match plan[0] {
        Swap::Constant { pipe, .. } => Swap::Constant {
            pipe,
            k: d.pipes[pipe].mul.constant(),
        },
        Swap::Relocate { pipe, .. } => Swap::Relocate {
            pipe,
            col: d.pipes[pipe].adder.origin().col,
        },
    };
    for op in [plan[0], undo] {
        d.swap(op, &Recorder::disabled())
            .expect("warm-up swap succeeds");
    }
    (d, plan, new_s)
}

/// Rounds run on each design: `seconds` worth of swaps at the reference
/// box's rate, and at least two, so every op has a repeat.
fn rounds_for(seconds: f64, min_ops: usize) -> usize {
    let swaps = crate::ops_for(seconds, SWAPS_PER_SECOND, min_ops);
    (swaps as f64 / (DESIGNS * ROUND_SWAPS) as f64)
        .round()
        .max(2.0) as usize
}

/// A design in the timed phase: its round, the configuration the round
/// must restore, each op's fastest time so far, and the work counts of
/// its first round.
struct Turn {
    d: Design,
    plan: Vec<Swap>,
    start: Snapshot,
    best_ms: Vec<f64>,
    first: Option<RoundCounts>,
}

impl Turn {
    /// Run one round, timing each op into `phase`; the output checks run
    /// outside the phase's time.
    fn round(
        &mut self,
        k: usize,
        phase: &mut Phase,
        fold: &mut Fold,
        rec: &Recorder,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let stats0 = self.d.router.stats().clone();
        let mut frames = 0;
        for (i, &op) in self.plan.iter().enumerate() {
            let t = Instant::now();
            let r = {
                let _op = rec.span_root("bench.op");
                self.d.swap(op, rec)
            };
            let dt = t.elapsed();
            self.best_ms[i] = self.best_ms[i].min(dt.as_secs_f64() * 1e3);
            let ok = phase.untimed(|| match r {
                Ok((traced, n)) => {
                    frames += n;
                    traced.into_iter().all(|t| self.d.trace_ok(t))
                }
                Err(_) => false,
            });
            phase.record(dt, ok);
            if rec.is_enabled() {
                phase.untimed(|| fold.drain(rec));
            }
        }
        let counts = RoundCounts {
            ops: self.plan.len(),
            frames,
            stats: delta(self.d.router.stats(), &stats0),
        };
        phase.untimed(|| {
            if jbits::readback::snapshot(self.d.router.bits()) != self.start {
                problems.push(format!(
                    "design {k}: a round did not restore its configuration"
                ));
            }
            match &self.first {
                None => self.first = Some(counts),
                Some(r) if *r == counts => {}
                Some(r) => problems.push(format!(
                    "design {k}: round repeated differently: {r:?} then {counts:?}"
                )),
            }
        });
        problems
    }
}

/// Set up the first design `setups` times (keeping the last) and build
/// the others untimed, then run the same number of rounds on every
/// design, taking the designs in turn. Every round of a design is the
/// same work from the same configuration, so an op's latency is taken as
/// the fastest of its repeats, which lie a whole turn of the designs
/// apart: a run then measures the swaps, not the seconds in which
/// another process slowed the core.
pub fn run(seed: u64, seconds: f64, setups: usize, rec: &Recorder, min_ops: usize) -> Run {
    let mut run = Run::default();
    let (mut first, mut new_s) = (None, 0.0);
    for _ in 0..setups {
        drop(first.take());
        let t = Instant::now();
        let (d, plan, s) = set_up(design_seed(seed, 0));
        run.setup_s.push(t.elapsed().as_secs_f64());
        (first, new_s) = (Some((d, plan)), s);
    }
    run.layer("core.router.new_ms", new_s * 1e3, "ms");
    let mut turns: Vec<Turn> = first
        .into_iter()
        .chain((1..DESIGNS).map(|k| {
            let (d, plan, _) = set_up(design_seed(seed, k));
            (d, plan)
        }))
        .map(|(mut d, plan)| {
            d.router.set_recorder(rec.clone());
            Turn {
                start: jbits::readback::snapshot(d.router.bits()),
                best_ms: vec![f64::INFINITY; plan.len()],
                first: None,
                d,
                plan,
            }
        })
        .collect();
    let mut fold = Fold::default();
    let mut phase = Phase::start();
    for _ in 0..rounds_for(seconds, min_ops) {
        for (k, turn) in turns.iter_mut().enumerate() {
            let problems = turn.round(k, &mut phase, &mut fold, rec);
            run.problems.extend(problems);
        }
    }
    run.add_phase(phase);

    let mut rounds: Vec<RoundCounts> = Vec::new();
    let mut best_ms = Vec::new();
    let (mut segments, mut sinks, mut worst) = (0, 0, Vec::new());
    for (k, mut turn) in turns.into_iter().enumerate() {
        let d = &mut turn.d;
        d.router.set_recorder(Recorder::disabled());
        run.problems
            .extend(d.check().into_iter().map(|p| format!("design {k}: {p}")));
        rounds.extend(turn.first);
        best_ms.extend(turn.best_ms);
        for n in d.router.nets().iter() {
            segments += n.segment_count();
            sinks += n.sinks.len();
            let t = jroute_timing::analyze_net(d.router.bits(), n.source);
            worst.extend(t.sink_delays.iter().map(|&(_, ps)| ps));
        }
    }
    run.best_ms = Some(best_ms);

    // Per-op counts over one round of every design: they do not depend
    // on how many rounds the time allowed.
    let ops: usize = rounds.iter().map(|r| r.ops).sum();
    let sum = |f: fn(&RoundCounts) -> usize| rounds.iter().map(f).sum::<usize>() as f64;
    let per_op = |v: f64| v / ops as f64;
    run.frames_per_op = per_op(sum(|r| r.frames));
    run.segments_per_sink = segments as f64 / sinks as f64;
    run.crit_path_ns = crate::measure::critical_tail_ns(worst);

    if rec.is_enabled() {
        let timed = run.op_ms.len() as f64;
        let searches = sum(|r| r.stats.maze_searches);
        let attempts = sum(|r| r.stats.template_attempts);
        run.layer("core.router.searches_per_op", per_op(searches), "count");
        run.layer(
            "core.router.template_attempts_per_op",
            per_op(attempts),
            "count",
        );
        run.layer(
            "core.router.template_hit_share",
            sum(|r| r.stats.template_successes) / attempts.max(1.0),
            "fraction",
        );
        run.layer(
            "jbits.pips_set_per_op",
            per_op(sum(|r| r.stats.pips_set)),
            "count",
        );
        run.layer(
            "jbits.pips_cleared_per_op",
            per_op(sum(|r| r.stats.pips_cleared)),
            "count",
        );
        let ms_per_op = |name: &str| fold.total_ns(name) as f64 / 1e6 / timed;
        run.layer("cores.detach_ms", ms_per_op("cores.detach"), "ms");
        run.layer("cores.remove_ms", ms_per_op("cores.remove"), "ms");
        run.layer("cores.implement_ms", ms_per_op("cores.implement"), "ms");
        run.layer(
            "core.trace_us",
            fold.total_ns("core.trace") as f64 / 1e3 / fold.count("core.trace").max(1) as f64,
            "us",
        );
        let expansions = per_op(sum(|r| r.stats.maze_nodes_expanded)) * timed;
        run.maze_layers(
            "rtr_swap",
            &fold,
            expansions as u64,
            fold.total_ns("cores.implement"),
        );
        run.dropped_spans = fold.dropped;
    }
    run
}

/// Router activity between two snapshots of its cumulative counters.
fn delta(now: &RouterStats, then: &RouterStats) -> RouterStats {
    RouterStats {
        pips_set: now.pips_set - then.pips_set,
        pips_cleared: now.pips_cleared - then.pips_cleared,
        nets_created: now.nets_created - then.nets_created,
        maze_searches: now.maze_searches - then.maze_searches,
        maze_nodes_expanded: now.maze_nodes_expanded - then.maze_nodes_expanded,
        template_attempts: now.template_attempts - then.template_attempts,
        template_successes: now.template_successes - then.template_successes,
        maze_fallbacks: now.maze_fallbacks - then.maze_fallbacks,
        contention_rejections: now.contention_rejections - then.contention_rejections,
    }
}
