//! `server_bursts`: closed-loop reconfiguration bursts against the
//! multi-tenant routing server, two XCV300 tenants.
//!
//! Why: run-time reconfiguration callers wait for their change to
//! finish, so the loop is closed: one op submits a burst of requests to
//! every tenant, flushes, and waits for every ticket. The explicit flush
//! keeps the server's idle timer out of the latency. This workload alone
//! runs admission, batch forming, claim-table routing with retries and
//! `Replace` rollback (a delete beside a write). Its small devices keep
//! the working set in cache, and it skips `jbits`, `pathfinder` and
//! `cores`.
//!
//! The server writes no bitstream, so the configuration-level metrics
//! come from replaying each tenant's completion log through
//! `svc::model::SequentialModel` (which must reproduce the tenant's
//! census) and programming the replayed nets into a bitstream.

use crate::gen::{PinPool, Region};
use crate::measure::{hist_quantile, Fold};
use crate::{Phase, Run};
use detrand::DetRng;
use jbits::Bitstream;
use jroute::maze::MazeConfig;
use jroute::pathfinder::NetSpec;
use jroute_obs::{labeled, Recorder};
use jroute_svc::model::SequentialModel;
use jroute_svc::{
    serve, ExecMode, RequestKind, ServerConfig, ServerOutcome, TenantHandle, TenantReport, Ticket,
};
use std::time::Instant;
use virtex::{Device, Family};

pub const FAMILY: Family = Family::Xcv300;
pub const TENANTS: usize = 2;
pub const POOL_WIDTH: usize = 2;
pub const TENANT_THREADS: usize = 2;
const BATCH_MAX: usize = 16;
/// Requests per tenant per burst.
const BURST: usize = 16;
/// Live nets per tenant after set-up; the mix keeps the live set within
/// `LIVE_SLACK` of it.
const LIVE: usize = 200;
const LIVE_SLACK: usize = 40;
/// Bursts per second on the reference box (two cores, x86-64); sizes a
/// run from `--seconds`.
const BURSTS_PER_SECOND: f64 = 100.0;
/// Untimed bursts of the mix that end set-up.
const WARM_UP_BURSTS: usize = 30;
const MAX_FANOUT: usize = 3;
const SPAN: u16 = 4;
const EDGE: u16 = 2;

fn config() -> ServerConfig {
    ServerConfig {
        threads: POOL_WIDTH,
        tenant_threads: TENANT_THREADS,
        mode: ExecMode::Threaded,
        audit: false,
        batch_max: BATCH_MAX,
        ..ServerConfig::default()
    }
}

/// One tenant's client-side state: what it asked for, which of its nets
/// are live, and which pins they hold.
struct Client {
    handle: TenantHandle,
    region: Region,
    pins: PinPool,
    /// Live nets as `(admission id, spec)`.
    live: Vec<(u64, NetSpec)>,
    /// Every admission, indexed by admission id, with the burst it was
    /// part of (`None` for set-up).
    kinds: Vec<(RequestKind, Option<usize>)>,
}

/// A submitted request and what to do with its pins once it resolves.
struct Pending {
    ticket: Ticket,
    added: Option<NetSpec>,
    victim: Option<(u64, NetSpec)>,
}

impl Client {
    fn new_net(&mut self, rng: &mut DetRng) -> NetSpec {
        let fanout = rng.gen_range(1..=MAX_FANOUT);
        self.pins.net(self.region, fanout, SPAN, rng)
    }

    /// The next request of the mix: a quarter routes, half replace and a
    /// quarter unroute one of the tenant's live nets, steered so the
    /// live set stays near [`LIVE`]. Victims are taken out of `live`, so
    /// no net is named twice in a burst.
    fn next(&mut self, rng: &mut DetRng) -> (RequestKind, Option<NetSpec>, Option<(u64, NetSpec)>) {
        let mut pick = rng.gen_range(0..4u32);
        if pick == 0 && self.live.len() > LIVE + LIVE_SLACK {
            pick = 3;
        }
        if pick == 3 && self.live.len() < LIVE - LIVE_SLACK {
            pick = 0;
        }
        if pick == 0 || self.live.is_empty() {
            let spec = self.new_net(rng);
            return (RequestKind::Route(spec.clone()), Some(spec), None);
        }
        let i = rng.gen_range(0..self.live.len());
        let victim = self.live.swap_remove(i);
        if pick == 3 {
            (RequestKind::Unroute(victim.0), None, Some(victim))
        } else {
            let spec = self.new_net(rng);
            let kind = RequestKind::Replace {
                remove: vec![victim.0],
                add: vec![spec.clone()],
            };
            (kind, Some(spec), Some(victim))
        }
    }

    fn submit(&mut self, kind: RequestKind, burst: Option<usize>, rec: &Recorder) -> Ticket {
        let ticket = {
            let _s = rec.span("svc.server.submit");
            self.handle.submit(kind.clone())
        }
        .expect("admission gate holds a burst");
        assert_eq!(
            ticket.id() as usize,
            self.kinds.len(),
            "dense admission ids"
        );
        self.kinds.push((kind, burst));
        ticket
    }

    /// Book a resolved request: keep the pins of what now lives, free
    /// the rest. Returns whether it succeeded.
    fn settle(&mut self, p: Pending, outcome: &ServerOutcome) -> bool {
        let ok = outcome.is_success();
        let (keep, free) = if ok {
            (p.added, p.victim.map(|v| v.1))
        } else {
            if let Some(v) = p.victim {
                self.live.push(v);
            }
            (None, p.added)
        };
        if let Some(spec) = keep {
            self.live.push((p.ticket.id(), spec));
        }
        if let Some(spec) = free {
            self.pins.release(&spec);
        }
        ok
    }
}

/// Submit one burst to every tenant (interleaved, as independent
/// producers would), flush, and wait for every ticket. A burst either
/// only routes (to populate) or follows the mix; `id` names a timed
/// burst. Returns the number of requests that did not succeed.
fn burst(
    clients: &mut [Client],
    rng: &mut DetRng,
    mix: bool,
    id: Option<usize>,
    rec: &Recorder,
) -> u64 {
    let mut pending: Vec<(usize, Pending)> = Vec::with_capacity(BURST * clients.len());
    for _ in 0..BURST {
        for (t, c) in clients.iter_mut().enumerate() {
            let (kind, added, victim) = if mix {
                c.next(rng)
            } else {
                let spec = c.new_net(rng);
                (RequestKind::Route(spec.clone()), Some(spec), None)
            };
            let ticket = c.submit(kind, id, rec);
            pending.push((
                t,
                Pending {
                    ticket,
                    added,
                    victim,
                },
            ));
        }
    }
    for c in clients.iter() {
        c.handle.flush();
    }
    let _drain = rec.span("svc.server.drain");
    let outcomes: Vec<ServerOutcome> = pending.iter().map(|(_, p)| p.ticket.wait()).collect();
    drop(_drain);
    let mut failed = 0;
    for ((t, p), o) in pending.into_iter().zip(&outcomes) {
        if !clients[t].settle(p, o) {
            failed += 1;
        }
    }
    failed
}

/// What the timed phase left behind, for the checks after `serve`.
struct Session {
    kinds: Vec<Vec<(RequestKind, Option<usize>)>>,
    live_sinks: usize,
    bursts: usize,
}

pub fn run(seed: u64, seconds: f64, setups: usize, rec: &Recorder, min_ops: usize) -> Run {
    let devices: Vec<Device> = (0..TENANTS).map(|_| Device::new(FAMILY)).collect();
    let refs: Vec<&Device> = devices.iter().collect();
    let dims = devices[0].dims();
    // Pins stay off the two outermost rings of tiles, and no two live
    // pins share a tile: edge tiles have fewer wires in, and crowded
    // tiles run out of them. With neither rule, or with the edge rule
    // alone, about one request in 30 000 ends `Congested` after every
    // retry, and the workload is to have no failing op.
    let inner = Region {
        rows: (EDGE, dims.rows - EDGE),
        cols: (EDGE, dims.cols - EDGE),
    };
    let mut run = Run::default();
    let mut fold = Fold::default();
    let mut last = None;
    for s in 0..setups {
        let timed = s + 1 == setups;
        let t = Instant::now();
        let obs = if timed {
            rec.clone()
        } else {
            Recorder::disabled()
        };
        let (session, report) = serve(&refs, config(), obs, |server| {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut clients: Vec<Client> = (0..TENANTS)
                .map(|i| Client {
                    handle: server.tenant(i as u16),
                    region: inner,
                    pins: PinPool::one_per_tile(),
                    live: Vec::new(),
                    kinds: Vec::new(),
                })
                .collect();
            let mut setup_failed = 0;
            for _ in 0..LIVE.div_ceil(BURST) {
                setup_failed += burst(&mut clients, &mut rng, false, None, &Recorder::disabled());
            }
            for _ in 0..WARM_UP_BURSTS {
                setup_failed += burst(&mut clients, &mut rng, true, None, &Recorder::disabled());
            }
            run.setup_s.push(t.elapsed().as_secs_f64());
            if setup_failed > 0 {
                run.problems
                    .push(format!("{setup_failed} set-up routes failed"));
            }
            if !timed {
                return None;
            }
            if rec.is_enabled() {
                fold = Fold::default();
                rec.reset();
            }
            let mut phase = Phase::start();
            for id in 0..crate::ops_for(seconds, BURSTS_PER_SECOND, min_ops) {
                let t = Instant::now();
                let failed = {
                    let _op = rec.span_root("bench.op");
                    burst(&mut clients, &mut rng, true, Some(id), rec)
                };
                phase.record(t.elapsed(), failed == 0);
                if rec.is_enabled() {
                    phase.untimed(|| fold.drain(rec));
                }
            }
            let bursts = phase.ops();
            run.add_phase(phase);
            Some(Session {
                live_sinks: clients
                    .iter()
                    .flat_map(|c| &c.live)
                    .map(|(_, s)| s.sinks.len())
                    .sum(),
                kinds: clients.into_iter().map(|c| c.kinds).collect(),
                bursts,
            })
        });
        if let Some(session) = session {
            last = Some((session, report));
        }
    }
    let (session, report) = last.expect("the last set-up runs the timed phase");
    let (frames, delays_ps) = check(&devices, &session, &report.tenants, &mut run.problems);
    let census: usize = report.tenants.iter().map(|t| t.census.len()).sum();
    run.segments_per_sink = census as f64 / session.live_sinks.max(1) as f64;
    run.frames_per_op = frames as f64 / session.bursts as f64;
    run.crit_path_ns = crate::measure::critical_tail_ns(delays_ps);

    if rec.is_enabled() {
        let ops = run.op_ms.len() as f64;
        let requests = (ops as usize * BURST * TENANTS) as f64;
        let mut latency = jroute_obs::Histogram::new();
        for t in 0..TENANTS {
            if let Some(h) = fold
                .hists
                .get(&labeled("svc.server.request_ns", "tenant", t))
            {
                latency.merge(h);
            }
        }
        let mut batch_ms: Vec<f64> = fold.kept_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let expansions = fold.hists.get("maze.nodes_expanded").map_or(0, |h| h.sum());
        run.layer(
            "svc.server.submit_us",
            fold.total_ns("svc.server.submit") as f64 / 1e3 / requests,
            "us",
        );
        run.layer(
            "svc.server.drain_ms",
            fold.total_ns("svc.server.drain") as f64 / 1e6 / ops,
            "ms",
        );
        run.layer(
            "svc.server.request_ms_p50",
            hist_quantile(&latency, 0.5) / 1e6,
            "ms",
        );
        run.layer(
            "svc.server.request_ms_p90",
            hist_quantile(&latency, 0.9) / 1e6,
            "ms",
        );
        run.layer(
            "svc.server.batches_per_op",
            fold.counter("svc.batches") as f64 / ops,
            "count",
        );
        run.layer(
            "svc.batch_ms_p50",
            if batch_ms.is_empty() {
                0.0
            } else {
                crate::measure::median(&mut batch_ms)
            },
            "ms",
        );
        run.layer(
            "svc.retries_per_req",
            fold.counter("svc.retries") as f64 / requests,
            "count",
        );
        run.layer(
            "svc.steals_per_req",
            fold.counter("svc.steals") as f64 / requests,
            "count",
        );
        run.maze_layers(
            "server_bursts",
            &fold,
            expansions,
            fold.total_ns("bench.op"),
        );
        run.dropped_spans = fold.dropped;
    }
    run
}

/// The checks after the server stops: no tenant poisoned, every
/// admission answered, and each tenant's completion log, replayed
/// through the sequential model, reproduces its census. The replayed
/// nets are programmed into one bitstream per tenant to count the
/// frames each timed burst rewrote and to read the delays back. Tenants
/// are checked on threads of their own. Returns the frames over timed
/// bursts and the delay of every source-to-sink connection, in ps.
fn check(
    devices: &[Device],
    session: &Session,
    tenants: &[TenantReport],
    problems: &mut Vec<String>,
) -> (usize, Vec<u64>) {
    let checked: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(t, report)| {
                scope.spawn(move || check_tenant(&devices[t], &session.kinds[t], report))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("tenant check never panics"))
            .collect()
    });
    let (mut frames, mut delays_ps) = (0, Vec::new());
    for (t, r) in checked.into_iter().enumerate() {
        match r {
            Ok((f, d)) => {
                frames += f;
                delays_ps.extend(d);
            }
            Err(e) => problems.push(format!("tenant {t}: {e}")),
        }
    }
    (frames, delays_ps)
}

fn check_tenant(
    dev: &Device,
    kinds: &[(RequestKind, Option<usize>)],
    report: &TenantReport,
) -> Result<(usize, Vec<u64>), String> {
    if report.poisoned {
        return Err("poisoned".into());
    }
    let answered: Vec<u64> = report.outcomes.iter().map(|&(seq, _)| seq).collect();
    if answered != (0..kinds.len() as u64).collect::<Vec<_>>() {
        return Err(format!(
            "{} admissions, {} answers",
            kinds.len(),
            answered.len()
        ));
    }
    let mut model = SequentialModel::new(dev, MazeConfig::default());
    let mut bits = Bitstream::new(dev);
    let mut frames = 0;
    let mut burst = None;
    for entry in &report.log {
        let (kind, b) = &kinds[entry.seq as usize];
        if *b != burst {
            // Frames rewritten since the last boundary belong to the
            // burst that just ended (or to set-up, which is not counted).
            let n = bits.frames_mut().take().len();
            if burst.is_some() {
                frames += n;
            }
            burst = *b;
        }
        if !report.outcomes[entry.seq as usize].1.is_success() {
            continue;
        }
        let victims: &[u64] = match kind {
            RequestKind::Route(_) => &[],
            RequestKind::Unroute(v) => std::slice::from_ref(v),
            RequestKind::Replace { remove, .. } => remove,
        };
        for v in victims {
            for id in model.nets_of(*v).unwrap_or_default() {
                let net = model.db().net(*id).expect("live victim net");
                for &(rc, pip) in &net.pips {
                    bits.clear_pip(rc, pip.from, pip.to).expect("valid pip");
                }
            }
        }
        model.apply(entry.seq, kind);
        for id in model.nets_of(entry.seq).unwrap_or_default() {
            let net = model.db().net(*id).expect("new net");
            for &(rc, pip) in &net.pips {
                bits.set_pip(rc, pip.from, pip.to).expect("valid pip");
            }
        }
    }
    if burst.is_some() {
        frames += bits.frames_mut().take().len();
    }
    if model.db().census() != report.census {
        return Err("census differs from the model replay".into());
    }
    let mut delays_ps = Vec::new();
    for net in model.db().iter() {
        let timing = jroute_timing::analyze_net(&bits, net.source);
        delays_ps.extend(timing.sink_delays.iter().map(|&(_, ps)| ps));
    }
    Ok((frames, delays_ps))
}
