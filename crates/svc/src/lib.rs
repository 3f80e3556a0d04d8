//! `jroute-svc` — batch/async routing service front-end.
//!
//! JRoute's run-time reconfiguration model (paper §3, §5) makes the
//! router a *service*: cores come and go while the design runs, and each
//! change is a burst of route / unroute / replace operations whose
//! latency is application latency. This crate provides that front-end
//! over the optimistic claim-table routing in `jroute::parallel`:
//!
//! * a bounded submission queue ([`RoutingService::submit`]) with
//!   backpressure ([`QueueFull`]), per-request ids, priorities and
//!   deadlines;
//! * batch execution ([`RoutingService::run_batch`]) over per-worker
//!   work-stealing deques ([`jroute::schedule::StealDeque`]), with
//!   deferred requests (lost claim races) retried through a shared
//!   injector queue;
//! * cancellation ([`CancelToken`]) and deadline expiry with exact
//!   request-scoped rollback: an abandoned request releases every
//!   segment it claimed, mid-search included;
//! * a deterministic mode ([`ExecMode::Deterministic`]) in which the
//!   whole schedule is a pure function of the seed — the completion log
//!   can be replayed through [`model::SequentialModel`] and must
//!   reproduce the service's net database exactly;
//! * `jroute-obs` spans and counters for queue depth, steals, retries,
//!   and per-request latency histograms.
//!
//! ```
//! use jroute_svc::{RequestKind, RoutingService, ServiceConfig};
//! use jroute::pathfinder::NetSpec;
//! use jroute::Pin;
//! use virtex::{wire, Device, Family};
//!
//! let dev = Device::new(Family::Xcv50);
//! let mut svc = RoutingService::new(&dev, ServiceConfig::default());
//! let id = svc
//!     .submit(RequestKind::Route(NetSpec::new(
//!         Pin::new(2, 2, wire::S0_YQ),
//!         vec![Pin::new(4, 6, wire::S0_F3)],
//!     )))
//!     .unwrap();
//! let report = svc.run_batch();
//! assert!(report.outcome(id).unwrap().is_success());
//! ```

mod exec;
pub mod model;
mod request;
pub mod server;
pub mod trace;

pub use request::{
    BatchReport, CancelToken, Deadline, LogEntry, QueueFull, Reject, Request, RequestId,
    RequestKind, RequestOutcome, TenantId,
};
pub use server::{
    serve, FaultPlan, ServerClient, ServerConfig, ServerLogEntry, ServerOutcome, ServerReport,
    TenantHandle, TenantReport, Ticket,
};
pub use trace::{ReplaySummary, Trace, TraceError, TraceId, TraceOp, TraceReq};

use exec::{Batch, Done, PrepKind, TaskDone, BATCH_BASE};
use jroute::maze::MazeConfig;
use jroute::parallel::{ClaimTable, ParallelNet};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig, PathFinderResult};
use jroute::{NetDb, NetId};
use jroute_obs::{Aggregator, Counter, Gauge, Histo, Recorder};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use virtex::{Device, SegIdx};

/// How a batch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real worker threads; schedule and completion order are
    /// nondeterministic, throughput is real.
    Threaded,
    /// Single-consumer replayable schedule seeded from `detrand`: the
    /// same seed, batch and thread count reproduce the identical
    /// schedule, completion log and final database.
    Deterministic {
        /// Schedule seed.
        seed: u64,
    },
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker count (deques exist in both modes; threads are only real
    /// in [`ExecMode::Threaded`]).
    pub threads: usize,
    /// Maze options shared by every request.
    pub maze: MazeConfig,
    /// Bounded submission-queue capacity; [`RoutingService::submit`]
    /// fails with [`QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// Executions (first try + retries) before a request that keeps
    /// losing claim races is reported [`RequestOutcome::Congested`].
    pub max_attempts: u32,
    /// Execution mode.
    pub mode: ExecMode,
    /// After each batch, scan the claim table against the net database
    /// and report disagreements in [`BatchReport::leaked_claims`]. An
    /// O(segment-space) scan — cheap next to routing, but off by default
    /// for benches.
    pub audit: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            maze: MazeConfig::default(),
            queue_capacity: 1024,
            max_attempts: 8,
            mode: ExecMode::Threaded,
            audit: cfg!(debug_assertions),
        }
    }
}

/// The batch routing service: a submission queue, a net database of
/// committed state, and the batch executor.
#[derive(Debug)]
pub struct RoutingService<'d> {
    dev: &'d Device,
    cfg: ServiceConfig,
    db: NetDb,
    pending: VecDeque<Request>,
    /// Nets each committed request produced — the victim namespace for
    /// `Unroute`/`Replace`.
    committed: HashMap<RequestId, Vec<NetId>>,
    next_id: RequestId,
    next_seq: u64,
    obs: Recorder,
    meters: SvcMeters,
    /// Rolling per-batch time-series (queue depth, batch latency
    /// quantiles, steal/retry rates) — `Some` iff the recorder is
    /// enabled; ticked once at the end of every `run_batch`.
    window: Option<Aggregator>,
}

/// Pre-registered sharded-registry handles for the service's hot
/// batch-loop metrics: no string-keyed map lookups while a batch runs.
#[derive(Debug, Clone)]
struct SvcMeters {
    batches: Counter,
    executed: Counter,
    steals: Counter,
    retries: Counter,
    queue_depth: Gauge,
    queue_depths: Histo,
    batch_ns: Histo,
    routed: Counter,
    unrouted: Counter,
    replaced: Counter,
    cancelled: Counter,
    expired: Counter,
    congested: Counter,
    rejected: Counter,
}

impl SvcMeters {
    fn resolve(obs: &Recorder) -> Self {
        SvcMeters {
            batches: obs.counter("svc.batches"),
            executed: obs.counter("svc.executed"),
            steals: obs.counter("svc.steals"),
            retries: obs.counter("svc.retries"),
            queue_depth: obs.gauge("svc.queue_depth_now"),
            queue_depths: obs.histogram("svc.queue_depth"),
            batch_ns: obs.histogram("svc.batch_ns"),
            routed: obs.counter("svc.routed"),
            unrouted: obs.counter("svc.unrouted"),
            replaced: obs.counter("svc.replaced"),
            cancelled: obs.counter("svc.cancelled"),
            expired: obs.counter("svc.expired"),
            congested: obs.counter("svc.congested"),
            rejected: obs.counter("svc.rejected"),
        }
    }
}

/// How many per-batch samples the service's rolling window retains.
const WINDOW_SAMPLES: usize = 256;

impl<'d> RoutingService<'d> {
    /// New service over one device with a disabled recorder.
    pub fn new(dev: &'d Device, cfg: ServiceConfig) -> Self {
        Self::with_recorder(dev, cfg, Recorder::disabled())
    }

    /// New service with an observability recorder; every batch emits
    /// `svc.*` spans, counters and histograms through it.
    pub fn with_recorder(dev: &'d Device, cfg: ServiceConfig, obs: Recorder) -> Self {
        let meters = SvcMeters::resolve(&obs);
        let window = obs.is_enabled().then(|| {
            let mut w = Aggregator::new(WINDOW_SAMPLES);
            w.track_gauge("svc.queue_depth", meters.queue_depth.clone());
            w.track_histogram("svc.batch_ns", meters.batch_ns.clone());
            w.track_counter("svc.executed", meters.executed.clone());
            w.track_counter("svc.steals", meters.steals.clone());
            w.track_counter("svc.retries", meters.retries.clone());
            w.track_counter(
                "pathfinder.nets_rerouted",
                obs.counter("pathfinder.nets_rerouted"),
            );
            // Wave telemetry from the unified partition-parallel engine:
            // how many barriers each negotiation needed, how wide its
            // waves ran, and how many nets the partitioner had to
            // serialize (straddlers + cliques).
            w.track_counter("pathfinder.waves", obs.counter("pathfinder.waves"));
            w.track_counter(
                "pathfinder.partition_conflicts",
                obs.counter("pathfinder.partition_conflicts"),
            );
            w.track_histogram(
                "pathfinder.wave_size",
                obs.histogram("pathfinder.wave_size"),
            );
            // Timing-driven telemetry: the per-iteration criticality
            // distribution and the best-of-two Steiner builder's
            // win/branch/reuse counters — what the tuner's fan-out and
            // exponent ratchets read.
            w.track_gauge("pathfinder.crit_max", obs.gauge("pathfinder.crit_max"));
            w.track_gauge("pathfinder.crit_p99", obs.gauge("pathfinder.crit_p99"));
            w.track_histogram("pathfinder.crit", obs.histogram("pathfinder.crit"));
            w.track_counter("steiner.builds", obs.counter("steiner.builds"));
            w.track_counter("steiner.wins", obs.counter("steiner.wins"));
            w.track_counter("steiner.branches", obs.counter("steiner.branches"));
            w.track_counter("steiner.reuse_hits", obs.counter("steiner.reuse_hits"));
            w
        });
        RoutingService {
            dev,
            cfg,
            db: NetDb::new(dev.seg_space()),
            pending: VecDeque::new(),
            committed: HashMap::new(),
            next_id: 0,
            next_seq: 0,
            obs,
            meters,
            window,
        }
    }

    /// The committed net database.
    pub fn db(&self) -> &NetDb {
        &self.db
    }

    /// The device this service routes on.
    pub fn device(&self) -> &'d Device {
        self.dev
    }

    /// Replace the maze options future batches route with — the hook
    /// the telemetry tuner ([`jroute::tuner`]) applies its derived
    /// config through between scenario steps. Queued requests are
    /// unaffected until the next `run_batch`.
    pub fn set_maze(&mut self, maze: MazeConfig) {
        self.cfg.maze = maze;
    }

    /// Resize the worker set future batches schedule over — how the
    /// multi-tenant server applies its per-batch [`ThreadBudget`]
    /// lease. Never changes deterministic-mode results *within* a fixed
    /// width; the server only calls it in threaded mode.
    ///
    /// [`ThreadBudget`]: jroute::schedule::ThreadBudget
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads.max(1);
    }

    /// The recorder batches report through.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Run the unified partition-parallel negotiator over `specs` under
    /// the service's execution policy: the service's worker count, and
    /// the inline replayable wave schedule when the service runs in
    /// [`ExecMode::Deterministic`] (results are identical either way —
    /// the engine is deterministic by construction — but the schedule,
    /// and hence the telemetry interleaving, is pinned).
    ///
    /// This is how `Replace`-heavy scenarios cross-check their live
    /// demand (see the churn workload): the negotiation shares the
    /// service recorder, so its wave/search telemetry lands in the same
    /// rolling window the tuner reads.
    pub fn negotiate(
        &self,
        specs: &[NetSpec],
        cfg: &PathFinderConfig,
    ) -> jroute::Result<PathFinderResult> {
        let cfg = PathFinderConfig {
            threads: self.cfg.threads,
            deterministic: matches!(self.cfg.mode, ExecMode::Deterministic { .. }),
            ..cfg.clone()
        };
        pathfinder::route_all_obs(self.dev, specs, &cfg, &self.obs)
    }

    /// The rolling per-batch time-series (one sample appended at the end
    /// of every non-empty `run_batch`): queue depth at submission peak,
    /// batch latency p50/p99, steal/retry/executed deltas and nets
    /// rerouted by negotiation. `None` when the recorder is disabled.
    pub fn window(&self) -> Option<&Aggregator> {
        self.window.as_ref()
    }

    /// Queued (not yet executed) requests.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Nets a committed request produced, if it is still committed.
    pub fn nets_of(&self, id: RequestId) -> Option<&[NetId]> {
        self.committed.get(&id).map(|v| v.as_slice())
    }

    /// Submit with default priority (128) and no deadline.
    pub fn submit(&mut self, kind: RequestKind) -> Result<RequestId, QueueFull> {
        self.submit_with(kind, 128, None).map(|(id, _)| id)
    }

    /// Submit with explicit priority (lower runs earlier) and optional
    /// deadline. Returns the request id and its cancellation token.
    pub fn submit_with(
        &mut self,
        kind: RequestKind,
        priority: u8,
        deadline: Option<Deadline>,
    ) -> Result<(RequestId, CancelToken), QueueFull> {
        let cancel = Arc::new(AtomicBool::new(false));
        self.submit_injected(kind, priority, deadline, Arc::clone(&cancel))
            .map(|id| (id, CancelToken(cancel)))
    }

    /// Submission with a caller-supplied cancellation flag — the server
    /// front-end mints the flag at admission time (so a request can be
    /// cancelled while still in the server's queue, before it ever
    /// reaches this service) and injects it here when the batch forms.
    pub(crate) fn submit_injected(
        &mut self,
        kind: RequestKind,
        priority: u8,
        deadline: Option<Deadline>,
        cancel: Arc<AtomicBool>,
    ) -> Result<RequestId, QueueFull> {
        if self.pending.len() >= self.cfg.queue_capacity {
            return Err(QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        // Mint the request's causal root here, at submission: everything
        // the request causes — exec attempts, maze searches, stolen
        // continuations — links back to this span's trace id.
        let mut root = self.obs.span_root("svc.request");
        root.note(id);
        self.pending.push_back(Request {
            id,
            priority,
            deadline,
            kind,
            seq: self.next_seq,
            cancel,
            ctx: root.ctx(),
        });
        self.next_seq += 1;
        self.meters.queue_depths.record(self.pending.len() as u64);
        self.meters.queue_depth.set(self.pending.len() as u64);
        Ok(id)
    }

    /// Cancellation token for a queued request (e.g. when the id came
    /// from [`RoutingService::submit`]).
    pub fn cancel_token(&self, id: RequestId) -> Option<CancelToken> {
        self.pending
            .iter()
            .find(|r| r.id == id)
            .map(|r| CancelToken(Arc::clone(&r.cancel)))
    }

    /// Drain the queue and execute everything as one batch.
    ///
    /// Requests run in priority order (ties by submission order) subject
    /// to stealing; successful requests are committed to the database,
    /// everything else leaves no trace. The report carries one terminal
    /// outcome per drained request plus the completion log.
    pub fn run_batch(&mut self) -> BatchReport {
        let mut span = self.obs.span_root("svc.batch");
        let batch_started = self.obs.elapsed_ns();
        // The gauge keeps the pre-drain depth until after the window
        // tick, so each sample reports the depth this batch consumed.
        let mut requests: Vec<Request> = self.pending.drain(..).collect();
        span.note(requests.len() as u64);
        requests.sort_by_key(|r| (r.priority, r.seq));
        if requests.is_empty() {
            return BatchReport {
                outcomes: Vec::new(),
                log: Vec::new(),
                executed: 0,
                steals: 0,
                retries: 0,
                leaked_claims: self.cfg.audit.then_some(0),
            };
        }

        let batch = self.prepare(&requests);
        let (mut dones, stats) = match self.cfg.mode {
            ExecMode::Threaded => exec::run_threaded(
                self.dev,
                &batch,
                self.cfg.threads,
                &self.cfg.maze,
                self.cfg.max_attempts,
                span.ctx(),
                &self.obs,
            ),
            ExecMode::Deterministic { seed } => exec::run_deterministic(
                self.dev,
                &batch,
                self.cfg.threads,
                &self.cfg.maze,
                self.cfg.max_attempts,
                seed,
                span.ctx(),
                &self.obs,
            ),
        };
        debug_assert_eq!(dones.len(), requests.len(), "one outcome per request");
        dones.sort_by_key(|d| d.step);

        let outcomes = self.apply(&requests, &dones);
        let leaked_claims = self.cfg.audit.then(|| self.audit(&batch.claims));

        self.meters.batches.inc();
        self.meters.executed.add(stats.executed);
        self.meters.steals.add(stats.steals);
        self.meters.retries.add(stats.retries);
        let m = &self.meters;
        for (_, o) in &outcomes {
            match o {
                RequestOutcome::Routed { .. } => &m.routed,
                RequestOutcome::Unrouted { .. } => &m.unrouted,
                RequestOutcome::Replaced { .. } => &m.replaced,
                RequestOutcome::Cancelled => &m.cancelled,
                RequestOutcome::Expired => &m.expired,
                RequestOutcome::Congested { .. } => &m.congested,
                RequestOutcome::Rejected(_) => &m.rejected,
            }
            .inc();
        }

        let log = dones
            .iter()
            .map(|d| LogEntry {
                step: d.step,
                worker: d.worker,
                request: requests[d.idx].id,
                stolen: d.stolen,
            })
            .collect();
        let now = self.obs.elapsed_ns();
        self.meters
            .batch_ns
            .record(now.saturating_sub(batch_started));
        if let Some(w) = self.window.as_mut() {
            w.tick(now);
        }
        self.meters.queue_depth.set(self.pending.len() as u64);
        let mut outcomes = outcomes;
        outcomes.sort_by_key(|&(id, _)| id);
        BatchReport {
            outcomes,
            log,
            executed: stats.executed,
            steals: stats.steals,
            retries: stats.retries,
            leaked_claims,
        }
    }

    /// Resolve victims, allocate claim-id ranges, and seed the claim
    /// table with every committed net.
    fn prepare<'r>(&self, requests: &'r [Request]) -> Batch<'r> {
        let space = self.dev.seg_space();
        let claims = ClaimTable::new(space);
        for (seg, id) in self.db.iter_used() {
            debug_assert!(id.0 < BATCH_BASE, "NetId namespace ran into batch ids");
            let claimed = claims.try_claim(space.index(seg), id.0);
            debug_assert!(claimed, "database nets are disjoint");
        }
        let mut kinds = Vec::with_capacity(requests.len());
        let mut cid_base = Vec::with_capacity(requests.len());
        let mut next_cid = BATCH_BASE;
        // Each committed request may be victim of at most one request per
        // batch — the claim-custody handover in `Replace` depends on it.
        let mut consumed: HashSet<RequestId> = HashSet::new();
        for req in requests {
            let resolve = |targets: &[RequestId],
                           consumed: &mut HashSet<RequestId>|
             -> Result<Vec<(NetId, Vec<SegIdx>)>, Reject> {
                let mut out = Vec::new();
                for (i, &t) in targets.iter().enumerate() {
                    // A duplicate inside one request's own victim list would
                    // break the claim handover just like a cross-request
                    // duplicate, so both are rejected here.
                    if consumed.contains(&t) || targets[..i].contains(&t) {
                        return Err(Reject::UnknownTarget(t));
                    }
                    let Some(nets) = self.committed.get(&t) else {
                        return Err(Reject::UnknownTarget(t));
                    };
                    for &nid in nets {
                        out.push((nid, self.net_segment_indices(nid)));
                    }
                }
                for &t in targets {
                    consumed.insert(t);
                }
                Ok(out)
            };
            let (kind, ids) = match &req.kind {
                RequestKind::Route(_) => (PrepKind::Route, 1),
                RequestKind::Unroute(target) => match resolve(&[*target], &mut consumed) {
                    Ok(targets) => (PrepKind::Unroute { targets }, 1),
                    Err(r) => (PrepKind::Reject(r), 1),
                },
                RequestKind::Replace { remove, add } => match resolve(remove, &mut consumed) {
                    Ok(victims) => (PrepKind::Replace { victims }, 1 + add.len() as u32),
                    Err(r) => (PrepKind::Reject(r), 1),
                },
            };
            kinds.push(kind);
            cid_base.push(next_cid);
            next_cid = next_cid
                .checked_add(ids)
                .filter(|&n| n < u32::MAX)
                .expect("claim-id namespace exhausted");
        }
        Batch {
            requests,
            kinds,
            cid_base,
            claims,
        }
    }

    /// Claim-table indices net `nid` owns: source plus PIP targets.
    fn net_segment_indices(&self, nid: NetId) -> Vec<SegIdx> {
        let space = self.dev.seg_space();
        let net = self.db.net(nid).expect("committed net exists");
        let mut v = Vec::with_capacity(net.pips.len() + 1);
        v.push(space.index(net.source));
        for &(rc, pip) in &net.pips {
            if let Some(target) = virtex::segment::canonicalize(space.dims(), rc, pip.to) {
                v.push(space.index(target));
            }
        }
        v
    }

    /// Apply completions to the database and produce per-request
    /// outcomes. Removals are applied first: in threaded mode, a later
    /// completion ticket may belong to a request that already reused
    /// segments an `Unroute` freed mid-batch, so creating in pure ticket
    /// order could collide with a net that is about to be removed.
    /// Creates then land in completion order, which keeps `NetId`
    /// assignment identical to the sequential replay.
    fn apply(
        &mut self,
        requests: &[Request],
        dones: &[TaskDone],
    ) -> Vec<(RequestId, RequestOutcome)> {
        for d in dones {
            match &d.outcome {
                Done::Unrouted(nets)
                | Done::Replaced {
                    removed: nets,
                    added: _,
                } => {
                    for &nid in nets {
                        self.db.remove_net(nid).expect("victim net exists");
                    }
                }
                _ => {}
            }
        }
        let mut outcomes = Vec::with_capacity(dones.len());
        for d in dones {
            let req = &requests[d.idx];
            let outcome = match &d.outcome {
                Done::Routed(net) => {
                    let nid = self.apply_net(net);
                    self.committed.insert(req.id, vec![nid]);
                    RequestOutcome::Routed {
                        net: nid,
                        segments: net.segments.len() + 1,
                    }
                }
                Done::Unrouted(nets) => {
                    if let RequestKind::Unroute(target) = &req.kind {
                        self.committed.remove(target);
                    }
                    RequestOutcome::Unrouted { nets: nets.clone() }
                }
                Done::Replaced { removed, added } => {
                    if let RequestKind::Replace { remove, .. } = &req.kind {
                        for t in remove {
                            self.committed.remove(t);
                        }
                    }
                    let ids: Vec<NetId> = added.iter().map(|n| self.apply_net(n)).collect();
                    self.committed.insert(req.id, ids.clone());
                    RequestOutcome::Replaced {
                        removed: removed.clone(),
                        added: ids,
                    }
                }
                Done::Cancelled => RequestOutcome::Cancelled,
                Done::Expired => RequestOutcome::Expired,
                Done::Congested(attempts) => RequestOutcome::Congested {
                    attempts: *attempts,
                },
                Done::Rejected(r) => RequestOutcome::Rejected(*r),
            };
            outcomes.push((req.id, outcome));
        }
        outcomes
    }

    /// Commit one routed net to the database. The claim table already
    /// guaranteed exclusivity, so contention here is a bug.
    fn apply_net(&mut self, net: &ParallelNet) -> NetId {
        let src = self
            .dev
            .canonicalize(net.spec.source.rc, net.spec.source.wire)
            .expect("committed net has a canonical source");
        let id = self
            .db
            .create(net.spec.source, src)
            .expect("claim table guaranteed source exclusivity");
        for (k, &(rc, pip)) in net.pips.iter().enumerate() {
            self.db
                .add_pip(id, rc, pip, net.segments[k])
                .expect("claim table guaranteed segment exclusivity");
        }
        for sink in &net.spec.sinks {
            self.db.add_sink(id, *sink);
        }
        id
    }

    /// Post-batch leak check: the claim table (persisted survivors plus
    /// batch-committed nets) must describe exactly the segments the
    /// database now owns. Returns the number of disagreeing slots.
    fn audit(&self, claims: &ClaimTable) -> usize {
        let space = self.dev.seg_space();
        let claimed: HashSet<SegIdx> = claims.claimed().map(|(idx, _)| idx).collect();
        let used: HashSet<SegIdx> = self
            .db
            .iter_used()
            .map(|(seg, _)| space.index(seg))
            .collect();
        claimed.symmetric_difference(&used).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jroute::pathfinder::NetSpec;
    use jroute::Pin;
    use virtex::{wire, Device, Family};

    fn dev() -> Device {
        Device::new(Family::Xcv50)
    }

    fn det_cfg(threads: usize, seed: u64) -> ServiceConfig {
        ServiceConfig {
            threads,
            mode: ExecMode::Deterministic { seed },
            audit: true,
            ..Default::default()
        }
    }

    fn spec(i: usize) -> NetSpec {
        let r = (2 + (i * 3) % 12) as u16;
        let c = (2 + (i * 5) % 16) as u16;
        NetSpec::new(
            Pin::new(r, c, wire::S0_YQ),
            vec![Pin::new(r + 2, c + 4, wire::S0_F3)],
        )
    }

    #[test]
    fn route_then_unroute_roundtrip() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(2, 1));
        let id = svc.submit(RequestKind::Route(spec(0))).unwrap();
        let report = svc.run_batch();
        assert!(matches!(
            report.outcome(id),
            Some(RequestOutcome::Routed { .. })
        ));
        assert_eq!(report.leaked_claims, Some(0));
        assert_eq!(svc.db().len(), 1);
        assert!(svc.db().used_segments() > 0);

        let un = svc.submit(RequestKind::Unroute(id)).unwrap();
        let report = svc.run_batch();
        assert!(matches!(
            report.outcome(un),
            Some(RequestOutcome::Unrouted { .. })
        ));
        assert_eq!(report.leaked_claims, Some(0));
        assert!(svc.db().is_empty());
        assert_eq!(svc.db().used_segments(), 0);
        assert!(svc.nets_of(id).is_none(), "victim entry retired");
    }

    #[test]
    fn replace_swaps_nets() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(2, 7));
        let a = svc.submit(RequestKind::Route(spec(0))).unwrap();
        svc.run_batch();
        let old_net = svc.nets_of(a).unwrap()[0];

        let r = svc
            .submit(RequestKind::Replace {
                remove: vec![a],
                add: vec![spec(1), spec(2)],
            })
            .unwrap();
        let report = svc.run_batch();
        match report.outcome(r) {
            Some(RequestOutcome::Replaced { removed, added }) => {
                assert_eq!(removed, &vec![old_net]);
                assert_eq!(added.len(), 2);
            }
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(report.leaked_claims, Some(0));
        assert_eq!(svc.db().len(), 2);
        assert!(svc.db().net(old_net).is_none());
    }

    #[test]
    fn replace_rolls_back_when_an_add_cannot_route() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(2, 3));
        let a = svc.submit(RequestKind::Route(spec(0))).unwrap();
        svc.run_batch();
        let before = svc.db().census();

        // Second add names a wire off the device: the whole request must
        // reject and the victim must keep every segment.
        let r = svc
            .submit(RequestKind::Replace {
                remove: vec![a],
                add: vec![
                    spec(1),
                    NetSpec::new(
                        Pin::new(2, 2, wire::S1_YQ),
                        vec![Pin::new(200, 200, wire::S0_F3)],
                    ),
                ],
            })
            .unwrap();
        let report = svc.run_batch();
        assert!(matches!(
            report.outcome(r),
            Some(RequestOutcome::Rejected(Reject::BadWire))
        ));
        assert_eq!(report.leaked_claims, Some(0));
        assert_eq!(svc.db().census(), before, "victim state must be intact");
        assert!(svc.nets_of(a).is_some(), "victim request still committed");
    }

    #[test]
    fn bounded_queue_pushes_back() {
        let dev = dev();
        let cfg = ServiceConfig {
            queue_capacity: 2,
            ..det_cfg(1, 0)
        };
        let mut svc = RoutingService::new(&dev, cfg);
        svc.submit(RequestKind::Route(spec(0))).unwrap();
        svc.submit(RequestKind::Route(spec(1))).unwrap();
        let err = svc.submit(RequestKind::Route(spec(2))).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2 });
        // Draining the queue restores capacity.
        svc.run_batch();
        svc.submit(RequestKind::Route(spec(2))).unwrap();
    }

    #[test]
    fn cancelled_request_leaves_no_trace() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(2, 5));
        let (id, token) = svc
            .submit_with(RequestKind::Route(spec(0)), 128, None)
            .unwrap();
        token.cancel();
        assert!(svc.cancel_token(id).unwrap().is_cancelled());
        let report = svc.run_batch();
        assert_eq!(report.outcome(id), Some(&RequestOutcome::Cancelled));
        assert_eq!(report.leaked_claims, Some(0));
        assert!(svc.db().is_empty());
    }

    #[test]
    fn zero_step_deadline_expires() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(1, 11));
        let (id, _) = svc
            .submit_with(RequestKind::Route(spec(0)), 128, Some(Deadline::Steps(0)))
            .unwrap();
        let report = svc.run_batch();
        assert_eq!(report.outcome(id), Some(&RequestOutcome::Expired));
        assert_eq!(report.leaked_claims, Some(0));
        assert!(svc.db().is_empty());
    }

    #[test]
    fn unknown_victims_are_rejected() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(1, 2));
        let un = svc.submit(RequestKind::Unroute(999)).unwrap();
        // Two requests targeting the same victim: the second rejects.
        let a = svc.submit(RequestKind::Route(spec(0))).unwrap();
        let report = svc.run_batch();
        assert_eq!(
            report.outcome(un),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(999)))
        );
        let Some(&RequestOutcome::Routed { net, .. }) = report.outcome(a) else {
            panic!("route failed: {:?}", report.outcome(a));
        };
        // A victim listed twice in one request rejects the request
        // whole: the net stays live and no claim leaks.
        let twice = svc
            .submit(RequestKind::Replace {
                remove: vec![a, a],
                add: vec![],
            })
            .unwrap();
        let report = svc.run_batch();
        assert_eq!(
            report.outcome(twice),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a)))
        );
        assert_eq!(report.leaked_claims, Some(0));
        assert!(
            svc.db().net(net).is_some(),
            "the victim's net is still live"
        );
        let u1 = svc.submit(RequestKind::Unroute(a)).unwrap();
        let u2 = svc.submit(RequestKind::Unroute(a)).unwrap();
        let report = svc.run_batch();
        assert!(report.outcome(u1).unwrap().is_success());
        assert_eq!(
            report.outcome(u2),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a)))
        );
    }

    #[test]
    fn same_seed_reproduces_schedule_and_state() {
        let dev = dev();
        let run = || {
            let mut svc = RoutingService::new(&dev, det_cfg(4, 0xDEAD));
            for i in 0..8 {
                svc.submit(RequestKind::Route(spec(i))).unwrap();
            }
            let report = svc.run_batch();
            (report.log, svc.db().census())
        };
        let (log_a, census_a) = run();
        let (log_b, census_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(census_a, census_b);
    }

    #[test]
    fn priority_runs_most_urgent_first() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(1, 1));
        let lazy = svc
            .submit_with(RequestKind::Route(spec(0)), 200, None)
            .unwrap()
            .0;
        let urgent = svc
            .submit_with(RequestKind::Route(spec(1)), 10, None)
            .unwrap()
            .0;
        let report = svc.run_batch();
        assert_eq!(report.log[0].request, urgent);
        assert_eq!(report.log[1].request, lazy);
    }

    #[test]
    fn threaded_mode_commits_disjoint_nets() {
        let dev = dev();
        let cfg = ServiceConfig {
            threads: 4,
            mode: ExecMode::Threaded,
            audit: true,
            ..Default::default()
        };
        let mut svc = RoutingService::new(&dev, cfg);
        for i in 0..12 {
            svc.submit(RequestKind::Route(spec(i))).unwrap();
        }
        let report = svc.run_batch();
        assert_eq!(report.leaked_claims, Some(0));
        let mut seen = HashSet::new();
        for (seg, _) in svc.db().iter_used() {
            assert!(seen.insert(seg), "segment {seg} owned twice");
        }
        assert!(report.outcomes.iter().all(|(_, o)| o.is_success()));
    }

    #[test]
    fn deterministic_log_replays_through_the_model() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, det_cfg(3, 42));
        let mut subs = Vec::new();
        for i in 0..6 {
            subs.push(svc.submit(RequestKind::Route(spec(i))).unwrap());
        }
        // Mix in an unroute of the first request via a second batch to
        // exercise victim resolution as well.
        let report = svc.run_batch();
        assert!(report.outcomes.iter().all(|(_, o)| o.is_success()));
        let requests: HashMap<RequestId, RequestKind> = subs
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, RequestKind::Route(spec(i))))
            .collect();
        let mut m = model::SequentialModel::new(&dev, MazeConfig::default());
        for entry in &report.log {
            m.apply(entry.request, &requests[&entry.request]);
        }
        assert_eq!(m.db().census(), svc.db().census());
    }
}
