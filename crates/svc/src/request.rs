//! Request and outcome vocabulary of the routing service.

use jroute::pathfinder::NetSpec;
use jroute::NetId;
use jroute_obs::TraceCtx;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Service-assigned request identifier, unique for the life of one
/// [`RoutingService`](crate::RoutingService). `Unroute`/`Replace`
/// requests name their victims by the id of the request that routed
/// them.
pub type RequestId = u64;

/// Tenant identifier in the multi-tenant server front-end
/// ([`server`](crate::server)): an index into the server's device list.
/// Tenant 0 is the implicit tenant of every single-tenant artifact —
/// legacy `.jrt` traces load as tenant 0.
pub type TenantId = u16;

/// What a request asks the service to do.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Route one net (source plus one or more sinks).
    Route(NetSpec),
    /// Remove every net routed by an earlier, committed request.
    Unroute(RequestId),
    /// Atomically remove the nets of earlier requests and route
    /// replacements over the freed resources — the §5 "replace a core
    /// while the design runs" operation as one request. Either all of
    /// `add` routes (and the removals stick), or the whole request rolls
    /// back and the victims keep their resources.
    Replace {
        /// Committed route requests whose nets are torn down.
        remove: Vec<RequestId>,
        /// Replacement nets routed over the freed (and any other
        /// available) resources.
        add: Vec<NetSpec>,
    },
}

/// When a request stops being worth finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Expires once the batch has *completed* this many requests. The
    /// step clock is part of the replayable schedule, so this is the
    /// deadline form deterministic mode honours.
    Steps(u64),
    /// Expires this long after `run_batch` starts (wall clock). Only
    /// meaningful in threaded mode; deterministic mode treats it as
    /// unbounded, because reading a real clock would make the schedule
    /// unreplayable.
    Elapsed(Duration),
}

/// One queued request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Service-assigned id.
    pub id: RequestId,
    /// Scheduling priority; lower values run earlier (0 = most urgent).
    pub priority: u8,
    /// Optional expiry.
    pub deadline: Option<Deadline>,
    /// The operation.
    pub kind: RequestKind,
    /// Submission order, the tiebreak within a priority class.
    pub(crate) seq: u64,
    /// Shared cancellation flag (see [`CancelToken`]).
    pub(crate) cancel: Arc<AtomicBool>,
    /// Causal trace context minted at submission (the `svc.request` root
    /// span). Carried through queueing, stealing, retry parking and
    /// `Replace` chain-transfers so every exec/maze span links back to
    /// the originating submission.
    pub(crate) ctx: TraceCtx,
}

impl Request {
    /// Whether the request has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }
}

/// Cloneable handle that cancels one request from any thread, including
/// while a batch is running: the routing step polls the flag on every
/// search probe and rolls the request's claims back.
#[derive(Debug, Clone)]
pub struct CancelToken(pub(crate) Arc<AtomicBool>);

impl CancelToken {
    /// Request cancellation. Idempotent; takes effect at the next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a request was refused without being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// An `Unroute`/`Replace` victim id is unknown, not yet committed,
    /// already targeted by an earlier request in the same batch, or
    /// listed twice in one request's victims.
    UnknownTarget(RequestId),
    /// A net spec names a wire that does not exist on the device.
    BadWire,
}

/// Final status of one request after a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The net was routed and committed.
    Routed {
        /// Net created in the service's [`NetDb`](jroute::NetDb).
        net: NetId,
        /// Segments the net occupies.
        segments: usize,
    },
    /// The victims' nets were removed.
    Unrouted {
        /// Nets removed.
        nets: Vec<NetId>,
    },
    /// Victims removed and replacements routed.
    Replaced {
        /// Nets removed.
        removed: Vec<NetId>,
        /// Nets created, one per `add` spec in order.
        added: Vec<NetId>,
    },
    /// Cancelled via [`CancelToken`] before or during execution; any
    /// claims made were rolled back.
    Cancelled,
    /// The deadline expired before or during execution; any claims made
    /// were rolled back.
    Expired,
    /// Every attempt lost its resources to competing requests (or no
    /// route existed under the committed state); gave up after
    /// `attempts` tries.
    Congested {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Refused without scheduling.
    Rejected(Reject),
}

impl RequestOutcome {
    /// Whether the request changed the committed state.
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Routed { .. }
                | RequestOutcome::Unrouted { .. }
                | RequestOutcome::Replaced { .. }
        )
    }
}

/// Backpressure error: the bounded submission queue is full. Run a batch
/// (or cancel queued work) before submitting more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The queue's capacity.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission queue full ({} requests); run a batch to drain it",
            self.capacity
        )
    }
}

impl std::error::Error for QueueFull {}

/// One completed request in schedule order — the replayable log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Completion step (0-based, dense within the batch).
    pub step: u64,
    /// Worker that finished the request.
    pub worker: usize,
    /// The request.
    pub request: RequestId,
    /// Whether the finishing worker obtained the task by stealing.
    pub stolen: bool,
}

/// Everything `run_batch` did.
#[derive(Debug)]
pub struct BatchReport {
    /// Final outcome per request, sorted by request id.
    pub outcomes: Vec<(RequestId, RequestOutcome)>,
    /// Completions in schedule order — feed the successful entries to
    /// [`SequentialModel`](crate::model::SequentialModel) to replay the
    /// batch.
    pub log: Vec<LogEntry>,
    /// Task executions, including retries of deferred requests.
    pub executed: u64,
    /// Tasks a worker took from another worker's deque.
    pub steals: u64,
    /// Deferred-and-requeued executions.
    pub retries: u64,
    /// When [`ServiceConfig::audit`](crate::ServiceConfig) is set: the
    /// number of claim-table slots that disagree with the net database
    /// after the batch (must be 0 — anything else is a leaked or lost
    /// claim).
    pub leaked_claims: Option<usize>,
}

impl BatchReport {
    /// Outcome of one request, if it was part of this batch.
    pub fn outcome(&self, id: RequestId) -> Option<&RequestOutcome> {
        self.outcomes
            .binary_search_by_key(&id, |&(rid, _)| rid)
            .ok()
            .map(|i| &self.outcomes[i].1)
    }
}
