//! Claim-table routing: the concurrent substrate under `jroute-svc`.
//!
//! Paper §6 lists faster routing algorithms as future work; run-time
//! reconfiguration makes router latency part of application latency.
//! The batch service front-end (`jroute-svc`) routes many requests at
//! once over one lock-free *claim table* shared by all its workers:
//!
//! 1. a worker routing a net treats segments claimed by **other** owners
//!    as blocked, reading the shared claim table live;
//! 2. as soon as a sink is reached the worker claims the new segments by
//!    compare-and-swap on the per-segment owner word. A lost CAS means
//!    another owner grabbed the segment mid-search: the worker rolls back
//!    every claim it made for the net and reports it deferred, for the
//!    service to retry.
//!
//! There is no commit barrier — a net is committed the moment its last
//! claim lands, and its claims immediately steer every other in-flight
//! search away. The committed configuration is always contention-free —
//! the JRoute §3.4 invariant — and equivalent to some sequential routing
//! order (the order in which final claims landed), which is what the
//! service's sequential replay model checks.
//!
//! This module holds the [`ClaimTable`], the per-net routing step
//! [`route_one_claiming`] and the default search region
//! [`net_search_box`]. Scheduling — deques, retries, cancellation and
//! the claim handover of `Replace` requests — lives in `jroute-svc`.

use crate::maze::{self, MazeConfig, MazeScratch};
use crate::partition::{self, SearchBox};
use crate::pathfinder::NetSpec;
use jbits::Pip;
use jroute_obs::{Recorder, TraceCtx};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use virtex::{BBox, Device, RowCol, SegIdx, SegSpace, SegVec, Segment};

/// Margin (tiles beyond the terminal bounding box) of the per-net search
/// region claim routing confines itself to before falling back to the
/// whole device.
const NET_BBOX_MARGIN: u16 = partition::DEFAULT_MARGIN;

/// The default search region for `spec`: its terminal bounding box plus
/// routing slack ([`NET_BBOX_MARGIN`] of detour room and hex reach — see
/// [`SearchBox::region`], the one canonical expansion). Shared by
/// [`route_one_claiming`] and the sequential replay model in
/// `jroute-svc`, which must take byte-identical search decisions.
pub fn net_search_box(dev: &Device, spec: &NetSpec) -> BBox {
    SearchBox::of_spec(spec).region(NET_BBOX_MARGIN, dev.dims())
}

/// A net committed by claim routing.
#[derive(Debug, Clone)]
pub struct ParallelNet {
    /// The net as requested.
    pub spec: NetSpec,
    /// PIPs in configuration order.
    pub pips: Vec<(RowCol, Pip)>,
    /// Segments the net occupies.
    pub segments: Vec<Segment>,
}

/// Sentinel owner word for an unclaimed segment.
const FREE: u32 = u32::MAX;

/// Lock-free per-segment owner table shared by all workers.
///
/// Each slot holds the claiming owner's id or is free. Only the CAS's
/// atomicity matters — no other data is published through a claim — so
/// relaxed ordering is sufficient throughout. Owner ids are an arbitrary
/// `u32` namespace chosen by the caller (a split
/// persisted-net/in-flight-request namespace in `jroute-svc`); the value
/// `u32::MAX` is reserved as the free sentinel.
///
/// The maze search probes `blocked_for` for every neighbour it touches,
/// so reads vastly outnumber claims. A compact occupancy bitmap (one bit
/// per segment, 512 segments per cache line) answers the common
/// "unclaimed" case without touching the owner table, which is dozens of
/// megabytes on the largest family members and would miss cache on
/// nearly every probe. The bitmap is advisory — a stale bit only costs
/// one owner-table read (set) or one failed claim CAS (clear); the CAS
/// on the owner word is what enforces exclusivity.
#[derive(Debug)]
pub struct ClaimTable {
    table: SegVec<AtomicU32>,
    /// `bits[i / 64] & (1 << (i % 64))` mirrors `table[i] != FREE`.
    bits: Vec<AtomicU64>,
}

impl ClaimTable {
    /// An all-free table over one device's segment space.
    pub fn new(space: SegSpace) -> Self {
        ClaimTable {
            table: SegVec::from_fn(space, || AtomicU32::new(FREE)),
            bits: (0..space.len().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// The segment space this table covers.
    #[inline]
    pub fn space(&self) -> SegSpace {
        self.table.space()
    }

    /// Whether `idx` is claimed by an owner other than `id`.
    #[inline]
    pub fn blocked_for(&self, idx: SegIdx, id: u32) -> bool {
        let i = idx.as_usize();
        if self.bits[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) == 0 {
            return false;
        }
        let cur = self.table[idx].load(Ordering::Relaxed);
        cur != FREE && cur != id
    }

    /// Current owner of `idx`, if any. Racy under concurrent claims —
    /// meaningful between runs (audits) or from the claiming thread.
    #[inline]
    pub fn owner(&self, idx: SegIdx) -> Option<u32> {
        let cur = self.table[idx].load(Ordering::Relaxed);
        (cur != FREE).then_some(cur)
    }

    /// Claim `idx` for `id`, reporting whether the claim is fresh.
    /// Rollback code releases only [`Claim::Won`] segments — a segment
    /// that was already ours (a net reaching it through a second branch,
    /// or a service request that took it over via [`Self::transfer`])
    /// must keep its claim when a later step unwinds.
    #[inline]
    pub fn claim(&self, idx: SegIdx, id: u32) -> Claim {
        debug_assert_ne!(id, FREE, "u32::MAX is the free sentinel");
        match self.table[idx].compare_exchange(FREE, id, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                let i = idx.as_usize();
                self.bits[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
                Claim::Won
            }
            Err(cur) if cur == id => Claim::AlreadyOurs,
            Err(_) => Claim::Lost,
        }
    }

    /// Claim `idx` for `id`. Succeeds if the slot was free or already
    /// ours (a net may reach the same segment through several branches).
    #[inline]
    pub fn try_claim(&self, idx: SegIdx, id: u32) -> bool {
        self.claim(idx, id) != Claim::Lost
    }

    /// Hand a claim owned by `from` directly to `to`, without the
    /// segment ever appearing free to concurrent searchers. This is how
    /// the service's `Replace` requests take over the segments of the
    /// nets they remove before re-routing over them. Fails (returns
    /// `false`) if `from` does not own the slot.
    #[inline]
    pub fn transfer(&self, idx: SegIdx, from: u32, to: u32) -> bool {
        debug_assert!(from != FREE && to != FREE, "u32::MAX is the free sentinel");
        self.table[idx]
            .compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Roll back a claim owned by `id` (no-op if not ours). A concurrent
    /// re-claim between the owner CAS and the bit clear can drop the
    /// new claimant's bit — benign, see the type docs.
    #[inline]
    pub fn release(&self, idx: SegIdx, id: u32) {
        if self.table[idx]
            .compare_exchange(id, FREE, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            let i = idx.as_usize();
            self.bits[i / 64].fetch_and(!(1 << (i % 64)), Ordering::Relaxed);
        }
    }

    /// Every claimed segment with its owner id. An O(space) scan over
    /// the owner table — for pre-run seeding audits and post-run leak
    /// checks, not for hot paths, and only stable while no claims are in
    /// flight.
    pub fn claimed(&self) -> impl Iterator<Item = (SegIdx, u32)> + '_ {
        self.table.iter().filter_map(|(idx, slot)| {
            let cur = slot.load(Ordering::Relaxed);
            (cur != FREE).then_some((idx, cur))
        })
    }
}

/// Result of one [`ClaimTable::claim`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The slot was free; the claim is fresh (release it on rollback).
    Won,
    /// The slot already belonged to `id` (leave it alone on rollback).
    AlreadyOurs,
    /// The slot belongs to someone else.
    Lost,
}

/// Per-net outcome of one routing attempt.
#[derive(Debug)]
pub enum RouteOutcome {
    /// Routed and claimed; the net is committed.
    Committed(Box<ParallelNet>),
    /// Lost a claim race, found a needed segment claimed by another net,
    /// or the search came up empty (possibly blocked by in-flight claims
    /// that later roll back) — retry later.
    Deferred,
    /// The `cancel` probe fired mid-route; every claim made for the net
    /// has been rolled back.
    Cancelled,
    /// The net names a nonexistent wire — permanent.
    Failed,
}

/// Route one net, validating and claiming against the live claim table.
///
/// On success every segment of the net (including its source) is claimed
/// for `id` before returning, so the net is committed with no further
/// coordination. On deferral, cancellation or failure all claims made
/// here are rolled back — the table is exactly as it was.
///
/// `cancel` is polled on every maze-search probe (and between sinks), so
/// a request can be abandoned mid-search: this is the request-scoped
/// rollback primitive under `jroute-svc` cancellation and deadline
/// expiry. Pass `|| false` when cancellation is not needed.
///
/// `ctx` is the causal trace context of whatever triggered this net —
/// in the service, the request's `svc.exec` span. The
/// `parallel.net` span opened here (and, ambiently, every nested
/// `maze.search`) links back to it even when the net was stolen onto a
/// different thread. Pass [`TraceCtx::NONE`] for untraced calls.
#[allow(clippy::too_many_arguments)] // the full claim-routing contract
pub fn route_one_claiming(
    dev: &Device,
    spec: &NetSpec,
    id: u32,
    claims: &ClaimTable,
    cfg: &MazeConfig,
    scratch: &mut MazeScratch,
    cancel: impl Fn() -> bool,
    ctx: TraceCtx,
    obs: &Recorder,
) -> RouteOutcome {
    let mut net_span = obs.span_ctx("parallel.net", ctx);
    net_span.note(id as u64);
    let space = dev.seg_space();
    let Some(src_seg) = dev.canonicalize(spec.source.rc, spec.source.wire) else {
        return RouteOutcome::Failed;
    };
    // Freshly-claimed indices, for rollback on deferral. Segments the
    // caller already owned (e.g. handed over via `ClaimTable::transfer`
    // by a Replace request) are deliberately not recorded: rollback must
    // return the table to its entry state, not free them.
    let mut newly: Vec<SegIdx> = Vec::new();
    let claim = |idx: SegIdx, newly: &mut Vec<SegIdx>| match claims.claim(idx, id) {
        Claim::Won => {
            newly.push(idx);
            true
        }
        Claim::AlreadyOurs => true,
        Claim::Lost => false,
    };
    let rollback = |newly: &[SegIdx]| {
        for &idx in newly {
            claims.release(idx, id);
        }
    };
    if cancel() {
        return RouteOutcome::Cancelled;
    }
    if !claim(space.index(src_seg), &mut newly) {
        return RouteOutcome::Deferred; // source segment owned by another net
    }
    let mut net = ParallelNet {
        spec: spec.clone(),
        pips: Vec::new(),
        segments: Vec::new(),
    };
    // Confine searches to the net's own neighbourhood unless the caller
    // pinned a region already.
    let bounded = MazeConfig {
        bbox: Some(cfg.bbox.unwrap_or_else(|| net_search_box(dev, spec))),
        ..cfg.clone()
    };
    let fallbacks = scratch.meters_for(obs).claim_bbox_fallbacks.clone();
    let mut starts = vec![(src_seg, 0u32)];
    for sink in &spec.sinks {
        let Some(goal) = dev.canonicalize(sink.rc, sink.wire) else {
            rollback(&newly);
            return RouteOutcome::Failed;
        };
        if claims.blocked_for(space.index(goal), id) {
            rollback(&newly);
            return RouteOutcome::Deferred;
        }
        let r = maze::box_then_device(
            &bounded,
            |mc| {
                // A cancelled request sees every segment as blocked, so
                // the search drains its open list and fails fast instead
                // of finishing a route nobody wants.
                maze::search(
                    dev,
                    &starts,
                    goal,
                    mc,
                    |seg| cancel() || claims.blocked_for(space.index(seg), id),
                    |_| 0,
                    scratch,
                    obs,
                )
            },
            || {
                // The net's own box may have hidden the only free detour;
                // the unbounded retry tells "boxed out" from "blocked". A
                // region the caller pinned stays pinned.
                if cfg.bbox.is_some() || cancel() {
                    return false;
                }
                fallbacks.inc();
                true
            },
        );
        let Some(r) = r else {
            rollback(&newly);
            // May be a cancellation, a true dead end, or a transient
            // block by claims that later roll back.
            return if cancel() {
                RouteOutcome::Cancelled
            } else {
                RouteOutcome::Deferred
            };
        };
        // Claim the new branch immediately: other workers' searches see
        // these segments as blocked from here on.
        for seg in &r.segments {
            if !claim(space.index(*seg), &mut newly) {
                // Another net won the segment mid-search.
                rollback(&newly);
                return RouteOutcome::Deferred;
            }
        }
        for seg in &r.segments {
            starts.push((*seg, 0));
            net.segments.push(*seg);
        }
        net.pips.extend_from_slice(&r.pips);
    }
    if cancel() {
        rollback(&newly);
        return RouteOutcome::Cancelled;
    }
    RouteOutcome::Committed(Box::new(net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Pin;
    use std::cell::Cell;
    use virtex::{wire, Device, Family};

    fn dev() -> Device {
        Device::new(Family::Xcv50)
    }

    fn grid_specs(n: usize) -> Vec<NetSpec> {
        (0..n)
            .map(|i| {
                let r = (2 + (i * 3) % 12) as u16;
                let c = (2 + (i * 5) % 16) as u16;
                NetSpec::new(
                    Pin::new(r, c, wire::S0_YQ),
                    vec![Pin::new(r + 2, c + 4, wire::S0_F3)],
                )
            })
            .collect()
    }

    /// Claim-route `specs` one after another over one shared table.
    fn claim_route(dev: &Device, specs: &[NetSpec]) -> Vec<ParallelNet> {
        let claims = ClaimTable::new(dev.seg_space());
        let mut scratch = MazeScratch::new(dev);
        let cfg = MazeConfig::default();
        let obs = Recorder::disabled();
        specs
            .iter()
            .zip(0..)
            .map(|(spec, i)| {
                match route_one_claiming(
                    dev,
                    spec,
                    i,
                    &claims,
                    &cfg,
                    &mut scratch,
                    || false,
                    TraceCtx::NONE,
                    &obs,
                ) {
                    RouteOutcome::Committed(net) => *net,
                    out => panic!("net {i}: {out:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn committed_nets_are_mutually_disjoint() {
        let dev = dev();
        let nets = claim_route(&dev, &grid_specs(12));
        let mut seen = std::collections::HashSet::new();
        for net in &nets {
            for seg in &net.segments {
                assert!(seen.insert(*seg), "segment {seg} used twice");
            }
        }
    }

    #[test]
    fn result_applies_cleanly_to_a_bitstream() {
        let dev = dev();
        let nets = claim_route(&dev, &grid_specs(6));
        let mut bits = jbits::Bitstream::new(&dev);
        for net in &nets {
            for &(rc, pip) in &net.pips {
                bits.set_pip(rc, pip.from, pip.to).unwrap();
            }
        }
        for net in &nets {
            for seg in &net.segments {
                assert!(bits.segment_drivers(*seg).len() <= 1);
            }
        }
    }

    #[test]
    fn cancellation_mid_search_releases_every_claim() {
        let dev = dev();
        let src = Pin::new(2, 2, wire::S0_YQ);
        let sink1 = Pin::new(4, 6, wire::S0_F3);
        let sink2 = Pin::new(8, 12, wire::S1_F1);
        // Calibrate: count the cancel probes a clean single-sink route
        // makes, so the real run can be cancelled just after the first
        // branch has committed its claims — i.e. provably mid-route,
        // during the second sink's search.
        let calibration = Cell::new(0u64);
        {
            let claims = ClaimTable::new(dev.seg_space());
            let mut scratch = MazeScratch::new(&dev);
            let out = route_one_claiming(
                &dev,
                &NetSpec::new(src, vec![sink1]),
                9,
                &claims,
                &MazeConfig::default(),
                &mut scratch,
                || {
                    calibration.set(calibration.get() + 1);
                    false
                },
                TraceCtx::NONE,
                &Recorder::disabled(),
            );
            assert!(matches!(out, RouteOutcome::Committed(_)));
        }
        let threshold = calibration.get() + 50;

        let claims = ClaimTable::new(dev.seg_space());
        let mut scratch = MazeScratch::new(&dev);
        let probes = Cell::new(0u64);
        let out = route_one_claiming(
            &dev,
            &NetSpec::new(src, vec![sink1, sink2]),
            7,
            &claims,
            &MazeConfig::default(),
            &mut scratch,
            || {
                probes.set(probes.get() + 1);
                probes.get() > threshold
            },
            TraceCtx::NONE,
            &Recorder::disabled(),
        );
        assert!(matches!(out, RouteOutcome::Cancelled), "got {out:?}");
        assert_eq!(
            claims.claimed().count(),
            0,
            "cancelled request leaked claims (first branch must roll back too)"
        );
    }

    /// Owner id of the foreign claims that wall a net in.
    const WALL: u32 = 99;

    /// A claim table in which every segment whose canonical origin lies
    /// in `region`, within columns `cols`, belongs to [`WALL`].
    fn walled(dev: &Device, region: BBox, cols: std::ops::RangeInclusive<u16>) -> ClaimTable {
        let claims = ClaimTable::new(dev.seg_space());
        for row in region.min.row..=region.max.row {
            for col in cols.clone() {
                for w in 0..virtex::wire::NUM_LOCAL_WIRES as u16 {
                    let Some(seg) = dev.canonicalize(RowCol::new(row, col), virtex::Wire(w)) else {
                        continue;
                    };
                    if region.contains(seg.rc) && cols.contains(&seg.rc.col) {
                        claims.claim(dev.seg_space().index(seg), WALL);
                    }
                }
            }
        }
        claims
    }

    #[test]
    fn boxed_out_net_retries_over_the_whole_device() {
        // A wall across the full height of the net's search box, wider
        // than a hex, leaves only detours around its ends: outside the
        // box. XCV300 has rows to spare above and below it.
        let dev = Device::new(Family::Xcv300);
        let spec = NetSpec::new(
            Pin::new(16, 4, wire::S0_YQ),
            vec![Pin::new(16, 40, wire::S0_F3)],
        );
        let sbox = net_search_box(&dev, &spec);
        assert!(sbox.min.row > 0 && sbox.max.row + 1 < dev.dims().rows);
        let mut scratch = MazeScratch::new(&dev);
        // Route the net against a fresh wall: its outcome, the fallback
        // count and the table afterwards.
        let mut route = |cfg: &MazeConfig| {
            let claims = walled(&dev, sbox, 16..=28);
            let obs = Recorder::enabled();
            let out = route_one_claiming(
                &dev,
                &spec,
                1,
                &claims,
                cfg,
                &mut scratch,
                || false,
                TraceCtx::NONE,
                &obs,
            );
            (out, obs.report().counter("parallel.bbox_fallbacks"), claims)
        };

        let (out, fallbacks, _) = route(&MazeConfig::default());
        let RouteOutcome::Committed(net) = out else {
            panic!("the unbounded retry must find the detour, got {out:?}");
        };
        assert!(net.segments.iter().any(|s| !sbox.contains(s.rc)));
        assert_eq!(fallbacks, Some(1));

        // A region the caller pinned is never widened.
        let (out, fallbacks, claims) = route(&MazeConfig {
            bbox: Some(sbox),
            ..MazeConfig::default()
        });
        assert!(matches!(out, RouteOutcome::Deferred), "got {out:?}");
        assert_eq!(fallbacks, None);
        assert!(claims.claimed().all(|(_, owner)| owner == WALL));
    }

    #[test]
    fn cancel_before_start_claims_nothing() {
        let dev = dev();
        let claims = ClaimTable::new(dev.seg_space());
        let mut scratch = MazeScratch::new(&dev);
        let spec = NetSpec::new(
            Pin::new(2, 2, wire::S0_YQ),
            vec![Pin::new(4, 6, wire::S0_F3)],
        );
        let out = route_one_claiming(
            &dev,
            &spec,
            1,
            &claims,
            &MazeConfig::default(),
            &mut scratch,
            || true,
            TraceCtx::NONE,
            &Recorder::disabled(),
        );
        assert!(matches!(out, RouteOutcome::Cancelled));
        assert_eq!(claims.claimed().count(), 0);
    }
}
