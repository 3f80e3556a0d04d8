//! Sequential reference model for the batch service.
//!
//! [`SequentialModel`] executes *successful* requests one at a time
//! against a plain [`NetDb`] — no claim table, no threads, no deques —
//! using the same maze search the service uses. Deterministic-mode
//! batches are serializations (one request executes at a time, and
//! failed attempts roll back exactly), so replaying a batch's completion
//! log through the model must reproduce the service's net database
//! bit-for-bit: same nets, same `NetId`s, same segment census. The
//! service stress tests assert exactly that.
//!
//! `NetId` equality holds because the model creates nets in the same
//! order the service's post-batch apply does (completion order), and
//! removals never touch the id counter.

use crate::request::{RequestId, RequestKind};
use jroute::maze::{self, MazeConfig, MazeScratch};
use jroute::pathfinder::NetSpec;
use jroute::{NetDb, NetId, Recorder};
use std::collections::HashMap;
use virtex::Device;

/// The single-threaded replay executor.
#[derive(Debug)]
pub struct SequentialModel<'d> {
    dev: &'d Device,
    db: NetDb,
    /// Nets each committed request produced, for victim resolution.
    committed: HashMap<RequestId, Vec<NetId>>,
    maze: MazeConfig,
    scratch: MazeScratch,
}

impl<'d> SequentialModel<'d> {
    /// Empty model over one device. Use the same `MazeConfig` as the
    /// service under test, or the searches will diverge.
    pub fn new(dev: &'d Device, maze: MazeConfig) -> Self {
        SequentialModel {
            dev,
            db: NetDb::new(dev.seg_space()),
            committed: HashMap::new(),
            maze,
            scratch: MazeScratch::new(dev),
        }
    }

    /// The model's net database, for census comparison.
    pub fn db(&self) -> &NetDb {
        &self.db
    }

    /// Nets a committed request produced (for victim cross-checks).
    pub fn nets_of(&self, id: RequestId) -> Option<&[NetId]> {
        self.committed.get(&id).map(|v| v.as_slice())
    }

    /// Apply one request the service reported as successful, identified
    /// by its id and kind (from the submitter's own records and the
    /// batch log).
    ///
    /// Panics if the request cannot be applied here: the service already
    /// committed it at this point of the schedule, so any failure is a
    /// real divergence between the concurrent machine and the model.
    pub fn apply(&mut self, req: RequestId, kind: &RequestKind) {
        match kind {
            RequestKind::Route(spec) => {
                let id = self.route(spec);
                self.committed.insert(req, vec![id]);
            }
            RequestKind::Unroute(target) => {
                let nets = self
                    .committed
                    .remove(target)
                    .expect("model: unroute victim was never committed");
                for id in nets {
                    self.db.remove_net(id).expect("model: victim net vanished");
                }
            }
            RequestKind::Replace { remove, add } => {
                // Removals precede the replacement routes, exactly like
                // the claim-custody handover in the live executor: the
                // replacements may reuse the victims' segments.
                for target in remove {
                    let nets = self
                        .committed
                        .remove(target)
                        .expect("model: replace victim was never committed");
                    for id in nets {
                        self.db.remove_net(id).expect("model: victim net vanished");
                    }
                }
                let ids: Vec<NetId> = add.iter().map(|spec| self.route(spec)).collect();
                self.committed.insert(req, ids);
            }
        }
    }

    /// Route one net with `NetDb` occupancy as the blocked set — the
    /// sequential twin of `route_one_claiming`.
    fn route(&mut self, spec: &NetSpec) -> NetId {
        let src = self
            .dev
            .canonicalize(spec.source.rc, spec.source.wire)
            .expect("model: source wire must exist");
        let id = self
            .db
            .create(spec.source, src)
            .expect("model: source segment already owned");
        // Same bounded-then-unbounded policy as `route_one_claiming`:
        // the model must take byte-identical search decisions.
        let bounded = MazeConfig {
            bbox: Some(
                self.maze
                    .bbox
                    .unwrap_or_else(|| jroute::parallel::net_search_box(self.dev, spec)),
            ),
            ..self.maze.clone()
        };
        let obs = Recorder::disabled();
        let mut starts = vec![(src, 0u32)];
        for sink in &spec.sinks {
            let goal = self
                .dev
                .canonicalize(sink.rc, sink.wire)
                .expect("model: sink wire must exist");
            let r = maze::box_then_device(
                &bounded,
                |mc| {
                    maze::search(
                        self.dev,
                        &starts,
                        goal,
                        mc,
                        |seg| self.db.owner(seg).is_some_and(|o| o != id),
                        |_| 0,
                        &mut self.scratch,
                        &obs,
                    )
                },
                || self.maze.bbox.is_none(),
            )
            .expect("model: search failed where the service succeeded");
            for (k, &(rc, pip)) in r.pips.iter().enumerate() {
                self.db
                    .add_pip(id, rc, pip, r.segments[k])
                    .expect("model: contention on a segment the search chose");
            }
            for &seg in &r.segments {
                starts.push((seg, 0));
            }
            self.db.add_sink(id, *sink);
        }
        id
    }
}
