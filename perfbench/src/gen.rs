//! Seeded input generators.
//!
//! Every input a workload hands to the programs is made here from the
//! run's `--seed`; the programs never see the seed. The same seed gives
//! the same inputs. A [`PinPool`] hands out each logic-block pin at most
//! once while it is live, so no two live nets share a pin: a reused pin
//! would make a request fail on contention the workload created itself.

use detrand::{DetRng, SliceRandom};
use jroute::pathfinder::NetSpec;
use jroute::Pin;
use jroute_workloads::congestion_cliques;
use std::collections::HashSet;
use virtex::wire::{self, slice_in_pin};
use virtex::{Device, RowCol};

/// A rectangle of tiles, `rows.0..rows.1` by `cols.0..cols.1`.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    pub rows: (u16, u16),
    pub cols: (u16, u16),
}

impl Region {
    pub fn tile(&self, rng: &mut DetRng) -> RowCol {
        RowCol::new(
            rng.gen_range(self.rows.0..self.rows.1),
            rng.gen_range(self.cols.0..self.cols.1),
        )
    }

    /// A tile of this region within `span` rows and columns of `around`.
    pub fn tile_near(&self, around: RowCol, span: u16, rng: &mut DetRng) -> RowCol {
        let r = around.row.saturating_sub(span).max(self.rows.0)
            ..=(around.row + span).min(self.rows.1 - 1);
        let c = around.col.saturating_sub(span).max(self.cols.0)
            ..=(around.col + span).min(self.cols.1 - 1);
        RowCol::new(rng.gen_range(r), rng.gen_range(c))
    }
}

/// Pins in use by live nets.
#[derive(Debug, Default)]
pub struct PinPool {
    used: HashSet<Pin>,
    /// With `Some`, a tile holds at most one live pin: the tiles in use.
    tiles: Option<HashSet<RowCol>>,
}

impl PinPool {
    /// A pool that also gives each tile to at most one live pin, so no
    /// two live nets crowd one tile's input and output wires.
    pub fn one_per_tile() -> Self {
        PinPool {
            used: HashSet::new(),
            tiles: Some(HashSet::new()),
        }
    }

    fn take(&mut self, mut candidates: Vec<Pin>, rng: &mut DetRng) -> Option<Pin> {
        candidates.retain(|p| !self.used.contains(p));
        let pin = *candidates.choose(rng)?;
        if let Some(tiles) = &mut self.tiles {
            if !tiles.insert(pin.rc) {
                return None;
            }
        }
        self.used.insert(pin);
        Some(pin)
    }

    fn free(&mut self, pin: &Pin) {
        self.used.remove(pin);
        if let Some(tiles) = &mut self.tiles {
            tiles.remove(&pin.rc);
        }
    }

    /// A free slice output (any of the eight) at `rc`.
    pub fn source_at(&mut self, rc: RowCol, rng: &mut DetRng) -> Option<Pin> {
        let all = (0..2)
            .flat_map(|s| (0..4).map(move |p| Pin::at(rc, wire::slice_out(s, p))))
            .collect();
        self.take(all, rng)
    }

    /// A free LUT input (F1..G4 of either slice) at `rc`.
    pub fn sink_at(&mut self, rc: RowCol, rng: &mut DetRng) -> Option<Pin> {
        let all = (0..2usize)
            .flat_map(|s| {
                (slice_in_pin::F1..=slice_in_pin::G4)
                    .map(move |p| Pin::at(rc, wire::slice_in(s, p)))
            })
            .collect();
        self.take(all, rng)
    }

    /// Return the pins of a net that is no longer live.
    pub fn release(&mut self, spec: &NetSpec) {
        self.free(&spec.source);
        for s in &spec.sinks {
            self.free(s);
        }
    }

    /// A net inside `region` whose source and `fanout` sinks are all
    /// free, with every sink within `span` tiles of the source.
    pub fn net(&mut self, region: Region, fanout: usize, span: u16, rng: &mut DetRng) -> NetSpec {
        for _ in 0..10_000 {
            let Some(source) = self.source_at(region.tile(rng), rng) else {
                continue;
            };
            let mut sinks = Vec::with_capacity(fanout);
            for _ in 0..fanout * 100 {
                if sinks.len() == fanout {
                    break;
                }
                let rc = region.tile_near(source.rc, span, rng);
                if rc == source.rc {
                    continue;
                }
                if let Some(pin) = self.sink_at(rc, rng) {
                    sinks.push(pin);
                }
            }
            let spec = NetSpec::new(source, sinks);
            if spec.sinks.len() == fanout {
                return spec;
            }
            self.release(&spec);
        }
        panic!("pin pool exhausted in {region:?}");
    }
}

/// One negotiation netlist: `cliques` groups of `per_clique` single-sink
/// nets whose bounding boxes all span the same `window`-square (so they
/// overlap pairwise and must negotiate), drawn by
/// `jroute_workloads::congestion_cliques`, plus `fanouts` multi-sink nets
/// of 2..=`max_fanout` sinks anywhere on the device, on pins the cliques
/// left free.
pub fn clique_netlist(
    dev: &Device,
    cliques: usize,
    per_clique: usize,
    window: u16,
    fanouts: usize,
    max_fanout: usize,
    rng: &mut DetRng,
) -> Vec<NetSpec> {
    let mut specs = congestion_cliques(dev, cliques, per_clique, window, rng);
    let mut pool = PinPool::default();
    for spec in &specs {
        pool.used.insert(spec.source);
        pool.used.extend(spec.sinks.iter().copied());
    }
    let dims = dev.dims();
    let whole = Region {
        rows: (0, dims.rows),
        cols: (0, dims.cols),
    };
    for _ in 0..fanouts {
        let fanout = rng.gen_range(2..=max_fanout);
        specs.push(pool.net(whole, fanout, 12, rng));
    }
    specs
}
