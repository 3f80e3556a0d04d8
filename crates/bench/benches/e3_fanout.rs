//! E3 (§3.1): fan-out routing with tree reuse vs per-sink routing.
//!
//! Paper: *"This call should be used instead of connecting each sink
//! individually, since it minimizes the routing resources used."* We
//! route one source to K sinks (a) with `route_fanout` (greedy
//! nearest-first with tree reuse) and (b) each sink from scratch with no
//! reuse, and compare segments consumed.

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::maze::{self, MazeConfig, MazeScratch};
use jroute::{EndPoint, Recorder, Router};
use jroute_bench::SEED;
use jroute_workloads::fanout_spec;
use virtex::{Device, Family, RowCol};

fn dev() -> Device {
    Device::new(Family::Xcv300)
}

/// Route with the paper's fan-out call.
fn with_reuse(dev: &Device, fanout: usize) -> usize {
    let mut rng = DetRng::seed_from_u64(SEED);
    let spec = fanout_spec(dev, RowCol::new(16, 24), fanout, 8, &mut rng);
    let mut r = Router::new(dev);
    let sinks: Vec<EndPoint> = spec.sinks.iter().map(|&p| p.into()).collect();
    r.route_fanout(&spec.source.into(), &sinks).unwrap();
    r.nets().used_segments()
}

/// Route each sink independently, sharing only the OMUX stage.
///
/// A slice output physically reaches the fabric through two OMUX lines,
/// so a truly share-nothing baseline is unroutable beyond fan-out 2; the
/// honest naive baseline reuses the OMUX departure segments (as repeated
/// `route(src, sink)` calls would) but duplicates every fabric wire.
fn without_reuse(dev: &Device, fanout: usize) -> usize {
    let mut rng = DetRng::seed_from_u64(SEED);
    let spec = fanout_spec(dev, RowCol::new(16, 24), fanout, 8, &mut rng);
    let mut scratch = MazeScratch::new(dev);
    let src = dev.canonicalize(spec.source.rc, spec.source.wire).unwrap();
    let mut used: std::collections::HashSet<virtex::Segment> = std::collections::HashSet::new();
    let mut starts: Vec<(virtex::Segment, u32)> = vec![(src, 0)];
    for sink in &spec.sinks {
        let goal = dev.canonicalize(sink.rc, sink.wire).unwrap();
        let r = maze::search(
            dev,
            &starts,
            goal,
            &MazeConfig::default(),
            |s| used.contains(&s),
            |_| 0,
            &mut scratch,
            &Recorder::disabled(),
        )
        .expect("routable");
        for seg in &r.segments {
            used.insert(*seg);
            if matches!(seg.wire.kind(), virtex::WireKind::Out(_)) {
                starts.push((*seg, 0));
            }
        }
    }
    used.len() + 1 // + source segment, to match the netdb census
}

fn table() {
    eprintln!("\n=== E3: fan-out — segments used, reuse vs per-sink (paper §3.1) ===");
    eprintln!(
        "{:<8} {:>12} {:>12} {:>9}",
        "fanout", "route_fanout", "per-sink", "saving"
    );
    let dev = dev();
    for fanout in [2usize, 4, 8, 16, 32] {
        let a = with_reuse(&dev, fanout);
        let b = without_reuse(&dev, fanout);
        eprintln!(
            "{:<8} {:>12} {:>12} {:>8.0}%",
            fanout,
            a,
            b,
            100.0 * (b as f64 - a as f64) / b as f64
        );
        assert!(a <= b, "reuse must never use more resources");
    }
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let mut g = c.benchmark_group("e3");
    for fanout in [4usize, 16] {
        g.bench_function(format!("route_fanout_{fanout}"), |b| {
            b.iter_batched(|| (), |_| with_reuse(&dev, fanout), BatchSize::SmallInput)
        });
        g.bench_function(format!("per_sink_{fanout}"), |b| {
            b.iter_batched(
                || (),
                |_| without_reuse(&dev, fanout),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
