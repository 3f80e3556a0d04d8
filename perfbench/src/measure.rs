//! Measurement helpers: quantiles, the heap high-water mark, and the
//! fold of recorded spans into per-name self time.

use jroute_obs::{Histogram, Recorder, Report, SpanRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The critical-path delay of a configuration, in ns, from the delays
/// (in ps) of all its source-to-sink connections: the mean of the
/// slowest 1 % of them, and of at least ten. The single slowest
/// connection swings with the seed far more than the tail does.
pub fn critical_tail_ns(mut delays_ps: Vec<u64>) -> f64 {
    delays_ps.sort_unstable_by(|a, b| b.cmp(a));
    let n = (delays_ps.len() / 100).max(10).min(delays_ps.len()).max(1);
    delays_ps.iter().take(n).sum::<u64>() as f64 / n as f64 / 1e3
}

/// Quantile `q` of a log2-bucketed histogram, interpolated linearly
/// within the bucket that holds it (the histogram alone can only name
/// the bucket). Bucket counts are recovered rank by rank through the
/// histogram's own quantile, which reports the bucket of a given rank.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let bucket = |v: u64| 64 - v.leading_zeros();
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for k in 1..=n {
        // Asks for rank exactly k: the histogram rounds q * n up.
        let v = h.quantile((k as f64 - 0.5) / n as f64);
        *counts.entry(bucket(v)).or_insert(0) += 1;
    }
    let rank = q * n as f64;
    let mut below = 0u64;
    for (&b, &c) in &counts {
        if (below + c) as f64 >= rank {
            let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
            let hi = if b == 0 { 0 } else { (lo << 1) - 1 };
            let (lo, hi) = (lo.max(h.min()) as f64, hi.min(h.max()) as f64);
            return lo + (hi - lo) * (rank - below as f64) / c as f64;
        }
        below += c;
    }
    h.max() as f64
}

/// The global allocator of the benchmark binary: the system allocator,
/// plus a count of live bytes and their high-water mark.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract and `ptr` came from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Highest number of heap bytes live at once since the process started.
pub fn peak_heap_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// The span whose individual durations a [`Fold`] keeps.
pub const KEEP: &str = "svc.batch";

/// Per-name totals of the spans and counters recorded over a traced
/// phase. The recorder keeps raw spans in a bounded buffer, so a phase
/// drains it after every op ([`Fold::drain`]) instead of once at the end.
#[derive(Debug, Default)]
pub struct Fold {
    /// `name -> (spans, inclusive ns, self ns)`.
    pub spans: BTreeMap<&'static str, (u64, u64, u64)>,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Histogram>,
    /// Durations of every span named [`KEEP`], for exact quantiles.
    pub kept_ns: Vec<u64>,
    /// Raw spans the recorder shed before a drain (0 when the fold is
    /// complete).
    pub dropped: u64,
}

impl Fold {
    /// Fold everything `rec` holds into the totals and clear it.
    pub fn drain(&mut self, rec: &Recorder) {
        let report = rec.report();
        rec.reset();
        self.add(&report);
    }

    fn add(&mut self, report: &Report) {
        for (name, v) in &report.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for row in &report.hists {
            self.hists
                .entry(row.name.clone())
                .or_default()
                .merge(&row.hist);
        }
        self.dropped += report.spans_dropped;
        for (span, self_ns) in self_times(&report.spans) {
            if span.name == KEEP {
                self.kept_ns.push(span.dur_ns);
            }
            let e = self.spans.entry(span.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += span.dur_ns;
            e.2 += self_ns;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Inclusive time of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.1)
    }

    /// Self time of every span called `name`, in ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.2)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }
}

/// Each span with its self time: its duration minus the part of its
/// interval that its child spans (on any thread) cover.
fn self_times(spans: &[SpanRecord]) -> impl Iterator<Item = (&SpanRecord, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans.iter().map(move |s| {
        let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
        let mut covered = 0;
        if let Some(kids) = children.get(&s.span_id) {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(start), b.min(end)))
                .filter(|&(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        (s, s.dur_ns - covered)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 4.6);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, dur| SpanRecord {
            name: "s",
            thread: 0,
            depth: 0,
            start_ns: start,
            dur_ns: dur,
            note: 0,
            span_id: id,
            parent,
            trace: 1,
        };
        // Parent [0, 100); children [10, 40) and [30, 60) overlap, and
        // [90, 120) sticks out past the parent's end.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 30, 30),
            span(4, 1, 90, 30),
        ];
        let got: Vec<u64> = self_times(&spans).map(|(_, t)| t).collect();
        assert_eq!(got, vec![100 - 50 - 10, 30, 30, 30]);
    }
}
