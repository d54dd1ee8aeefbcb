//! Lock-free metrics: counters, gauges, and histograms over plain atomics.
//!
//! A [`MetricsRegistry`] maps instrument names (convention:
//! `blueprint.<crate>.<name>`) to atomic cells. Components resolve their
//! instruments **once** at wiring time — [`Counter`], [`Gauge`], and
//! [`Histogram`] are cheap cloneable handles directly onto the cells — so
//! the hot path is a single relaxed `fetch_add` with no map lookup and no
//! lock. The stream store's own counters are such instruments.
//!
//! A *disarmed* registry (the default) hands out inert instruments whose
//! operations are a no-op behind an `Option` check, so instrumented code
//! costs nothing when metrics are off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Monotonic event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disarmed).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Point-in-time level, e.g. queue depth.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Overwrites the level.
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disarmed).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Power-of-two bucket index: values land in bucket `b` when
/// `2^(b-1) <= value < 2^b` (value 0 lands in bucket 0).
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`: `2^i - 1` (bucket 0 holds only 0).
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Cells behind one histogram: count/sum plus 65 power-of-two buckets.
#[derive(Debug)]
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Distribution of recorded values (e.g. per-node latencies).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Option<Arc<HistCells>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.cells {
            cells.record(value);
        }
    }

    /// Number of observations so far (0 when disarmed).
    pub fn count(&self) -> u64 {
        self.cells
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

/// Readout of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty power-of-two buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Full readout of a registry, with deterministically ordered names.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by instrument name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by instrument name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram readouts by instrument name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Renders `name value` lines, one instrument per line, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name} count={} sum={} min={} max={} mean={:.1}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            ));
        }
        out
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistCells>>>,
}

/// Registry of named instruments.
///
/// Disarmed by default ([`MetricsRegistry::disarmed`], [`Default`]); arm
/// with [`MetricsRegistry::new`]. Instrument names follow
/// `blueprint.<crate>.<name>`.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// An armed, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// A disarmed registry: instruments it hands out are inert.
    pub fn disarmed() -> Self {
        MetricsRegistry::default()
    }

    /// True when instruments record.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        if let Some(cell) = inner.counters.read().get(name) {
            return Counter {
                cell: Some(Arc::clone(cell)),
            };
        }
        let mut map = inner.counters.write();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// Resolves (registering on first use) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        if let Some(cell) = inner.gauges.read().get(name) {
            return Gauge {
                cell: Some(Arc::clone(cell)),
            };
        }
        let mut map = inner.gauges.write();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// Resolves (registering on first use) the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        if let Some(cells) = inner.histograms.read().get(name) {
            return Histogram {
                cells: Some(Arc::clone(cells)),
            };
        }
        let mut map = inner.histograms.write();
        let cells = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCells::new()));
        Histogram {
            cells: Some(Arc::clone(cells)),
        }
    }

    /// Reads every instrument. Disarmed registries yield an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: inner
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_instruments_are_inert() {
        let m = MetricsRegistry::disarmed();
        assert!(!m.is_armed());
        let c = m.counter("blueprint.test.events");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = m.gauge("blueprint.test.depth");
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = m.histogram("blueprint.test.latency");
        h.record(10);
        assert_eq!(h.count(), 0);
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn counters_share_cells_by_name() {
        let m = MetricsRegistry::new();
        let a = m.counter("blueprint.test.events");
        let b = m.counter("blueprint.test.events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(m.snapshot().counter("blueprint.test.events"), 3);
    }

    #[test]
    fn gauges_track_levels() {
        let m = MetricsRegistry::new();
        let g = m.gauge("blueprint.test.depth");
        g.set(4);
        g.add(-1);
        assert_eq!(g.get(), 3);
        assert_eq!(m.snapshot().gauge("blueprint.test.depth"), 3);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = MetricsRegistry::new();
        let h = m.histogram("blueprint.test.latency");
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let snap = m.snapshot().histograms["blueprint.test.latency"].clone();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1000);
        assert!((snap.mean() - 201.2).abs() < 1e-9);
        // 0 → bucket 0; 1 → [1,1]; 2 and 3 → [2,3]; 1000 → [512,1023].
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (1023, 1)]);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let m = MetricsRegistry::new();
        m.counter("blueprint.b.x").inc();
        m.counter("blueprint.a.x").inc();
        let names: Vec<_> = m.snapshot().counters.keys().cloned().collect();
        assert_eq!(names, ["blueprint.a.x", "blueprint.b.x"]);
        assert!(m.snapshot().render_text().starts_with("blueprint.a.x 1\n"));
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let m = MetricsRegistry::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = m.counter("blueprint.test.events");
                let h = m.histogram("blueprint.test.latency");
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("blueprint.test.events"), 8_000);
        assert_eq!(snap.histograms["blueprint.test.latency"].count, 8_000);
    }
}
