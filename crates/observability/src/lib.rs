//! Observability for the blueprint runtime: sim-clock tracing spans, a
//! lock-free metrics registry, and trace exporters.
//!
//! Everything here is deterministic by construction: spans are stamped from
//! the shared [`SimClock`] (the same virtual clock every component charges
//! latency to), so a deterministic execution produces a byte-stable trace
//! that tests can compare exactly.
//!
//! The two entry points are [`Tracer`] (span trees and stream flow edges,
//! exported via [`Trace`] as Chrome `trace_event` JSON, a text timeline or
//! a sequence diagram) and [`MetricsRegistry`]
//! (named atomic counters/gauges/histograms, read out as a
//! [`MetricsSnapshot`]). Both are cheap cloneable handles that default to a
//! *disarmed* state where every operation is a no-op, so instrumentation can
//! stay wired in permanently at negligible cost.
//!
//! ```
//! use blueprint_observability::{Observability, SimClock};
//!
//! let clock = SimClock::new();
//! let obs = Observability::armed(clock.clone());
//! let span = obs.tracer.span("example", "work");
//! clock.advance_micros(25);
//! obs.metrics.counter("blueprint.example.items").inc();
//! span.end();
//!
//! let trace = obs.tracer.snapshot();
//! assert_eq!(trace.spans[0].duration_micros(), 25);
//! assert_eq!(obs.metrics.snapshot().counter("blueprint.example.items"), 1);
//! ```

pub mod clock;
pub mod export;
pub mod metrics;
pub mod span;

pub use clock::SimClock;
pub use export::Trace;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{FlowDirection, FlowRecord, SpanHandle, SpanId, SpanKind, SpanRecord, Tracer};

/// A tracer and a metrics registry travelling together: the runtime's one
/// telemetry pipeline. The stream store carries it, and every component
/// that holds the store resolves its instruments from it once. Both halves
/// are independently armable, so metrics can be on while tracing is off and
/// vice versa.
#[derive(Clone, Default)]
pub struct Observability {
    /// Span recorder (disarmed by default).
    pub tracer: Tracer,
    /// Instrument registry (disarmed by default).
    pub metrics: MetricsRegistry,
}

impl Observability {
    /// Both halves armed, spans stamped from `clock`.
    pub fn armed(clock: SimClock) -> Self {
        Observability {
            tracer: Tracer::new(clock),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Both halves disarmed: every operation is a no-op.
    pub fn disarmed() -> Self {
        Observability::default()
    }

    /// True when either half records anything.
    pub fn is_armed(&self) -> bool {
        self.tracer.is_armed() || self.metrics.is_armed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_bundle_is_inert() {
        let obs = Observability::disarmed();
        assert!(!obs.is_armed());
        obs.tracer.span("test", "x").end();
        obs.metrics.counter("blueprint.test.x").inc();
        assert!(obs.tracer.is_empty());
        assert_eq!(obs.metrics.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn armed_bundle_records_both_halves() {
        let clock = SimClock::new();
        let obs = Observability::armed(clock.clone());
        assert!(obs.is_armed());
        let span = obs.tracer.span("test", "x");
        clock.advance_micros(3);
        span.end();
        obs.metrics.counter("blueprint.test.x").inc();
        assert_eq!(obs.tracer.len(), 1);
        assert_eq!(obs.metrics.snapshot().counter("blueprint.test.x"), 1);
    }
}
