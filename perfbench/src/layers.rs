//! Spans around the calls the traced run makes into each layer.
//!
//! Every op of the traced replay is a root span `op` whose detail is the
//! request id; each call into a layer's public entry point is a child
//! span named after the layer (`engine.solve`, `exec.run`, ...). Spans
//! stay in an in-memory `sjtrace::Tracer` and are written out once, as
//! Chrome trace JSON, when the run ends. Layer times are read back from
//! the spans: a span's self time is its duration minus the part of it
//! its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;

use sjdf::metrics::MetricsReport;
use sjtrace::{EventKind, RecordedSpan, SpanEvent, SpanGuard, SpanId, Tracer};

use crate::measure::{median, Metric};

/// Enough room for every span of a traced run; a run that overflows it
/// fails instead of reporting layer times with spans missing.
const CAPACITY: usize = 1 << 20;

pub struct LayerTrace {
    tracer: Tracer,
}

impl LayerTrace {
    pub fn new() -> LayerTrace {
        let tracer = Tracer::with_capacity(CAPACITY);
        tracer.enable();
        LayerTrace { tracer }
    }

    /// Open the root span of one op.
    pub fn op(&self, request_id: &str) -> SpanGuard {
        let mut span = self.tracer.span("op");
        span.set_detail(format!("request={request_id}"));
        span
    }

    /// Run `f` inside a span named `layer`, parented to the innermost
    /// open span on this thread.
    pub fn call<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.tracer.span(layer);
        f()
    }

    /// Open a span named `layer` (closed when the guard drops).
    pub fn span(&self, layer: &'static str) -> SpanGuard {
        self.tracer.span(layer)
    }

    /// Microseconds on this trace's clock.
    pub fn now_us(&self) -> u64 {
        self.tracer.now_us()
    }

    /// Record an interval measured elsewhere (already on this trace's
    /// clock) as a child of `parent`.
    pub fn record(&self, layer: &'static str, parent: &SpanGuard, start_us: u64, end_us: u64) {
        self.tracer.record_span(RecordedSpan {
            name: layer,
            detail: String::new(),
            parent: parent.id(),
            root: parent.root(),
            start_us,
            end_us,
            failed: false,
            kind: EventKind::Span,
        });
    }

    /// Close the trace: take every span out of memory, write them to
    /// `out` as Chrome trace JSON, and return them.
    pub fn finish(self, out: &Path) -> Result<Vec<SpanEvent>, String> {
        if self.tracer.dropped() > 0 {
            return Err(format!(
                "trace overflowed: {} spans dropped",
                self.tracer.dropped()
            ));
        }
        let events = self.tracer.drain();
        sjtrace::validate(&events).map_err(|e| format!("invalid span tree: {e}"))?;
        let json =
            sjtrace::export::chrome_trace_json(&events, &self.tracer.thread_names(), "perfbench");
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(out, json).map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(events)
    }
}

/// Per-op times of each span name, in milliseconds.
pub struct OpTimes {
    /// Span durations minus what their children cover (`op` is the part
    /// of each op no layer span covers).
    self_ms: Vec<BTreeMap<String, f64>>,
    /// Whole span durations.
    total_ms: Vec<BTreeMap<String, f64>>,
}

impl OpTimes {
    pub fn new(events: &[SpanEvent]) -> OpTimes {
        let mut children: BTreeMap<SpanId, Vec<&SpanEvent>> = BTreeMap::new();
        for e in events.iter().filter(|e| e.kind == EventKind::Span) {
            children.entry(e.parent).or_default().push(e);
        }
        let mut times = OpTimes {
            self_ms: Vec::new(),
            total_ms: Vec::new(),
        };
        for root in events.iter().filter(|e| e.parent == 0 && e.name == "op") {
            let (mut own, mut total) = (BTreeMap::new(), BTreeMap::new());
            let mut stack = vec![root];
            while let Some(span) = stack.pop() {
                let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
                let covered = covered_us(kids.iter().map(|k| (k.start_us, k.end_us)).collect());
                let self_us = span.duration_us().saturating_sub(covered);
                *own.entry(span.name.clone()).or_default() += self_us as f64 / 1e3;
                *total.entry(span.name.clone()).or_default() += span.duration_us() as f64 / 1e3;
                stack.extend(kids.iter().copied());
            }
            times.self_ms.push(own);
            times.total_ms.push(total);
        }
        times
    }

    /// Median over ops of `layer`'s self time (0 for ops it did not run in).
    pub fn median_self(&self, layer: &str) -> f64 {
        median_of(&self.self_ms, layer)
    }

    /// Median over ops of `layer`'s whole duration.
    pub fn median_total(&self, layer: &str) -> f64 {
        median_of(&self.total_ms, layer)
    }
}

fn median_of(per_op: &[BTreeMap<String, f64>], layer: &str) -> f64 {
    let values: Vec<f64> = per_op
        .iter()
        .map(|op| op.get(layer).copied().unwrap_or(0.0))
        .collect();
    median(&values)
}

/// Length of the union of `[start, end)` intervals, in microseconds.
pub fn covered_us(intervals: Vec<(u64, u64)>) -> u64 {
    merged(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Disjoint, sorted intervals covering the same time as `intervals`.
pub fn merged(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (start, end) in intervals {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.solve_ms", "ms"),
    ("engine.datasets_considered", "count"),
    ("exec.run_ms", "ms"),
    ("exec.tasks", "count"),
    ("exec.shuffle_bytes", "bytes"),
    ("exec.records_out", "count"),
    ("exec.stage_cache_hit_ratio", "ratio"),
    ("exec.stage_cache_evictions", "count"),
    ("serve.handle_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.response_bytes", "bytes"),
    ("wire.transport_ms", "ms"),
    ("stream.append_ms", "ms"),
    ("stream.emissions_per_append", "count"),
    ("stream.invalidated_per_append", "count"),
    ("stream.late_dropped", "count"),
    ("stream.duplicates_dropped", "count"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.remainder_ms", "ms"),
];

/// Per-layer metric values of one traced run.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Executor counters accumulated on one context between two of its
    /// reports, spread over `ops` ops.
    pub fn set_exec_counters(&mut self, after: &MetricsReport, before: &MetricsReport, ops: usize) {
        let d = after.delta_since(before);
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let lookups = d.cache_hits + d.cache_misses;
        self.set(
            "exec.tasks",
            per_op(d.ops.iter().map(|o| o.metrics.tasks).sum()),
        );
        self.set("exec.shuffle_bytes", per_op(d.total_shuffle_bytes()));
        self.set("exec.records_out", per_op(d.total_records_out()));
        if lookups > 0 {
            self.set(
                "exec.stage_cache_hit_ratio",
                d.cache_hits as f64 / lookups as f64,
            );
        }
        self.set("exec.stage_cache_evictions", per_op(d.cache_evictions));
    }

    /// Record the blocking-path account: the layer times summed along
    /// the path an op waits on, against the untraced median op latency.
    /// The remainder is transport plus tracing overhead.
    pub fn set_account(&mut self, workload: &str, untraced_p50: f64, path: &[(&str, f64)]) {
        let sum: f64 = path.iter().map(|(_, v)| v).sum();
        self.set("trace.untraced_op_p50_ms", untraced_p50);
        self.set("trace.layer_sum_ms", sum);
        self.set("trace.remainder_ms", untraced_p50 - sum);
        eprintln!("{workload}: blocking path (median ms per op):");
        for (layer, v) in path {
            eprintln!("  {layer:<28} {v:>10.3}");
        }
        eprintln!("  {:<28} {sum:>10.3}", "layers total");
        eprintln!("  {:<28} {untraced_p50:>10.3}", "untraced op_p50_ms");
        eprintln!(
            "  {:<28} {:>10.3}  (transport plus tracing overhead)",
            "remainder",
            untraced_p50 - sum
        );
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}
