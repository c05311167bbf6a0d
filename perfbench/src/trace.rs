//! In-memory span recording around calls into each layer, exported at the
//! end of a traced run as Perfetto/Chrome-trace JSON through `simtel`, so
//! the benchmark's traces open beside the DES traces.

use std::path::Path;
use std::time::Instant;

use sim_core::SimTime;
use simtel::{Category, Telemetry, TelemetryConfig};

/// One recorded span: a call into `name`, caused by `cause` (the span
/// whose output it consumed), belonging to step or run `id`.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub cause: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Spans past `cap` are counted, not kept, so a
/// long traced run stays bounded in memory.
pub struct Tracer {
    base: Instant,
    cap: usize,
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl Tracer {
    pub fn new(base: Instant, cap: usize) -> Tracer {
        Tracer {
            base,
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
        }
    }

    /// Records `[start, end]` for a call into `name`.
    pub fn span(
        &mut self,
        name: &'static str,
        cause: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            cause,
            id,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Moves another thread's spans into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as Chrome-trace JSON: one track per layer (the
    /// name's first dotted component), the span name carrying its step id
    /// and cause.
    pub fn export(&self, path: &Path) -> std::io::Result<()> {
        let tel = Telemetry::new(TelemetryConfig::all());
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let category = match layer {
                "sim_core" => Category::Kernel,
                "stream" | "datatap" => Category::Transport,
                "evpath" => Category::Overlay,
                "fault" => Category::Fault,
                _ => Category::Container,
            };
            tel.span(
                category,
                layer,
                &format!("{} #{} <- {}", s.name, s.id, s.cause),
                SimTime::from_nanos(s.start_ns),
                SimTime::from_nanos(s.end_ns.max(s.start_ns)),
            );
        }
        std::fs::write(path, simtel::export::chrome_trace_json(&tel.snapshot()))
    }
}
