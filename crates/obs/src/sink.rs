//! Event sinks and the per-cache [`Recorder`].

use crate::event::RecoveryEvent;
use crate::heatmap::Heatmaps;
use crate::hist::RecoveryHistograms;
use crate::span::PhaseTimes;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Destination for emitted [`RecoveryEvent`]s.
///
/// Implementations must be cheap per event; campaign hot paths call
/// `record` once per repair attempt. Custom sinks (sockets, channels,
/// compressed files) plug in via [`Recorder::custom`].
pub trait EventSink: Send {
    /// Accepts one event.
    fn record(&mut self, event: &RecoveryEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Discards everything. Used by [`Recorder::disabled`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: &RecoveryEvent) {}
}

/// In-memory sink: bounded ring buffer or unbounded vector.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    events: VecDeque<RecoveryEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl MemorySink {
    /// Keeps at most `capacity` recent events, evicting the oldest.
    pub fn ring(capacity: usize) -> Self {
        MemorySink {
            events: VecDeque::new(),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Keeps every event (campaign forensics; memory grows with the log).
    pub fn unbounded() -> Self {
        MemorySink {
            events: VecDeque::new(),
            capacity: None,
            dropped: 0,
        }
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RecoveryEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or suppressed by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns every retained event, oldest first.
    pub fn drain(&mut self) -> Vec<RecoveryEvent> {
        self.events.drain(..).collect()
    }

    /// Clears the retained events (the dropped counter survives).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, event: &RecoveryEvent) {
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(*event);
    }
}

/// Streams events as JSON Lines to any writer (typically a file).
///
/// Durability: buffered lines are flushed on [`Drop`] (so a panic that
/// unwinds past the owner still lands the tail of the log on disk) and
/// every [`JsonlSink::FLUSH_EVERY`] records (so even a `process::exit`
/// path, which skips destructors, truncates at most one batch — forensics
/// reads this log after crashes, a mostly-written log beats an empty one).
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
    written: u64,
}

impl JsonlSink {
    /// Records between forced flushes of the underlying writer.
    pub const FLUSH_EVERY: u64 = 256;

    /// A sink appending JSONL records to `writer`.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::new(writer),
            written: 0,
        }
    }

    /// A sink writing to a freshly created (truncated) file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("written", &self.written)
            .finish()
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, event: &RecoveryEvent) {
        let _ = writeln!(self.out, "{}", event.to_jsonl());
        self.written += 1;
        if self.written.is_multiple_of(Self::FLUSH_EVERY) {
            let _ = self.out.flush();
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[derive(Default)]
enum SinkKind {
    #[default]
    Null,
    Memory(MemorySink),
    Custom(Box<dyn EventSink>),
}

impl std::fmt::Debug for SinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkKind::Null => f.write_str("Null"),
            SinkKind::Memory(m) => f.debug_tuple("Memory").field(m).finish(),
            SinkKind::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// The telemetry attachment a cache (or campaign worker) owns: an event
/// sink resolved at construction, the recovery histograms, the phase-span
/// accumulator, and the current interval stamp.
///
/// The whole recorder is gated on [`Recorder::enabled`]: every emission
/// site checks it first, so a disabled recorder costs one predictable
/// branch — no event is constructed, no histogram touched, no clock read.
#[derive(Debug, Default)]
pub struct Recorder {
    sink: SinkKind,
    enabled: bool,
    interval: u64,
    trace: u64,
    /// Optional spatial tap: every emitted event is also charged against
    /// the heatmap grids (wait-free; see [`Heatmaps::record_event`]).
    tap: Option<Arc<Heatmaps>>,
    /// Histograms populated by the recovery paths.
    pub hists: RecoveryHistograms,
    /// Phase spans populated by campaigns (and the in-cache recover span).
    pub phases: PhaseTimes,
}

impl Recorder {
    fn with_sink(sink: SinkKind, enabled: bool) -> Self {
        Recorder {
            sink,
            enabled,
            interval: 0,
            trace: 0,
            tap: None,
            hists: RecoveryHistograms::default(),
            phases: PhaseTimes::default(),
        }
    }

    /// The zero-cost recorder: nothing is collected.
    pub fn disabled() -> Self {
        Self::with_sink(SinkKind::Null, false)
    }

    /// Collects into a bounded in-memory ring of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Self::with_sink(SinkKind::Memory(MemorySink::ring(capacity)), true)
    }

    /// Collects every event in memory (campaign forensics).
    pub fn unbounded() -> Self {
        Self::with_sink(SinkKind::Memory(MemorySink::unbounded()), true)
    }

    /// Streams events to a JSONL file, truncating it first.
    pub fn jsonl(path: &Path) -> std::io::Result<Self> {
        Ok(Self::with_sink(
            SinkKind::Custom(Box::new(JsonlSink::create(path)?)),
            true,
        ))
    }

    /// Routes events to a caller-supplied sink.
    pub fn custom(sink: Box<dyn EventSink>) -> Self {
        Self::with_sink(SinkKind::Custom(sink), true)
    }

    /// Whether emission sites should do any work at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps subsequent events with `interval` (campaign trial index).
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval;
    }

    /// The current interval stamp.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Stamps subsequent events with the causal trace ID of the demand
    /// request currently driving this recorder's cache (0 = background
    /// work). The service sets this before a traced read/write and clears
    /// it afterwards, so scrub-time repairs are never mis-attributed.
    #[inline]
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// The current trace stamp.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Attaches the spatial heatmap tap: every subsequent emission also
    /// charges the matching grid cell, so the grids stay count-exact with
    /// the `CacheStats` counters incremented alongside each emission —
    /// regardless of the sink's ring capacity.
    pub fn set_tap(&mut self, tap: Arc<Heatmaps>) {
        self.tap = Some(tap);
    }

    /// Emits one event, stamping it with the current interval. Call only
    /// when [`Recorder::enabled`] — emitting on a disabled recorder is a
    /// silent no-op, but the caller has then already paid to build the
    /// event.
    #[inline]
    pub fn emit(&mut self, mut event: RecoveryEvent) {
        if !self.enabled {
            return;
        }
        event.interval = self.interval;
        event.trace = self.trace;
        if let Some(tap) = &self.tap {
            tap.record_event(&event);
        }
        match &mut self.sink {
            SinkKind::Null => {}
            SinkKind::Memory(m) => m.record(&event),
            SinkKind::Custom(c) => c.record(&event),
        }
    }

    /// Retained events, oldest first (empty for non-memory sinks).
    pub fn events(&self) -> impl Iterator<Item = &RecoveryEvent> {
        match &self.sink {
            SinkKind::Memory(m) => Some(m.iter()),
            _ => None,
        }
        .into_iter()
        .flatten()
    }

    /// Number of retained events (0 for non-memory sinks).
    pub fn events_len(&self) -> usize {
        match &self.sink {
            SinkKind::Memory(m) => m.len(),
            _ => 0,
        }
    }

    /// Events evicted from a bounded memory ring so far.
    pub fn events_dropped(&self) -> u64 {
        match &self.sink {
            SinkKind::Memory(m) => m.dropped(),
            _ => 0,
        }
    }

    /// Removes and returns retained events (empty for non-memory sinks).
    pub fn drain_events(&mut self) -> Vec<RecoveryEvent> {
        match &mut self.sink {
            SinkKind::Memory(m) => m.drain(),
            _ => Vec::new(),
        }
    }

    /// Clears retained events; histograms and phase times survive.
    pub fn clear_events(&mut self) {
        if let SinkKind::Memory(m) = &mut self.sink {
            m.clear();
        }
    }

    /// Flushes a streaming sink.
    pub fn flush(&mut self) {
        match &mut self.sink {
            SinkKind::Custom(c) => c.flush(),
            SinkKind::Null | SinkKind::Memory(_) => {}
        }
    }

    /// Merges a child recorder (typically a shard worker's) into this one:
    /// histograms and phase spans accumulate, and the child's *retained*
    /// events are appended to this recorder's sink with their original
    /// interval stamps preserved (unlike [`Recorder::emit`], which
    /// restamps). Events already streamed by the child, and its
    /// dropped-event count, have nothing to transfer.
    pub fn absorb(&mut self, mut child: Recorder) {
        self.hists.merge(&child.hists);
        self.phases.merge(&child.phases);
        for event in child.drain_events() {
            if !self.enabled {
                break;
            }
            match &mut self.sink {
                SinkKind::Null => {}
                SinkKind::Memory(m) => m.record(&event),
                SinkKind::Custom(c) => c.record(&event),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Mechanism, Outcome};

    fn ev(line: u64) -> RecoveryEvent {
        RecoveryEvent {
            interval: 0,
            trace: 0,
            line,
            group: None,
            hash_dim: None,
            mechanism: Mechanism::Ecc1,
            outcome: Outcome::Repaired,
            trials: 0,
        }
    }

    #[test]
    fn ring_is_bounded_fifo() {
        let mut r = Recorder::ring(3);
        for line in 0..5 {
            r.emit(ev(line));
        }
        assert_eq!(r.events_len(), 3);
        assert_eq!(r.events_dropped(), 2);
        let lines: Vec<u64> = r.events().map(|e| e.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
        r.clear_events();
        assert_eq!(r.events_len(), 0);
        assert_eq!(r.events_dropped(), 2);
    }

    #[test]
    fn zero_capacity_ring_suppresses() {
        let mut r = Recorder::ring(0);
        r.emit(ev(1));
        assert_eq!(r.events_len(), 0);
        assert_eq!(r.events_dropped(), 1);
    }

    #[test]
    fn disabled_recorder_collects_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.enabled());
        r.emit(ev(1));
        assert_eq!(r.events_len(), 0);
        assert!(r.drain_events().is_empty());
    }

    #[test]
    fn trace_stamping_set_and_cleared() {
        let mut r = Recorder::unbounded();
        r.set_trace(99);
        r.emit(ev(1));
        r.set_trace(0);
        r.emit(ev(2));
        let traces: Vec<u64> = r.events().map(|e| e.trace).collect();
        assert_eq!(traces, vec![99, 0]);
    }

    #[test]
    fn interval_stamping_and_drain() {
        let mut r = Recorder::unbounded();
        r.set_interval(9);
        r.emit(ev(5));
        r.set_interval(10);
        r.emit(ev(6));
        let events = r.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].interval, 9);
        assert_eq!(events[1].interval, 10);
        assert_eq!(r.events_len(), 0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        {
            let mut sink = JsonlSink::new(Box::new(buf.clone()));
            sink.record(&ev(42));
            sink.record(&ev(43));
            assert_eq!(sink.written(), 2);
            sink.flush();
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .map(|l| RecoveryEvent::from_jsonl(l).unwrap())
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].line, 42);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop_without_explicit_flush() {
        // Regression: an early-exit path that drops the recorder without
        // calling flush() must not truncate the event log forensics reads.
        let dir = std::env::temp_dir().join(format!("sudoku_obs_drop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let mut r = Recorder::jsonl(&path).unwrap();
            r.emit(ev(7));
            r.emit(ev(8));
            // No flush: the drop path is the one under test.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "buffered lines lost on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_sink_flushes_periodically() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        for line in 0..JsonlSink::FLUSH_EVERY {
            sink.record(&ev(line));
        }
        // The periodic flush fired without drop or an explicit flush():
        // even a destructor-skipping exit loses at most one batch.
        let seen = buf.0.lock().unwrap().len();
        assert!(seen > 0, "no bytes reached the writer after a full batch");
        std::mem::forget(sink); // simulate process::exit: no Drop
        let lines = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(lines.lines().count() as u64, JsonlSink::FLUSH_EVERY);
    }

    #[test]
    fn absorb_merges_hists_phases_and_events() {
        let mut parent = Recorder::unbounded();
        parent.set_interval(3);
        parent.emit(ev(1));
        parent.hists.faults_per_line.record(2);
        let mut child = Recorder::ring(16);
        child.set_interval(7);
        child.emit(ev(2));
        child.hists.faults_per_line.record(5);
        child.phases.add(crate::span::Phase::Scrub, 0.25);
        parent.absorb(child);
        assert_eq!(parent.hists.faults_per_line.count(), 2);
        assert_eq!(parent.phases.spans(crate::span::Phase::Scrub), 1);
        let intervals: Vec<u64> = parent.events().map(|e| e.interval).collect();
        // The child's stamp survives absorption; the parent's own event
        // keeps its stamp too.
        assert_eq!(intervals, vec![3, 7]);
    }

    #[test]
    fn custom_sink_receives_events() {
        struct Counter(std::sync::Arc<std::sync::atomic::AtomicU64>);
        impl EventSink for Counter {
            fn record(&mut self, _event: &RecoveryEvent) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let n = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut r = Recorder::custom(Box::new(Counter(n.clone())));
        r.emit(ev(1));
        r.emit(ev(2));
        r.flush();
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), 2);
    }
}
