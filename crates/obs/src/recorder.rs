//! The per-cache [`Recorder`]: the one place recovery events are kept.

use crate::event::RecoveryEvent;
use crate::heatmap::Heatmaps;
use crate::hist::RecoveryHistograms;
use crate::span::PhaseTimes;
use std::collections::VecDeque;
use std::sync::Arc;

/// The telemetry attachment a cache (or campaign worker) owns: an
/// in-memory event log (a bounded ring or unbounded), the recovery
/// histograms, the phase-span accumulator, the current interval stamp,
/// and an optional heatmap tap.
///
/// The whole recorder is gated on [`Recorder::enabled`]: every emission
/// site checks it first, so a disabled recorder costs one predictable
/// branch — no event is constructed, no histogram touched, no clock read.
/// A zero-capacity ring is enabled but keeps no events: histograms and
/// the tap still see every emission.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    interval: u64,
    /// Optional spatial tap: every emitted event is also charged against
    /// the heatmap grids (wait-free; see [`Heatmaps::record_event`]).
    tap: Option<Arc<Heatmaps>>,
    /// Histograms populated by the recovery paths.
    pub hists: RecoveryHistograms,
    /// Phase spans populated by campaigns (and the in-cache recover span).
    pub phases: PhaseTimes,
    events: VecDeque<RecoveryEvent>,
    /// Most events kept (the oldest are evicted first); `None` keeps all.
    capacity: Option<usize>,
}

impl Recorder {
    fn collecting(capacity: Option<usize>) -> Self {
        Recorder {
            enabled: true,
            capacity,
            ..Recorder::default()
        }
    }

    /// The zero-cost recorder: nothing is collected.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// Keeps at most the `capacity` most recent events.
    pub fn ring(capacity: usize) -> Self {
        Self::collecting(Some(capacity))
    }

    /// Keeps every event (campaign forensics; memory grows with the log).
    pub fn unbounded() -> Self {
        Self::collecting(None)
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

    /// Attaches the spatial heatmap tap: every subsequent emission also
    /// charges the matching grid cell, so the grids stay count-exact with
    /// the `CacheStats` counters incremented alongside each emission —
    /// regardless of the ring's capacity.
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
        if let Some(tap) = &self.tap {
            tap.record_event(&event);
        }
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
            }
        }
        self.events.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &RecoveryEvent> {
        self.events.iter()
    }

    /// Removes and returns the retained events, oldest first.
    pub fn drain_events(&mut self) -> Vec<RecoveryEvent> {
        self.events.drain(..).collect()
    }

    /// Clears retained events; histograms and phase times survive.
    pub fn clear_events(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Mechanism, Outcome};

    fn ev(line: u64) -> RecoveryEvent {
        RecoveryEvent {
            interval: 0,
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
        let lines: Vec<u64> = r.events().map(|e| e.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
        r.clear_events();
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn zero_capacity_ring_suppresses() {
        let mut r = Recorder::ring(0);
        assert!(r.enabled());
        r.emit(ev(1));
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn disabled_recorder_collects_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.enabled());
        r.emit(ev(1));
        assert!(r.drain_events().is_empty());
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
        assert_eq!(r.events().count(), 0);
    }
}
