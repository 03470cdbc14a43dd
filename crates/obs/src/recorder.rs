//! The per-cache [`Recorder`]: the one place recovery events are kept.

use crate::event::RecoveryEvent;
use crate::heatmap::Heatmaps;
use crate::hist::RecoveryHistograms;
use crate::span::PhaseTimes;
use std::collections::VecDeque;
use std::sync::Arc;

/// The telemetry attachment a cache (or campaign worker) owns: an
/// in-memory event log (a bounded ring or unbounded), the recovery
/// histograms, the phase-span accumulator and the current interval stamp
/// — or, built with [`Recorder::tap_only`], a heatmap tap and nothing
/// else.
///
/// The whole recorder is gated on [`Recorder::enabled`]: every emission
/// site checks it first, so a disabled recorder costs one predictable
/// branch — no event is constructed, no histogram touched, no clock read.
/// Histogram records and clock reads are further gated on
/// [`Recorder::measures`], which a tap-only recorder answers `false`: its
/// emissions reach the tap and nothing else. A zero-capacity ring is
/// enabled but keeps no events: its histograms still see every emission.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    /// Whether histograms and phase spans are kept (every enabled
    /// recorder but a tap-only one).
    measures: bool,
    interval: u64,
    /// The spatial tap of a tap-only recorder: every emitted event is
    /// charged against the heatmap grids (wait-free; see
    /// [`Heatmaps::record_event`]).
    tap: Option<Arc<Heatmaps>>,
    /// Histograms populated by the recovery paths (empty unless
    /// [`Recorder::measures`]).
    pub hists: RecoveryHistograms,
    /// Phase spans populated by campaigns and the in-cache recover span
    /// (empty unless [`Recorder::measures`]).
    pub phases: PhaseTimes,
    events: VecDeque<RecoveryEvent>,
    /// Most events kept (the oldest are evicted first); `None` keeps all.
    capacity: Option<usize>,
}

impl Recorder {
    fn collecting(capacity: Option<usize>) -> Self {
        Recorder {
            enabled: true,
            measures: true,
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

    /// Charges every emission to `tap`'s grids and keeps nothing: no
    /// events, no histograms, no phase spans, no clock reads. The grids
    /// count exactly what the events of an [`Recorder::unbounded`] log
    /// would, folded through [`Heatmaps::record_event`].
    pub fn tap_only(tap: Arc<Heatmaps>) -> Self {
        Recorder {
            enabled: true,
            tap: Some(tap),
            capacity: Some(0),
            ..Recorder::default()
        }
    }

    /// Whether emission sites should do any work at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether emission sites should record histograms and time phases.
    #[inline]
    pub fn measures(&self) -> bool {
        self.measures
    }

    /// Stamps subsequent events with `interval` (campaign trial index).
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval;
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
    fn tap_only_recorder_charges_the_grids_and_keeps_nothing() {
        use crate::heatmap::RegionGeometry;
        let maps = Arc::new(Heatmaps::new(RegionGeometry::new(1, 4, 64, |_| 0)));
        let mut r = Recorder::tap_only(Arc::clone(&maps));
        assert!(r.enabled());
        assert!(!r.measures());
        r.emit(ev(1));
        r.emit(ev(40));
        assert_eq!(maps.named_grids()[1].1.total(), 2);
        assert_eq!(r.events().count(), 0);
        assert!(r.hists.is_empty());
        assert!(r.phases.is_empty());
        assert!(Recorder::ring(0).measures());
        assert!(!Recorder::disabled().measures());
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
