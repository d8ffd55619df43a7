//! The per-context event recorder.
//!
//! A [`Recorder`] is attached to one execution context (a `Core`, one
//! campaign trial) and collects three things as the instrumented code
//! reports in: a bounded ring of timestamped events, a tree of closed
//! phase spans, and running integer aggregates (counters, penalty cycle
//! totals, per-phase histograms). The aggregates are never dropped —
//! only the event/span *records* are bounded — so [`Recorder::metrics`]
//! is exact regardless of ring capacity.
//!
//! A disabled recorder ([`Recorder::disabled`] or after
//! [`Recorder::set_enabled`]`(false)`) accepts every call and does
//! nothing, letting callers benchmark the instrumented code paths with
//! recording compiled in but switched off.

use std::collections::{BTreeMap, VecDeque};

use crate::event::ObsEvent;
use crate::metrics::{Metrics, Phase, PhaseStats};

/// Default bound on retained event records.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Default bound on retained closed-span records.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 14;

/// One event with the cycle at which it was reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Reporting context's cycle counter at emission time.
    pub cycle: u64,
    /// The event itself.
    pub event: ObsEvent,
}

/// One closed phase span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// The phase the span covered.
    pub phase: Phase,
    /// Cycle at which the span opened.
    pub start: u64,
    /// Cycle at which the span closed (`>= start`).
    pub end: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
}

impl SpanRecord {
    /// Span duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects events, spans and aggregates for one execution context.
#[derive(Clone, Debug)]
pub struct Recorder {
    enabled: bool,
    events: VecDeque<TimedEvent>,
    event_capacity: usize,
    dropped_events: u64,
    open: Vec<(Phase, u64)>,
    spans: Vec<SpanRecord>,
    span_capacity: usize,
    dropped_spans: u64,
    counters: [u64; crate::EventKind::COUNT],
    squash_cycles: u64,
    resteer_cycles: u64,
    phase_stats: BTreeMap<&'static str, PhaseStats>,
    last_cycle: u64,
}

impl Recorder {
    /// An enabled recorder with the given event-ring capacity (spans use
    /// [`DEFAULT_SPAN_CAPACITY`]).
    pub fn new(event_capacity: usize) -> Self {
        Recorder {
            enabled: true,
            events: VecDeque::new(),
            event_capacity,
            dropped_events: 0,
            open: Vec::new(),
            spans: Vec::new(),
            span_capacity: DEFAULT_SPAN_CAPACITY,
            dropped_spans: 0,
            counters: [0; crate::EventKind::COUNT],
            squash_cycles: 0,
            resteer_cycles: 0,
            phase_stats: BTreeMap::new(),
            last_cycle: 0,
        }
    }

    /// An attached-but-disabled recorder: every call is accepted and
    /// ignored. Used to measure the disabled-mode overhead of the
    /// instrumentation hooks themselves.
    pub fn disabled() -> Self {
        let mut recorder = Recorder::new(0);
        recorder.enabled = false;
        recorder
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off. Already-collected data is kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Reports one event at the given cycle.
    ///
    /// Inlined so that a disabled recorder costs its emitters one flag
    /// test, not a call.
    #[inline]
    pub fn event(&mut self, cycle: u64, event: ObsEvent) {
        if self.enabled {
            self.record(cycle, event);
        }
    }

    fn record(&mut self, cycle: u64, event: ObsEvent) {
        self.last_cycle = self.last_cycle.max(cycle);
        self.counters[event.kind().index()] += 1;
        if let Some(penalty) = event.penalty() {
            match event {
                ObsEvent::Resteer { .. } => self.resteer_cycles += penalty,
                _ => self.squash_cycles += penalty,
            }
        }
        if self.event_capacity == 0 {
            self.dropped_events += 1;
            return;
        }
        if self.events.len() == self.event_capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(TimedEvent { cycle, event });
    }

    /// Opens a span for `phase` at the given cycle. Spans nest; close
    /// them in LIFO order with [`Recorder::exit`].
    pub fn enter(&mut self, phase: Phase, cycle: u64) {
        if !self.enabled {
            return;
        }
        self.last_cycle = self.last_cycle.max(cycle);
        self.open.push((phase, cycle));
    }

    /// Closes the innermost open span for `phase` at the given cycle and
    /// folds its duration into the per-phase statistics.
    ///
    /// Mismatched exits (no open span for `phase`) are ignored rather
    /// than panicking: the recorder is diagnostic machinery and must not
    /// alter control flow of the code it observes.
    pub fn exit(&mut self, phase: Phase, cycle: u64) {
        if !self.enabled {
            return;
        }
        self.last_cycle = self.last_cycle.max(cycle);
        let Some(pos) = self.open.iter().rposition(|(p, _)| *p == phase) else {
            return;
        };
        let (_, start) = self.open.remove(pos);
        let depth = pos as u32;
        let end = cycle.max(start);
        self.phase_stats
            .entry(phase.name())
            .or_default()
            .record(end - start);
        if self.spans.len() < self.span_capacity {
            self.spans.push(SpanRecord {
                phase,
                start,
                end,
                depth,
            });
        } else {
            self.dropped_spans += 1;
        }
    }

    /// Closes every still-open span at the last observed cycle. Call at
    /// the end of a trial so truncated phases still aggregate.
    pub fn finish(&mut self) {
        while let Some((phase, _)) = self.open.last().copied() {
            self.exit(phase, self.last_cycle);
        }
    }

    /// Number of spans currently open.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Retained event records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Retained closed-span records, in close order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Event records dropped at ring capacity (aggregates still counted
    /// them).
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The exact aggregate of everything reported so far, independent of
    /// ring capacity. `trials` is 1 so campaign merges count recorders.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            trials: 1,
            event_counts: self.counters,
            squash_cycles: self.squash_cycles,
            resteer_cycles: self.resteer_cycles,
            dropped_events: self.dropped_events + self.dropped_spans,
            phases: self.phase_stats.clone(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_EVENT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let mut r = Recorder::disabled();
        r.event(5, ObsEvent::BtbAllocate { pc: 1, target: 2 });
        r.enter(Phase::Probe, 5);
        r.exit(Phase::Probe, 9);
        let m = r.metrics();
        assert_eq!(m.count(EventKind::BtbAllocate), 0);
        assert!(m.phases.is_empty());
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn ring_drops_oldest_but_counts_all() {
        let mut r = Recorder::new(2);
        for cycle in 0..5 {
            r.event(
                cycle,
                ObsEvent::BtbAllocate {
                    pc: cycle,
                    target: 0,
                },
            );
        }
        assert_eq!(r.events().count(), 2);
        assert_eq!(r.events().next().unwrap().cycle, 3);
        assert_eq!(r.dropped_events(), 3);
        assert_eq!(r.metrics().count(EventKind::BtbAllocate), 5);
        assert_eq!(r.metrics().dropped_events, 3);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut r = Recorder::new(16);
        r.enter(Phase::Trial, 0);
        r.enter(Phase::Prime, 10);
        r.exit(Phase::Prime, 25);
        r.enter(Phase::Probe, 30);
        r.exit(Phase::Probe, 50);
        r.exit(Phase::Trial, 60);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::Prime);
        assert_eq!(spans[0].cycles(), 15);
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[2].phase, Phase::Trial);
        assert_eq!(spans[2].depth, 0);
        let m = r.metrics();
        assert_eq!(m.phase(Phase::Trial).unwrap().total_cycles, 60);
        assert_eq!(m.phase(Phase::Probe).unwrap().count, 1);
    }

    #[test]
    fn mismatched_exit_is_ignored() {
        let mut r = Recorder::new(4);
        r.exit(Phase::Vote, 100);
        assert!(r.spans().is_empty());
        assert!(r.metrics().phases.is_empty());
    }

    #[test]
    fn finish_closes_open_spans_at_last_cycle() {
        let mut r = Recorder::new(4);
        r.enter(Phase::Trial, 0);
        r.enter(Phase::Retry, 40);
        r.event(
            90,
            ObsEvent::Squash {
                pc: 0,
                cause: "wrong_target",
                penalty: 20,
            },
        );
        r.finish();
        assert_eq!(r.open_spans(), 0);
        let m = r.metrics();
        assert_eq!(m.phase(Phase::Retry).unwrap().total_cycles, 50);
        assert_eq!(m.phase(Phase::Trial).unwrap().total_cycles, 90);
        assert_eq!(m.squash_cycles, 20);
    }

    #[test]
    fn penalties_split_squash_and_resteer() {
        let mut r = Recorder::new(8);
        r.event(
            1,
            ObsEvent::Squash {
                pc: 0,
                cause: "false_hit",
                penalty: 20,
            },
        );
        r.event(
            2,
            ObsEvent::Resteer {
                pc: 4,
                target: 64,
                penalty: 6,
            },
        );
        r.event(3, ObsEvent::InjectedSquash { pc: 8, penalty: 20 });
        let m = r.metrics();
        assert_eq!(m.squash_cycles, 40);
        assert_eq!(m.resteer_cycles, 6);
    }
}
