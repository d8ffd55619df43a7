//! Deterministic, mergeable measurement aggregates.
//!
//! A [`Metrics`] value is the order-insensitive summary of one recorder
//! (or of many merged recorders): per-[`EventKind`](crate::EventKind)
//! counts, penalty cycle totals, and per-phase span statistics with
//! power-of-two cycle histograms. Every field is integer-valued and every
//! map iterates in key order, so [`Metrics::to_json`] is byte-stable —
//! the property the campaign determinism tests pin across thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::EventKind;

/// An attack phase a span can cover.
///
/// The fixed variants are the phases of the NV-Core measurement loop plus
/// the campaign's per-trial unit; [`Phase::Custom`] labels anything else
/// (e.g. NV-S traversal passes) with a static string.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    /// Deriving quiet-case baselines ([`AttackerRig::calibrate`-shaped
    /// work]).
    Calibrate,
    /// Executing the snippet chain to plant BTB entries.
    Prime,
    /// The victim fragment executing between prime and probe.
    VictimFragment,
    /// A measurement pass reading the LBR back.
    Probe,
    /// One majority-vote iteration of robust probing.
    Vote,
    /// Recovery after a failed pass (re-prime + replay).
    Retry,
    /// One campaign trial, end to end.
    Trial,
    /// A quarantined trial's final (failed) attempt being written off by
    /// the supervised campaign engine.
    Quarantine,
    /// Checkpoint I/O: appending a completed trial or loading completed
    /// results during resume.
    Checkpoint,
    /// Admission control on the campaign server: quota/queue checks for
    /// one submission.
    Admission,
    /// One server job, end to end (admission to completion record).
    Job,
    /// The campaign server draining: admission closed, in-flight jobs
    /// finishing.
    Drain,
    /// Any other span, labelled by a static string.
    Custom(&'static str),
}

impl Phase {
    /// Stable name used as the metrics-JSON key and Chrome-trace span
    /// name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Calibrate => "calibrate",
            Phase::Prime => "prime",
            Phase::VictimFragment => "victim_fragment",
            Phase::Probe => "probe",
            Phase::Vote => "vote",
            Phase::Retry => "retry",
            Phase::Trial => "trial",
            Phase::Quarantine => "quarantine",
            Phase::Checkpoint => "checkpoint",
            Phase::Admission => "admission",
            Phase::Job => "job",
            Phase::Drain => "drain",
            Phase::Custom(name) => name,
        }
    }
}

/// Histogram bucket count: bucket `0` holds zero-cycle durations, bucket
/// `k >= 1` holds durations in `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of cycle durations.
///
/// Buckets are deterministic functions of the duration alone, so merged
/// histograms are independent of merge order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl CycleHistogram {
    /// Bucket index for a duration: `0` for zero, else `1 + floor(log2)`.
    pub fn bucket_index(cycles: u64) -> usize {
        (64 - cycles.leading_zeros()) as usize
    }

    /// Records one duration.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_index(cycles)] += 1;
        self.count += 1;
        self.total += cycles;
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded duration (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded duration (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean duration (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total as f64 / self.count as f64)
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total += other.total;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .map(|(i, n)| format!("\"b{i}\": {n}"))
            .collect();
        format!(
            "{{\"count\": {}, \"total_cycles\": {}, \"min\": {}, \"max\": {}, \
             \"buckets\": {{{}}}}}",
            self.count,
            self.total,
            if self.count > 0 { self.min } else { 0 },
            self.max,
            buckets.join(", ")
        )
    }
}

/// Aggregated statistics of one phase's spans.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PhaseStats {
    /// Spans closed under this phase.
    pub count: u64,
    /// Sum of span durations in cycles.
    pub total_cycles: u64,
    /// Span-duration histogram.
    pub histogram: CycleHistogram,
}

impl PhaseStats {
    /// Records one closed span of `cycles` duration.
    pub fn record(&mut self, cycles: u64) {
        self.count += 1;
        self.total_cycles += cycles;
        self.histogram.record(cycles);
    }

    /// Adds another phase's statistics into this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.count += other.count;
        self.total_cycles += other.total_cycles;
        self.histogram.merge(&other.histogram);
    }
}

/// The deterministic aggregate of one or more recorders.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Metrics {
    /// Recorders merged in (one per campaign trial, typically).
    pub trials: u64,
    /// Event counts, indexed by [`EventKind::index`].
    pub event_counts: [u64; EventKind::COUNT],
    /// Cycles lost to squashes (including injected preemptions).
    pub squash_cycles: u64,
    /// Cycles lost to decode resteers.
    pub resteer_cycles: u64,
    /// Events dropped from ring buffers after hitting capacity (stats
    /// above still count them; only the event *records* were lost).
    pub dropped_events: u64,
    /// Per-phase span statistics, keyed by [`Phase::name`].
    pub phases: BTreeMap<&'static str, PhaseStats>,
}

impl Metrics {
    /// Count of one event kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.event_counts[kind.index()]
    }

    /// Statistics of one phase, if any span closed under it.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStats> {
        self.phases.get(phase.name())
    }

    /// Merges another aggregate into this one. Addition-only, so the
    /// result is independent of merge order — but campaign callers merge
    /// in trial-index order anyway, upholding the engine's contract.
    pub fn merge(&mut self, other: &Metrics) {
        self.trials += other.trials;
        for (mine, theirs) in self.event_counts.iter_mut().zip(&other.event_counts) {
            *mine += theirs;
        }
        self.squash_cycles += other.squash_cycles;
        self.resteer_cycles += other.resteer_cycles;
        self.dropped_events += other.dropped_events;
        for (name, stats) in &other.phases {
            self.phases.entry(name).or_default().merge(stats);
        }
    }

    /// Renders the aggregate as a canonical JSON object: integer-valued,
    /// key-sorted, byte-stable for equal inputs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"trials\": {}, \"events\": {{", self.trials);
        // µarch kinds always render (zeros included); campaign- and
        // service-lifecycle kinds render only when nonzero, so unsupervised
        // metrics are byte-identical to the pre-fault-tolerance format.
        let events: Vec<String> = EventKind::ALL
            .iter()
            .filter(|kind| !kind.is_lifecycle() || self.count(**kind) > 0)
            .map(|kind| format!("\"{}\": {}", kind.name(), self.count(*kind)))
            .collect();
        out.push_str(&events.join(", "));
        let _ = write!(
            out,
            "}}, \"squash_cycles\": {}, \"resteer_cycles\": {}, \"dropped_events\": {}, \
             \"phases\": {{",
            self.squash_cycles, self.resteer_cycles, self.dropped_events
        );
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, stats)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_cycles\": {}, \"histogram\": {}}}",
                    stats.count,
                    stats.total_cycles,
                    stats.histogram.to_json()
                )
            })
            .collect();
        out.push_str(&phases.join(", "));
        out.push_str("}}");
        out
    }

    /// Renders a human-readable summary: a phase table followed by the
    /// non-zero event counters.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>8} {:>12} {:>8} {:>8} {:>10}\n",
            "phase", "spans", "cycles", "min", "max", "mean"
        ));
        for (name, stats) in &self.phases {
            out.push_str(&format!(
                "{:<18} {:>8} {:>12} {:>8} {:>8} {:>10.1}\n",
                name,
                stats.count,
                stats.total_cycles,
                stats.histogram.min().unwrap_or(0),
                stats.histogram.max().unwrap_or(0),
                stats.histogram.mean().unwrap_or(0.0),
            ));
        }
        out.push_str(&format!("\n{:<18} {:>8}\n", "event", "count"));
        for kind in EventKind::ALL {
            let count = self.count(kind);
            if count > 0 {
                out.push_str(&format!("{:<18} {:>8}\n", kind.name(), count));
            }
        }
        if self.squash_cycles > 0 || self.resteer_cycles > 0 {
            out.push_str(&format!(
                "\nsquash cycles {}, resteer cycles {}\n",
                self.squash_cycles, self.resteer_cycles
            ));
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "({} event records dropped at ring capacity; counters unaffected)\n",
                self.dropped_events
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(CycleHistogram::bucket_index(0), 0);
        assert_eq!(CycleHistogram::bucket_index(1), 1);
        assert_eq!(CycleHistogram::bucket_index(2), 2);
        assert_eq!(CycleHistogram::bucket_index(3), 2);
        assert_eq!(CycleHistogram::bucket_index(4), 3);
        assert_eq!(CycleHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats_and_merge() {
        let mut a = CycleHistogram::default();
        a.record(4);
        a.record(10);
        let mut b = CycleHistogram::default();
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), 15);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.mean(), Some(5.0));
        let empty = CycleHistogram::default();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn metrics_merge_is_order_insensitive() {
        let mut a = Metrics {
            trials: 1,
            ..Metrics::default()
        };
        a.event_counts[EventKind::Squash.index()] = 3;
        a.phases.entry("probe").or_default().record(40);
        let mut b = Metrics {
            trials: 1,
            ..Metrics::default()
        };
        b.event_counts[EventKind::Squash.index()] = 2;
        b.phases.entry("probe").or_default().record(10);
        b.phases.entry("prime").or_default().record(5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.trials, 2);
        assert_eq!(ab.count(EventKind::Squash), 5);
        assert_eq!(ab.phase(Phase::Probe).unwrap().count, 2);
    }

    #[test]
    fn json_is_byte_stable() {
        let build = || {
            let mut m = Metrics {
                trials: 2,
                ..Metrics::default()
            };
            m.event_counts[EventKind::BtbAllocate.index()] = 7;
            m.phases.entry("calibrate").or_default().record(100);
            m.phases.entry("probe").or_default().record(12);
            m
        };
        assert_eq!(build().to_json(), build().to_json());
        assert!(build().to_json().contains("\"btb_allocate\": 7"));
    }

    #[test]
    fn lifecycle_counters_render_only_when_nonzero() {
        let quiet = Metrics::default();
        let json = quiet.to_json();
        assert!(!json.contains("trial_retried"), "{json}");
        assert!(!json.contains("checkpoint_appended"), "{json}");
        assert!(!json.contains("checkpoint_torn"), "{json}");
        assert!(!json.contains("job_admitted"), "{json}");
        assert!(json.contains("\"btb_allocate\": 0"), "{json}");

        let mut served = Metrics::default();
        served.event_counts[EventKind::JobAdmitted.index()] = 3;
        served.event_counts[EventKind::CheckpointTorn.index()] = 1;
        let json = served.to_json();
        assert!(json.contains("\"job_admitted\": 3"), "{json}");
        assert!(json.contains("\"checkpoint_torn\": 1"), "{json}");
        assert!(!json.contains("job_rejected"), "{json}");

        let mut supervised = Metrics::default();
        supervised.event_counts[EventKind::TrialRetried.index()] = 2;
        supervised.event_counts[EventKind::CheckpointResumed.index()] = 5;
        let json = supervised.to_json();
        assert!(json.contains("\"trial_retried\": 2"), "{json}");
        assert!(json.contains("\"checkpoint_resumed\": 5"), "{json}");
        assert!(!json.contains("trial_quarantined"), "{json}");
    }

    #[test]
    fn summary_table_lists_phases_and_events() {
        let mut m = Metrics::default();
        m.event_counts[EventKind::LbrRecord.index()] = 4;
        m.phases.entry("prime").or_default().record(20);
        let table = m.summary_table();
        assert!(table.contains("prime"));
        assert!(table.contains("lbr_record"));
        assert!(!table.contains("btb_evict"), "zero counters are omitted");
    }
}
