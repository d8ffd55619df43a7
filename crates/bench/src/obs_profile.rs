//! Shared engine for `repro_obs_profile`: runs the attack stack through
//! the `nv_obs` observability layer and measures what observability
//! itself costs.
//!
//! Three measurements:
//!
//! * an **NV-S profile** — one full supervisor-level trace extraction of
//!   the GCD victim with a recorder attached, yielding the attack-phase
//!   breakdown (calibrate / prime / victim-fragment / probe / vote /
//!   retry plus the NV-S `recon` and `extraction_run` spans) and the raw
//!   recorder for Chrome-trace export;
//! * a **campaign profile** — noisy NV-Core trials fanned out through
//!   [`Campaign::run`], each with its own recorder, whose merged
//!   [`Metrics`] are byte-identical for any thread count;
//! * a **disabled-overhead report** — the GCD simulation benchmarked
//!   with no recorder vs. an attached-but-disabled recorder, in many
//!   short alternating batch pairs, min-of per arm, so scheduler noise
//!   cannot manufacture (or hide) a regression. The ratio must stay
//!   within [`OVERHEAD_LIMIT`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use nightvision::campaign::Campaign;
use nightvision::{NvCore, NvSupervisor, Resilience, SupervisorConfig};
use nv_obs::{Metrics, Phase, Recorder};
use nv_os::Enclave;
use nv_uarch::{Core, Machine, Perturbation, UarchConfig};

use crate::{default_gcd, nop_fragment, window_chain};

/// Event-ring capacity for the profiles: large enough that the smoke
/// profile keeps every record, bounded so a full run cannot balloon.
pub const EVENT_CAPACITY: usize = 1 << 16;

/// Master seed of the observed campaign.
pub const MASTER_SEED: u64 = 0x0b5e_0b5e;

/// Maximum tolerated disabled-mode slowdown (disabled / baseline).
pub const OVERHEAD_LIMIT: f64 = 1.02;

/// Base of the campaign's monitored region.
const MON: u64 = 0x40_0500;

/// One observed NV-S extraction: the phase/event aggregate plus the raw
/// recorder (spans and retained events) for Chrome-trace export.
#[derive(Clone, Debug)]
pub struct NvSProfile {
    /// Aggregated phase and event metrics of the extraction.
    pub metrics: Metrics,
    /// The detached recorder, for [`nv_obs::export::chrome_trace`].
    pub recorder: Recorder,
    /// Dynamic retirement units the extraction measured.
    pub steps: usize,
    /// Steps whose PC resolved.
    pub resolved_pcs: usize,
}

/// Runs the full NV-S attack on the GCD victim with a recorder attached
/// to the core and returns the resulting profile.
///
/// # Panics
///
/// Panics if the extraction fails (this is an experiment driver).
pub fn profile_nv_s() -> NvSProfile {
    let mut enclave = Enclave::new(default_gcd().program().clone());
    let mut core = Core::new(UarchConfig::default());
    core.attach_obs(Recorder::new(EVENT_CAPACITY));
    let extracted = NvSupervisor::new(SupervisorConfig::default())
        .extract_trace(&mut enclave, &mut core)
        .expect("NV-S extraction");
    let recorder = core.detach_obs().expect("recorder stays attached");
    NvSProfile {
        metrics: recorder.metrics(),
        steps: extracted.len(),
        resolved_pcs: extracted.pcs().len(),
        recorder,
    }
}

/// Runs `trials` observed NV-Core trials under paper-calibrated noise
/// and returns the per-trial matched-window counts alongside the merged
/// metrics. Like everything routed through the campaign engine, the
/// output is byte-identical for any `threads` value.
pub fn campaign_profile(trials: usize, threads: usize) -> (Vec<usize>, Metrics) {
    let observed = Campaign::new(trials)
        .master_seed(MASTER_SEED)
        .threads(threads)
        .run(|mut trial| {
            let perturbation = Perturbation {
                seed: trial.rng.next_u64(),
                ..Perturbation::paper_calibrated(0)
            };
            let mut core = Core::new(UarchConfig {
                perturbation,
                ..UarchConfig::default()
            });
            // A per-trial recorder, opened on a Trial span, rides on the
            // core for the trial's duration; events and spans land in it.
            let mut recorder = Recorder::new(EVENT_CAPACITY);
            recorder.enter(Phase::Trial, 0);
            core.attach_obs(recorder);
            let mut nv = NvCore::with_resilience(window_chain(MON, 2), Resilience::paper_robust())
                .expect("nv-core");
            let matched = nv.begin(&mut core).and_then(|()| {
                nv.measure(&mut core, |core| {
                    core.reset_frontend();
                    let mut victim = nop_fragment(MON, 60);
                    core.run(&mut victim, 2_000);
                })
            });
            let mut recorder = core.detach_obs().expect("recorder stays attached");
            recorder.finish();
            // A failed measurement reads as zero overlapping windows.
            let matched = matched.map_or(0, |m| m.iter().filter(|&&hit| hit).count());
            (matched, recorder.metrics())
        });
    // Results arrive in trial-index order, so the merge is too.
    let mut metrics = Metrics::default();
    let matched = observed
        .into_iter()
        .map(|(matched, trial_metrics)| {
            metrics.merge(&trial_metrics);
            matched
        })
        .collect();
    (matched, metrics)
}

/// The disabled-mode overhead measurement: ns/iter of the GCD simulation
/// with and without an attached-but-disabled recorder.
#[derive(Clone, Copy, Debug)]
pub struct OverheadReport {
    /// Minimum ns/iter with no recorder attached.
    pub baseline_ns: f64,
    /// Minimum ns/iter with [`Recorder::disabled`] attached.
    pub disabled_ns: f64,
}

impl OverheadReport {
    /// Disabled-over-baseline slowdown ratio.
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            self.disabled_ns / self.baseline_ns
        } else {
            1.0
        }
    }

    /// `true` when the ratio is within [`OVERHEAD_LIMIT`].
    pub fn within_limit(&self) -> bool {
        self.ratio() <= OVERHEAD_LIMIT
    }
}

/// Batch pairs per round of [`measure_disabled_overhead`].
const PAIRS_PER_ROUND: usize = 10;

/// Target wall time of one arm's batch.
const BATCH: Duration = Duration::from_millis(10);

/// Benchmarks the GCD simulation on a plain core against the same core
/// with a disabled recorder attached, in `rounds` × `PAIRS_PER_ROUND` (10)
/// pairs of short batches, and keeps each arm's *minimum* ns/iter.
///
/// The two batches of a pair are interleaved run by run, so both arms see
/// the same host noise, and with many short pairs both catch the quiet
/// moments. Both arms run on one core and one machine — the recorder is
/// attached and detached around the disabled arm's runs, outside the
/// timing — because on a shared host the memory layout alone moves two
/// otherwise identical cores apart by several percent.
pub fn measure_disabled_overhead(rounds: usize) -> OverheadReport {
    let mut machine = Machine::new(default_gcd().program().clone());
    let mut core = Core::new(UarchConfig::default());
    let mut timed_run = |observed: bool| {
        if observed {
            core.attach_obs(Recorder::disabled());
        }
        machine.reset();
        let start = Instant::now();
        black_box(core.run(&mut machine, 1_000_000));
        let elapsed = start.elapsed();
        if observed {
            core.detach_obs();
        }
        elapsed
    };
    // Warm up, then size the batches from the fastest of a few runs.
    timed_run(true);
    let single = (0..3).map(|_| timed_run(false)).min().expect("three runs");
    let runs = (BATCH.as_nanos() / single.as_nanos().max(1)).clamp(1, 1_000_000) as u32;
    let mut baseline = Duration::MAX;
    let mut disabled = Duration::MAX;
    for _ in 0..rounds.max(1) * PAIRS_PER_ROUND {
        let (mut plain_batch, mut disabled_batch) = (Duration::ZERO, Duration::ZERO);
        for run in 0..runs {
            // Alternate which arm goes first, so neither always runs in
            // the other's wake.
            if run % 2 == 0 {
                plain_batch += timed_run(false);
                disabled_batch += timed_run(true);
            } else {
                disabled_batch += timed_run(true);
                plain_batch += timed_run(false);
            }
        }
        baseline = baseline.min(plain_batch);
        disabled = disabled.min(disabled_batch);
    }
    let ns_per_iter = |batch: Duration| batch.as_nanos() as f64 / f64::from(runs);
    OverheadReport {
        baseline_ns: ns_per_iter(baseline),
        disabled_ns: ns_per_iter(disabled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_obs::{EventKind, Phase};

    #[test]
    fn nv_s_profile_reports_phase_breakdown() {
        let profile = profile_nv_s();
        assert!(profile.steps > 0);
        assert!(profile.resolved_pcs > 0);
        let m = &profile.metrics;
        for phase in [Phase::Calibrate, Phase::Prime, Phase::Probe] {
            assert!(
                m.phase(phase).is_some_and(|s| s.count > 0),
                "missing {} spans",
                phase.name()
            );
        }
        assert!(m.phase(Phase::Custom("extraction_run")).is_some());
        assert!(m.count(EventKind::BtbAllocate) > 0);
        assert!(m.count(EventKind::LbrRecord) > 0);
    }

    #[test]
    fn campaign_profile_is_thread_count_oblivious() {
        let (results_a, metrics_a) = campaign_profile(4, 1);
        let (results_b, metrics_b) = campaign_profile(4, 3);
        assert_eq!(results_a, results_b);
        assert_eq!(metrics_a.to_json(), metrics_b.to_json());
        assert_eq!(metrics_a.trials, 4);
        assert!(metrics_a.phase(Phase::Trial).is_some_and(|s| s.count == 4));
        assert!(metrics_a.count(EventKind::BtbAllocate) > 0);
    }
}
