//! NV-U: the user-level control-flow-leakage attack (§4.2, §5).
//!
//! The attacker process shares a core with the victim and gets scheduled
//! between victim time slices (one slice per loop iteration, via the
//! preemptive-scheduling methodology the paper's PoC simulates with
//! `sched_yield`, §7.2). Per slice it applies NV-Core with *two* windows —
//! one inside each side of the secret branch (PW options 1 and 2 of
//! Fig. 8) — and infers the branch direction from which side executed.
//! Monitoring both sides also detects excessive preemptions: slices where
//! neither side ran (§5.2).

use nv_obs::Phase;
use nv_rand::Rng;

use nv_os::{Pid, RunOutcome, System};
use nv_victims::VictimProgram;

use crate::error::{AttackError, ProbeFailureCause};
use crate::pw::PwSpec;
use crate::rig::{AttackerRig, Resilience};

/// Environmental-noise model for the user-level attack.
///
/// The simulator is deterministic; real systems are not. The paper's 99.3 %
/// GCD accuracy (§7.2) reflects residual noise from the preemptive-
/// scheduling machinery and unrelated OS activity. This model reintroduces
/// those effects reproducibly:
///
/// * `flip_prob` — probability that one window's reading is corrupted:
///   realised *physically*, by evicting the attacker's primed BTB entry
///   for that window so the probe misreads the eviction as a victim
///   deallocation;
/// * `excess_preemption_prob` — probability of an extra attacker slice in
///   which the victim made no progress (§5.2's "excessive preemptions").
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NoiseModel {
    /// RNG seed.
    pub seed: u64,
    /// Per-window reading corruption probability.
    pub flip_prob: f64,
    /// Probability of an empty victim slice before each real one (only
    /// meaningful for the unsynchronized preemptive-scheduling setting).
    pub excess_preemption_prob: f64,
    /// `true` when the attacker is perfectly synchronized with the victim
    /// (the paper's `sched_yield` PoC): every slice is known to hold
    /// exactly one iteration, so an all-quiet reading is a corrupted
    /// measurement to be guessed, not an empty slice to be dropped.
    pub synchronized: bool,
}

impl NoiseModel {
    /// No noise: the deterministic simulator as-is (yields 100 % accuracy,
    /// like the paper's bn_cmp run).
    pub fn none() -> Self {
        NoiseModel {
            seed: 0,
            flip_prob: 0.0,
            excess_preemption_prob: 0.0,
            synchronized: true,
        }
    }

    /// Noise calibrated to the paper's GCD evaluation (99.3 % accuracy over
    /// 100 runs × ~30 iterations): isolated per-window misreads under the
    /// synchronized `sched_yield` methodology of §7.2. An eviction only
    /// corrupts a reading when the corresponding side did *not* run (it
    /// manufactures a spurious match), so roughly half the draws are
    /// masked — the rate is doubled relative to the old reading-flip model
    /// to keep the end-to-end error where the paper measured it.
    pub fn paper_gcd(seed: u64) -> Self {
        NoiseModel {
            seed,
            flip_prob: 0.014,
            excess_preemption_prob: 0.0,
            synchronized: true,
        }
    }

    /// The harsher *unsynchronized* preemptive-scheduling setting (§4.2):
    /// occasional empty slices that the dual-window monitoring must detect
    /// and discard (§5.2).
    pub fn preemptive(seed: u64) -> Self {
        NoiseModel {
            seed,
            flip_prob: 0.014,
            excess_preemption_prob: 0.05,
            synchronized: false,
        }
    }
}

/// One attacker time slice's measurement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SliceReading {
    /// Whether the then-side window matched.
    pub then_matched: bool,
    /// Whether the else-side window matched.
    pub else_matched: bool,
    /// The attacker's inference: `Some(true)` = then side executed,
    /// `Some(false)` = else side, `None` = no side (suspected excessive
    /// preemption; the attacker discards the slice, §5.2).
    pub inferred: Option<bool>,
}

/// The NV-U attacker.
///
/// # Examples
///
/// Leaking every balanced-branch direction of a hardened GCD victim:
///
/// ```
/// use nightvision::{NoiseModel, NvUser};
/// use nv_os::System;
/// use nv_uarch::UarchConfig;
/// use nv_victims::{GcdVictim, VictimConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let victim = GcdVictim::build(48, 18, &VictimConfig::paper_hardened())?;
/// let mut system = System::new(UarchConfig::default());
/// let pid = system.spawn(victim.program().clone());
///
/// let mut attacker = NvUser::for_victim(&victim, NoiseModel::none())?;
/// let readings = attacker.leak_directions(&mut system, pid, 10_000)?;
/// let inferred = NvUser::infer_directions(&readings);
/// assert_eq!(inferred, victim.directions());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NvUser {
    rig: AttackerRig,
    then_idx: usize,
    else_idx: usize,
    rng: Rng,
    noise: NoiseModel,
}

/// Width of the monitored sub-range — the paper's example PW
/// `[0x5980, 0x598f]` is 16 bytes (§7.2).
const MONITOR_BYTES: u64 = 16;

impl NvUser {
    /// Builds an attacker monitoring both sides of `victim`'s secret
    /// branch (PW options 1 and 2 of Fig. 8).
    ///
    /// # Errors
    ///
    /// Fails if the victim's branch bodies are too small to carve a
    /// monitorable window from, or on snippet assembly problems. In
    /// particular, a *data-oblivious* victim has coinciding (or
    /// overlapping) "sides", surfacing as [`AttackError::OverlappingPws`] —
    /// the mitigation works by construction.
    pub fn for_victim(victim: &VictimProgram, noise: NoiseModel) -> Result<Self, AttackError> {
        let (then_start, then_end) = victim.then_range();
        let (else_start, else_end) = victim.else_range();
        let then_pw =
            PwSpec::from_range(then_start, then_end.min(then_start.offset(MONITOR_BYTES)))?;
        let else_pw =
            PwSpec::from_range(else_start, else_end.min(else_start.offset(MONITOR_BYTES)))?;
        let rig = AttackerRig::new(vec![then_pw, else_pw])?;
        // The rig sorts windows by address; recover which is which.
        let then_idx = rig
            .pws()
            .iter()
            .position(|pw| pw.start() == then_pw.start())
            .expect("then window present");
        let else_idx = 1 - then_idx;
        Ok(NvUser {
            rig,
            then_idx,
            else_idx,
            rng: Rng::seed_from_u64(noise.seed),
            noise,
        })
    }

    /// The monitored windows (sorted by address).
    pub fn pws(&self) -> &[PwSpec] {
        self.rig.pws()
    }

    /// Calibrates and primes the rig on the system's core. Needed only
    /// when driving slices by hand with [`NvUser::measure_slice`];
    /// [`NvUser::leak_directions`] calibrates internally.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn begin(&mut self, system: &mut System) -> Result<(), AttackError> {
        system.schedule_attacker();
        self.rig.calibrate(system.core_mut())
    }

    /// Probes both windows once and interprets the reading — for callers
    /// that orchestrate victim slices themselves (e.g. to interleave
    /// IBRS/IBPB barriers).
    ///
    /// # Errors
    ///
    /// Propagates probe failures.
    pub fn measure_slice(&mut self, system: &mut System) -> Result<SliceReading, AttackError> {
        self.measure(system)
    }

    /// Runs the attack across the victim's whole execution: per victim
    /// yield-slice, probe both windows and record a reading. Returns all
    /// slice readings in order (including discarded empty slices).
    ///
    /// # Errors
    ///
    /// Propagates rig failures; fails with [`AttackError::ProbeFailed`] if
    /// the victim misbehaves (faults or exceeds `max_slices`).
    pub fn leak_directions(
        &mut self,
        system: &mut System,
        victim: Pid,
        max_slices: usize,
    ) -> Result<Vec<SliceReading>, AttackError> {
        system.schedule_attacker();
        self.rig.calibrate(system.core_mut())?;
        let mut readings = Vec::new();
        for _ in 0..max_slices {
            // Supervised trials bound the whole leak, victim slices
            // included: a victim that never exits shows up here.
            AttackError::check_deadline(system.core())?;
            // Preemptive-scheduling imperfection: occasionally the attacker
            // gets scheduled again before the victim makes progress.
            if self.noise.excess_preemption_prob > 0.0
                && self.rng.gen_bool(self.noise.excess_preemption_prob)
            {
                let reading = self.measure(system)?;
                readings.push(reading);
            }
            system.core_mut().obs_enter(Phase::VictimFragment);
            let outcome = system.run(victim, 1_000_000);
            system.core_mut().obs_exit(Phase::VictimFragment);
            match outcome {
                RunOutcome::Yielded => {
                    let reading = self.measure(system)?;
                    readings.push(reading);
                }
                RunOutcome::Exited => return Ok(readings),
                _ => {
                    return Err(AttackError::probe_failed(ProbeFailureCause::ChainWedged));
                }
            }
        }
        Err(AttackError::probe_failed(
            ProbeFailureCause::StepBudgetExhausted {
                consumed: max_slices as u64,
                limit: max_slices as u64,
            },
        ))
    }

    /// One probe + inference.
    fn measure(&mut self, system: &mut System) -> Result<SliceReading, AttackError> {
        system.schedule_attacker();
        // `flip_prob` models unrelated code evicting the attacker's primed
        // entry during the slice. Rather than flipping the boolean after
        // the fact, evict the actual BTB entry so the corruption flows
        // through the real measurement path (a missing entry reads as a
        // deallocation, i.e. a spurious match).
        if self.noise.flip_prob > 0.0 {
            let entries = self.rig.snippet_entry_pcs();
            for idx in [self.then_idx, self.else_idx] {
                if self.rng.gen_bool(self.noise.flip_prob) {
                    if let Some((set, way)) = system.core_mut().btb().entry_at(entries[idx]) {
                        system.core_mut().btb_mut().evict_entry(set, way);
                    }
                }
            }
        }
        // A slice is not replayable, so there is one vote and no retry;
        // the closure only exists to satisfy `probe_robust`'s replay hook.
        let matched = self
            .rig
            .probe_robust(system.core_mut(), Resilience::none(), |_core| {})?;
        let then_matched = matched[self.then_idx];
        let else_matched = matched[self.else_idx];
        let inferred = match (then_matched, else_matched) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            // All-quiet: under synchronization the slice definitely held an
            // iteration, so the reading is corrupted — commit to a guess to
            // preserve alignment; otherwise treat it as an excessive
            // preemption and discard (§5.2).
            (false, false) => {
                if self.noise.synchronized {
                    Some(false)
                } else {
                    None
                }
            }
            // Both matched: the branch was *taken* but unpredicted, so
            // fetch transiently fell through into the else side and its
            // window died on the wrong path before the squash. The
            // then-side match is the architectural one.
            (true, true) => Some(true),
        };
        Ok(SliceReading {
            then_matched,
            else_matched,
            inferred,
        })
    }

    /// The attacker's final direction sequence: discarded slices removed.
    pub fn infer_directions(readings: &[SliceReading]) -> Vec<bool> {
        readings.iter().filter_map(|r| r.inferred).collect()
    }

    /// Scores an inferred direction sequence against ground truth:
    /// fraction of ground-truth iterations correctly recovered (length
    /// mismatches count as errors).
    pub fn accuracy(inferred: &[bool], truth: &[bool]) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let correct = inferred.iter().zip(truth).filter(|(a, b)| a == b).count();
        correct as f64 / truth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_uarch::UarchConfig;
    use nv_victims::{BnCmpVictim, GcdVictim, VictimConfig};

    fn attack_victim(victim: &VictimProgram, noise: NoiseModel) -> (Vec<bool>, Vec<bool>) {
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(victim.program().clone());
        let mut attacker = NvUser::for_victim(victim, noise).unwrap();
        let readings = attacker.leak_directions(&mut system, pid, 10_000).unwrap();
        (
            NvUser::infer_directions(&readings),
            victim.directions().to_vec(),
        )
    }

    #[test]
    fn perfect_recovery_without_noise() {
        let victim = GcdVictim::build(0xdead_beef, 65537, &VictimConfig::paper_hardened()).unwrap();
        let (inferred, truth) = attack_victim(&victim, NoiseModel::none());
        assert_eq!(inferred, truth);
        assert_eq!(NvUser::accuracy(&inferred, &truth), 1.0);
    }

    #[test]
    fn defeats_alignment_defense() {
        // -falign-jumps=16 (the Frontal mitigation) is on in
        // paper_hardened() — and NightVision does not care.
        let victim = GcdVictim::build(12345, 67891, &VictimConfig::paper_hardened()).unwrap();
        let (inferred, truth) = attack_victim(&victim, NoiseModel::none());
        assert_eq!(inferred, truth);
    }

    #[test]
    fn defeats_cfr() {
        // Control-flow randomization removes the conditional branch; the
        // bodies still execute at fixed addresses, which is all NV-U needs.
        let victim = GcdVictim::build(99991, 65537, &VictimConfig::with_cfr(7)).unwrap();
        let (inferred, truth) = attack_victim(&victim, NoiseModel::none());
        assert_eq!(inferred, truth);
    }

    #[test]
    fn defeats_cfr_even_with_ibpb_barriers() {
        // §4.1: IBRS/IBPB flush only indirect entries. Insert a barrier
        // after every victim slice — the attack still works.
        let victim = GcdVictim::build(424243, 65537, &VictimConfig::with_cfr(3)).unwrap();
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(victim.program().clone());
        let mut attacker = NvUser::for_victim(&victim, NoiseModel::none()).unwrap();
        attacker.begin(&mut system).unwrap();
        let mut readings = Vec::new();
        loop {
            match system.run(pid, 1_000_000) {
                RunOutcome::Yielded => {
                    system.core_mut().btb_mut().indirect_predictor_barrier();
                    readings.push(attacker.measure_slice(&mut system).unwrap());
                }
                RunOutcome::Exited => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            NvUser::infer_directions(&readings),
            victim.directions().to_vec()
        );
    }

    #[test]
    fn data_oblivious_victim_defeats_the_attack() {
        // §8.2: the only working software mitigation. The "sides" coincide,
        // so no monitorable window pair exists.
        let victim = GcdVictim::build(48, 18, &VictimConfig::data_oblivious()).unwrap();
        assert!(NvUser::for_victim(&victim, NoiseModel::none()).is_err());
    }

    #[test]
    fn bn_cmp_decision_leaks() {
        for (a, b, expected) in [
            (&[0x1234u64][..], &[0x9999u64][..], false),
            (&[0x9999u64][..], &[0x1234u64][..], true),
        ] {
            let victim = BnCmpVictim::build(a, b, &VictimConfig::paper_hardened()).unwrap();
            let (inferred, _) = attack_victim(&victim, NoiseModel::none());
            assert_eq!(inferred, vec![expected]);
        }
    }

    #[test]
    fn noise_readings_are_mostly_correct() {
        let victim = GcdVictim::build(0xabcdef1, 65537, &VictimConfig::paper_hardened()).unwrap();
        let (inferred, truth) = attack_victim(&victim, NoiseModel::paper_gcd(11));
        let accuracy = NvUser::accuracy(&inferred, &truth);
        assert!(accuracy >= 0.85, "noisy accuracy {accuracy} too low");
    }

    #[test]
    fn accuracy_helper() {
        assert_eq!(NvUser::accuracy(&[true, false], &[true, false]), 1.0);
        assert_eq!(NvUser::accuracy(&[true, true], &[true, false]), 0.5);
        assert_eq!(NvUser::accuracy(&[], &[true]), 0.0);
        assert_eq!(NvUser::accuracy(&[], &[]), 1.0);
        // Extra inferred entries beyond the truth are ignored; missing
        // ones count against.
        assert_eq!(NvUser::accuracy(&[true, false, true], &[true, false]), 1.0);
    }
}
