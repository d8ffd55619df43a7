//! NV-Core: the BTB Prime+Probe primitive of §4.1.

use nv_obs::Phase;
use nv_uarch::Core;

use crate::error::AttackError;
use crate::pw::PwSpec;
use crate::rig::{AttackerRig, Resilience};

/// The NV-Core primitive: "determine if a fragment of the victim's
/// execution contains instruction bytes overlapping with a specified
/// virtual address range" (§3).
///
/// This is a convenience wrapper around [`AttackerRig`] that packages the
/// prime → victim fragment → probe sequence of Fig. 6 lines 2–6.
///
/// # Examples
///
/// ```
/// use nightvision::{NvCore, PwSpec};
/// use nv_isa::{Assembler, VirtAddr};
/// use nv_uarch::{Core, Machine, UarchConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut asm = Assembler::new(VirtAddr::new(0x40_0200));
/// for _ in 0..4 { asm.nop(); }
/// asm.halt();
/// let mut victim = Machine::new(asm.finish()?);
///
/// let mut core = Core::new(UarchConfig::default());
/// let mut nv = NvCore::new(vec![PwSpec::new(VirtAddr::new(0x40_0200), 8)?])?;
/// nv.begin(&mut core)?;
/// let matched = nv.measure(&mut core, |core| {
///     core.run(&mut victim, 100);
/// })?;
/// assert_eq!(matched, vec![true]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NvCore {
    rig: AttackerRig,
    resilience: Resilience,
}

impl NvCore {
    /// Creates an NV-Core instance monitoring `pws` (one or several
    /// chained windows — the optimized variant of Fig. 7).
    ///
    /// # Errors
    ///
    /// Propagates rig construction failures.
    pub fn new(pws: Vec<PwSpec>) -> Result<Self, AttackError> {
        Self::with_resilience(pws, Resilience::none())
    }

    /// [`NvCore::new`] with a robustness knob: `resilience.votes`
    /// measurements (the fragment re-runs before each extra vote and each
    /// window's verdict is the majority) and up to
    /// `resilience.retry_budget` re-primed retries after a failed pass.
    ///
    /// # Errors
    ///
    /// Propagates rig construction failures.
    pub fn with_resilience(pws: Vec<PwSpec>, resilience: Resilience) -> Result<Self, AttackError> {
        Ok(NvCore {
            rig: AttackerRig::new(pws)?,
            resilience,
        })
    }

    /// The monitored windows.
    pub fn pws(&self) -> &[PwSpec] {
        self.rig.pws()
    }

    /// Calibrates and primes on `core`. Call once before the first
    /// [`NvCore::measure`].
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn begin(&mut self, core: &mut Core) -> Result<(), AttackError> {
        self.rig.calibrate(core)
    }

    /// One NV-Core invocation (Fig. 6): the BTB is primed (from `begin` or
    /// the previous probe), `fragment` runs the victim, and the probe
    /// reports per-window whether the victim overlapped it.
    ///
    /// With a multi-vote [`Resilience`], probing consumes the signal it
    /// measures, so `fragment` is re-invoked before every additional vote
    /// — it must be able to reproduce the victim fragment (hence the
    /// `FnMut` bound).
    ///
    /// # Errors
    ///
    /// Propagates probe failures; [`AttackError::RetriesExhausted`] when a
    /// non-zero retry budget runs out.
    pub fn measure<F>(&mut self, core: &mut Core, mut fragment: F) -> Result<Vec<bool>, AttackError>
    where
        F: FnMut(&mut Core),
    {
        core.obs_enter(Phase::VictimFragment);
        fragment(core);
        core.obs_exit(Phase::VictimFragment);
        let matched = self.rig.probe_robust(core, self.resilience, |core| {
            core.obs_enter(Phase::VictimFragment);
            fragment(core);
            core.obs_exit(Phase::VictimFragment);
        })?;
        Ok(matched.to_vec())
    }

    /// Direct access to the underlying rig.
    pub fn rig_mut(&mut self) -> &mut AttackerRig {
        &mut self.rig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, VirtAddr};
    use nv_uarch::{Machine, UarchConfig};

    #[test]
    fn detects_each_fragment_independently() {
        let mut core = Core::new(UarchConfig::default());
        let pw = PwSpec::new(VirtAddr::new(0x40_0300), 16).unwrap();
        let mut nv = NvCore::new(vec![pw]).unwrap();
        nv.begin(&mut core).unwrap();

        let build = |base: u64| {
            let mut asm = Assembler::new(VirtAddr::new(base));
            for _ in 0..8 {
                asm.nop();
            }
            asm.halt();
            Machine::new(asm.finish().unwrap())
        };

        // Fragment 1 inside the range, fragment 2 outside, fragment 3
        // inside again.
        for (base, expected) in [(0x40_0300u64, true), (0x40_0340, false), (0x40_0302, true)] {
            let mut victim = build(base);
            let matched = nv
                .measure(&mut core, |core| {
                    core.reset_frontend();
                    core.run(&mut victim, 100);
                })
                .unwrap();
            assert_eq!(matched, vec![expected], "fragment at {base:#x}");
        }
    }

    #[test]
    fn empty_fragment_reports_nothing() {
        let mut core = Core::new(UarchConfig::default());
        let pw = PwSpec::new(VirtAddr::new(0x40_0300), 16).unwrap();
        let mut nv = NvCore::new(vec![pw]).unwrap();
        nv.begin(&mut core).unwrap();
        let matched = nv.measure(&mut core, |_| {}).unwrap();
        assert_eq!(matched, vec![false]);
    }
}
