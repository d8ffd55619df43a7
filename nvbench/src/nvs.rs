//! `nvs-extract`: full NV-S PC-trace extraction (`NvSupervisor::
//! extract_trace`, default configuration) of paper-hardened GCD and bn_cmp
//! enclaves, fanned out through `Campaign` at two threads.

use std::time::Instant;

use nightvision::campaign::Campaign;
use nightvision::checkpoint::fnv1a64;
use nightvision::{AttackError, ExtractedTrace, NvSupervisor, PwSpec};
use nv_isa::{Program, VirtAddr, PAGE_BYTES};
use nv_obs::{Phase, Recorder};
use nv_os::{Enclave, StepExit};
use nv_rand::Rng;
use nv_uarch::{Core, UarchConfig};
use nv_victims::{BnCmpVictim, GcdVictim, VictimConfig, VictimProgram};

use crate::layers::{self, RigCost};
use crate::util::{
    campaign_window, mean_ns, ratio, thread_oblivious, windowed, Budget, Ledger, Outcome, Scratch,
    SimTally, Tracer, OBS_CAPACITY, THREADS,
};
use crate::Workload;

const SALT: u64 = 0x6e76_735f_6578_7472;

/// Extractions whose simulated statistics are tallied.
const STATS_OPS: usize = 8;

/// Floor on the share of steps whose extracted PC is the true one. NV-S
/// drops PCs it cannot tell from a speculated successor (§6.3) and
/// misplaces a few more, so the share sits near 0.7, not 1.
const MIN_ACCURACY: f64 = 0.6;

/// Discovery passes of the Fig. 10 traversal: 128 windows, 8 per run.
const SWEEP_RUNS: u64 = 16;

/// Op `i`'s victim: three GCDs of 6-bit operands for every bn_cmp of one
/// to four random limbs, so the median and p90 both fall inside the GCD
/// population rather than between the two.
pub fn build_victim(seed: u64, i: usize) -> VictimProgram {
    let mut rng = Rng::stream(seed ^ SALT, i as u64);
    let config = VictimConfig::paper_hardened();
    let victim = if i % 4 == 3 {
        let limbs = rng.gen_range(1..=4usize);
        let a: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
        BnCmpVictim::build(&a, &b, &config)
    } else {
        GcdVictim::build(rng.gen_range(1..64u64), rng.gen_range(1..64u64), &config)
    };
    victim.expect("victim assembles")
}

/// The true PC of every retirement unit, from a plain single-stepped run.
fn ground_truth(program: &Program) -> Vec<VirtAddr> {
    let mut enclave = Enclave::new(program.clone());
    let mut core = Core::new(UarchConfig::default());
    let mut truth = Vec::new();
    loop {
        truth.push(enclave.ground_truth_pc());
        if enclave.single_step(&mut core).exit != StepExit::Retired {
            return truth;
        }
    }
}

struct Target {
    program: Program,
    truth: Vec<VirtAddr>,
}

/// One extraction as scored against ground truth.
struct Extraction {
    ms: f64,
    steps: usize,
    resolved: usize,
    correct: usize,
    ok: bool,
}

fn extract(program: &Program, core: &mut Core) -> Result<ExtractedTrace, AttackError> {
    let mut enclave = Enclave::new(program.clone());
    NvSupervisor::default().extract_trace(&mut enclave, core)
}

fn pcs_digest(trace: &ExtractedTrace) -> u64 {
    let bytes: Vec<u8> = trace
        .pcs()
        .iter()
        .flat_map(|pc| pc.value().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

pub struct Nvs {
    seed: u64,
    targets: Vec<Target>,
}

impl Nvs {
    fn extract_op(&self, index: usize, tracer: &Tracer, op: u64) -> Extraction {
        let target = &self.targets[index];
        tracer.span(op, "campaign.trial", || {
            let start = Instant::now();
            let mut core = Core::new(UarchConfig::default());
            let result = tracer.span(op, "nvs.extract_trace", || {
                extract(&target.program, &mut core)
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let Ok(trace) = result else {
                return Extraction {
                    ms,
                    steps: 0,
                    resolved: 0,
                    correct: 0,
                    ok: false,
                };
            };
            let steps = trace.steps();
            Extraction {
                ms,
                steps: target.truth.len(),
                resolved: trace.pcs().len(),
                correct: steps
                    .iter()
                    .zip(&target.truth)
                    .filter(|(m, t)| m.pc == Some(**t))
                    .count(),
                ok: steps.len() == target.truth.len(),
            }
        })
    }

    /// NV-S with a recorder attached on the first `n` targets.
    fn tally(&self, n: usize) -> SimTally {
        let targets = &self.targets[..n.min(self.targets.len())];
        thread_oblivious(|threads| {
            let parts = Campaign::new(targets.len()).threads(threads).run(|trial| {
                let mut core = Core::new(UarchConfig::default());
                core.attach_obs(Recorder::new(OBS_CAPACITY));
                let trace =
                    extract(&targets[trial.index].program, &mut core).expect("NV-S extraction");
                let recorder = core.detach_obs().expect("recorder stays attached");
                let mut tally = SimTally {
                    ops: 1,
                    metrics: recorder.metrics(),
                    ..SimTally::default()
                };
                tally.add_core(&core.stats());
                tally.add_btb(&core.btb().stats());
                tally.count("steps", trace.len() as u64);
                tally.count("resolved", trace.pcs().len() as u64);
                tally.outputs.push(pcs_digest(&trace));
                tally
            });
            parts.iter().fold(SimTally::default(), |mut all, part| {
                all.merge(part);
                all
            })
        })
    }

    /// The window shapes NV-S primes on a target's code page, with the
    /// number of traversal passes that use each: the 8 × 32 B sweep, the
    /// 16 B refinement and the final 2 B disambiguation.
    fn shapes(&self) -> [(Vec<PwSpec>, f64); 3] {
        let entry = self.targets[0]
            .program
            .entry()
            .expect("victim has an entry");
        let page = VirtAddr::new(entry.page_number() * PAGE_BYTES);
        let sweep = (0..8u64)
            .map(|w| PwSpec::new(page.offset(w * 32), 32).expect("sweep window"))
            .collect();
        let refine = vec![PwSpec::new(page.offset(0x40), 16).expect("refinement window")];
        let x = page.offset(0x41);
        let last = vec![PwSpec::from_range(x - 1u64, x.offset(1)).expect("final window")];
        [(sweep, 16.0), (refine, 4.0), (last, 1.0)]
    }

    /// The NV-S metrics and the reconciliation of measured extraction
    /// time against `passes × steps × (single_step + calibrate + probe)`
    /// plus rig rebuilds and the reconnaissance run.
    fn attack_metrics(
        &self,
        tally: &SimTally,
        tracer: &Tracer,
        ledger: &mut Ledger,
    ) -> [RigCost; 3] {
        let ops = tally.ops as f64;
        let steps = tally.get("steps") as f64;
        let passes = tally.phase_count(Phase::Custom("extraction_run")) as f64;
        ledger.put("nvs.passes", passes / ops, "count");
        ledger.put("nvs.steps", steps / ops, "count");
        ledger.put(
            "nvs.resolved_pcs",
            tally.get("resolved") as f64 / ops,
            "count",
        );
        ledger.put("nvs.extract_ms", tracer.mean_ms("nvs.extract_trace"), "ms");

        let programs: Vec<Program> = self.targets[..tally.ops as usize]
            .iter()
            .map(|t| t.program.clone())
            .collect();
        let mut measured_ms = 0.0;
        for program in &programs {
            let start = Instant::now();
            extract(program, &mut Core::new(UarchConfig::default())).expect("NV-S extraction");
            measured_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        let single_step_ns = layers::single_step_ns(&programs);
        let costs = self.shapes().map(|(shape, _)| layers::rig_cost(&shape));
        let [sweep, refine, last] = costs;
        let narrow = layers::mix(&[(refine, 4.0), (last, 1.0)]);

        let sweep_calls = SWEEP_RUNS as f64 * steps;
        let calibrations = tally.phase_count(Phase::Calibrate) as f64;
        let probes = tally.phase_count(Phase::Probe) as f64;
        let primes = tally.phase_count(Phase::Prime) as f64;
        // One single step per unit in every pass plus the recon run.
        let step_ms = single_step_ns * (passes + ops) / ops * steps / 1e6;
        // Sweep passes reuse one 8-window rig per page; refinement passes
        // rebuild a one-window rig for nearly every step.
        let rig_us = sweep_calls * (sweep.calibrate_us + sweep.probe_us)
            + (calibrations - sweep_calls).max(0.0) * (narrow.build_us + narrow.calibrate_us)
            + (probes - sweep_calls).max(0.0) * narrow.probe_us
            + primes * sweep.prime_us;
        let rig_ms = rig_us / 1e3;
        ledger.put("nvs.step_share", ratio(step_ms, measured_ms), "ratio");
        ledger.put("nvs.rig_share", ratio(rig_ms, measured_ms), "ratio");
        ledger.put(
            "nvs.unexplained_frac",
            ratio(measured_ms - step_ms - rig_ms, measured_ms),
            "ratio",
        );
        ledger.note(format!(
            "nvs reconciliation over {} extractions: measured {measured_ms:.1} ms, \
             single steps {step_ms:.1} ms, rig {rig_ms:.1} ms",
            tally.ops
        ));
        costs
    }
}

impl Workload for Nvs {
    const TAIL_PCT: f64 = 90.0;
    const MIN_OPS: usize = 100;
    const POOL: usize = 1024;
    const OP: &'static str = "extraction";
    const UNIT: &'static str = "resolved PCs";

    fn setup(seed: u64, pool: usize, _scratch: &Scratch) -> Nvs {
        let targets = Campaign::new(pool).threads(THREADS).run(|trial| {
            let program = build_victim(seed, trial.index).into_program();
            let truth = ground_truth(&program);
            Target { program, truth }
        });
        // Warm-up: one extraction before anything is timed, of a fixed
        // victim, so that set-up does the same work for every seed.
        let warm_up = build_victim(0, 0).into_program();
        extract(&warm_up, &mut Core::new(UarchConfig::default())).expect("NV-S extraction");
        Nvs { seed, targets }
    }

    fn measure(&self, budget: Budget, tracer: &Tracer) -> Outcome {
        let mut outcome = Outcome::default();
        windowed(
            &mut outcome,
            budget,
            |first, stop| {
                campaign_window(self.targets.len(), first, stop, |index, op| {
                    self.extract_op(index, tracer, op)
                })
            },
            |outcome, e| {
                outcome.attempt(e.ok, budget.min_ops);
                outcome.checked += e.steps as u64;
                outcome.right += e.correct as u64;
                outcome.record(e.ms, e.resolved as f64);
            },
        );
        outcome.trials = outcome.attempted as u64;
        if outcome.accuracy() < MIN_ACCURACY {
            outcome.failed = outcome.failed.max(1);
        }
        outcome
    }

    fn layers(&self, tracer: &Tracer, _scratch: &Scratch, ledger: &mut Ledger) -> u64 {
        let tally = self.tally(STATS_OPS);
        tally.put_counters(ledger);
        let [sweep, refine, last] = self.attack_metrics(&tally, tracer, ledger);
        layers::put_rig(
            ledger,
            &layers::mix(&[(sweep, 16.0), (refine, 4.0), (last, 1.0)]),
        );
        let build_ns = mean_ns(16, 30.0, |i| i, |i| build_victim(self.seed, i));
        ledger.put("victims.build_us", build_ns / 1e3, "us");
        let programs: Vec<Program> = self.targets[..STATS_OPS]
            .iter()
            .map(|t| t.program.clone())
            .collect();
        layers::program_layers(&programs, ledger);
        tally.digest()
    }

    fn reference(seed: u64, scratch: &Scratch, ledger: &mut Ledger) {
        let nvs = Nvs::setup(seed, 2, scratch);
        let tracer = Tracer::new(true);
        nvs.measure(Budget::ops(2), &tracer);
        let tally = nvs.tally(2);
        nvs.attack_metrics(&tally, &tracer, ledger);
    }
}
