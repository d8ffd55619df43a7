//! `nvu-leak`: NV-U `leak_directions` on paper-hardened GCD (RSA-keygen
//! operands under the paper-calibrated noise model), bn_cmp and modexp
//! victims, one victim build per `Campaign` trial at two threads.

use std::time::Instant;

use nightvision::campaign::Campaign;
use nightvision::checkpoint::fnv1a64;
use nightvision::{AttackError, NoiseModel, NvUser, PwSpec, SliceReading};
use nv_obs::Recorder;
use nv_os::System;
use nv_rand::Rng;
use nv_uarch::UarchConfig;
use nv_victims::{BnCmpVictim, GcdVictim, ModExpVictim, RsaKeygen, VictimConfig, VictimProgram};

use crate::layers;
use crate::util::{
    campaign_window, mean_ns, ratio, thread_oblivious, windowed, Budget, Ledger, Outcome, Scratch,
    SimTally, Tracer, OBS_CAPACITY, THREADS,
};
use crate::Workload;

const SALT: u64 = 0x6e76_755f_6c65_616b;

/// Modulus of the modexp victims (as in the §7.2 reproduction).
const MODULUS: u64 = 1_000_003;

/// Slice budget per leak; every victim exits far sooner.
const MAX_SLICES: usize = 100_000;

/// Leaks whose simulated statistics are tallied (16 of each victim).
const STATS_OPS: usize = 48;

/// Minimum accuracy on the noisy GCD runs (the paper measures 99.3 %).
const MIN_ACCURACY: f64 = 0.95;

#[derive(Clone, Copy, Debug)]
enum Input {
    Gcd {
        secret: u64,
        public: u64,
        noise_seed: u64,
    },
    BnCmp {
        a: u64,
        b: u64,
    },
    ModExp {
        base: u64,
        exp: u64,
    },
}

impl Input {
    fn build(&self) -> VictimProgram {
        let config = VictimConfig::paper_hardened();
        match *self {
            Input::Gcd { secret, public, .. } => GcdVictim::build(secret, public, &config),
            Input::BnCmp { a, b } => BnCmpVictim::build(&[a], &[b], &config),
            Input::ModExp { base, exp } => ModExpVictim::build(base, exp, MODULUS, &config),
        }
        .expect("victim assembles")
    }

    fn noise(&self) -> NoiseModel {
        match *self {
            Input::Gcd { noise_seed, .. } => NoiseModel::paper_gcd(noise_seed),
            _ => NoiseModel::none(),
        }
    }
}

/// Op `i`'s input, cycling GCD, bn_cmp and modexp.
fn inputs(seed: u64, n: usize) -> Vec<Input> {
    let mut keygen = RsaKeygen::new(seed ^ SALT);
    let mut rng = Rng::seed_from_u64(seed ^ SALT.rotate_left(17));
    (0..n)
        .map(|i| match i % 3 {
            0 => {
                let run = keygen.next_run();
                Input::Gcd {
                    secret: run.secret,
                    public: run.public,
                    noise_seed: rng.next_u64(),
                }
            }
            1 => Input::BnCmp {
                a: keygen.next_run().secret | 1,
                b: keygen.next_run().secret | 1,
            },
            _ => Input::ModExp {
                base: rng.gen_range(2..MODULUS),
                exp: rng.gen_range(3u64..(1 << 16)) | 1,
            },
        })
        .collect()
}

/// Builds the victim, spawns it on a fresh system and leaks every
/// secret-branch direction.
fn attack(
    input: &Input,
    system: &mut System,
    tracer: &Tracer,
    op: u64,
) -> (VictimProgram, Result<Vec<SliceReading>, AttackError>) {
    let victim = tracer.span(op, "victims.build", || input.build());
    let pid = system.spawn(victim.program().clone());
    let readings = NvUser::for_victim(&victim, input.noise()).and_then(|mut attacker| {
        tracer.span(op, "nvu.leak", || {
            attacker.leak_directions(system, pid, MAX_SLICES)
        })
    });
    (victim, readings)
}

struct Leak {
    ms: f64,
    bits: usize,
    correct: usize,
    ok: bool,
}

pub struct Nvu {
    inputs: Vec<Input>,
}

impl Nvu {
    fn leak_op(&self, index: usize, tracer: &Tracer, op: u64) -> Leak {
        let input = &self.inputs[index];
        tracer.span(op, "campaign.trial", || {
            let start = Instant::now();
            let mut system = System::new(UarchConfig::default());
            let (victim, readings) = attack(input, &mut system, tracer, op);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let truth = victim.directions();
            let Ok(readings) = readings else {
                return Leak {
                    ms,
                    bits: truth.len(),
                    correct: 0,
                    ok: false,
                };
            };
            let inferred = NvUser::infer_directions(&readings);
            let correct = inferred.iter().zip(truth).filter(|(a, b)| a == b).count();
            // Only the GCD runs carry noise; the others must be exact.
            let exact = inferred == truth;
            Leak {
                ms,
                bits: truth.len(),
                correct,
                ok: exact || matches!(input, Input::Gcd { .. }),
            }
        })
    }

    /// NV-U with a recorder attached on the first `n` inputs.
    fn tally(&self, n: usize) -> SimTally {
        let inputs = &self.inputs[..n.min(self.inputs.len())];
        thread_oblivious(|threads| {
            let parts = Campaign::new(inputs.len()).threads(threads).run(|trial| {
                let mut system = System::new(UarchConfig::default());
                system.core_mut().attach_obs(Recorder::new(OBS_CAPACITY));
                let tracer = Tracer::new(false);
                let (victim, readings) = attack(&inputs[trial.index], &mut system, &tracer, 0);
                let readings = readings.expect("NV-U leak");
                let recorder = system
                    .core_mut()
                    .detach_obs()
                    .expect("recorder stays attached");
                let mut tally = SimTally {
                    ops: 1,
                    metrics: recorder.metrics(),
                    ..SimTally::default()
                };
                tally.add_core(&system.core().stats());
                tally.add_btb(&system.core().btb().stats());
                let inferred = NvUser::infer_directions(&readings);
                tally.count("slices", readings.len() as u64);
                tally.count("discarded", (readings.len() - inferred.len()) as u64);
                tally.count("bits", victim.directions().len() as u64);
                let bytes: Vec<u8> = inferred.iter().map(|&d| u8::from(d)).collect();
                tally.outputs.push(fnv1a64(&bytes));
                tally
            });
            parts.iter().fold(SimTally::default(), |mut all, part| {
                all.merge(part);
                all
            })
        })
    }

    fn attack_metrics(tally: &SimTally, tracer: &Tracer, ledger: &mut Ledger) {
        let slices = tally.get("slices") as f64;
        ledger.put("nvu.leak_us", tracer.mean_ms("nvu.leak") * 1e3, "us");
        ledger.put("nvu.slices_per_run", slices / tally.ops as f64, "count");
        ledger.put(
            "nvu.discarded_frac",
            ratio(tally.get("discarded") as f64, slices),
            "ratio",
        );
    }
}

impl Workload for Nvu {
    const TAIL_PCT: f64 = 90.0;
    const MIN_OPS: usize = 100;
    const POOL: usize = 3072;
    const OP: &'static str = "victim run";
    const UNIT: &'static str = "victim runs leaked";

    fn setup(seed: u64, pool: usize, _scratch: &Scratch) -> Nvu {
        let nvu = Nvu {
            inputs: inputs(seed, pool),
        };
        // Build the whole victim corpus once, checking that every victim
        // has a monitorable branch pair, then warm up on one of each kind.
        Campaign::new(pool).threads(THREADS).run(|trial| {
            let input = &nvu.inputs[trial.index];
            NvUser::for_victim(&input.build(), input.noise()).expect("attacker builds");
        });
        for index in 0..3.min(pool) {
            nvu.leak_op(index, &Tracer::new(false), 0);
        }
        nvu
    }

    fn measure(&self, budget: Budget, tracer: &Tracer) -> Outcome {
        let mut outcome = Outcome::default();
        windowed(
            &mut outcome,
            budget,
            |first, stop| {
                campaign_window(self.inputs.len(), first, stop, |index, op| {
                    self.leak_op(index, tracer, op)
                })
            },
            |outcome, leak| {
                outcome.attempt(leak.ok, budget.min_ops);
                outcome.checked += leak.bits as u64;
                outcome.right += leak.correct as u64;
                outcome.record(leak.ms, 1.0);
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
        Nvu::attack_metrics(&tally, tracer, ledger);
        let victims: Vec<VictimProgram> = self.inputs[..6].iter().map(Input::build).collect();
        // NV-U's pair of 16-byte windows, one inside each side of the
        // secret branch, for one victim of each kind.
        let costs: Vec<(layers::RigCost, f64)> = victims[..3]
            .iter()
            .map(|victim| {
                let attacker = NvUser::for_victim(victim, NoiseModel::none()).expect("attacker");
                let shape: Vec<PwSpec> = attacker.pws().to_vec();
                (layers::rig_cost(&shape), 1.0)
            })
            .collect();
        layers::put_rig(ledger, &layers::mix(&costs));
        let n = self.inputs.len();
        let build_ns = mean_ns(16, 30.0, |i| self.inputs[i % n], |input| input.build());
        ledger.put("victims.build_us", build_ns / 1e3, "us");
        let programs: Vec<_> = victims
            .into_iter()
            .map(VictimProgram::into_program)
            .collect();
        layers::program_layers(&programs, ledger);
        tally.digest()
    }

    fn reference(seed: u64, scratch: &Scratch, ledger: &mut Ledger) {
        let nvu = Nvu::setup(seed, 3, scratch);
        let tracer = Tracer::new(true);
        nvu.measure(Budget::ops(30), &tracer);
        Nvu::attack_metrics(&nvu.tally(3), &tracer, ledger);
    }
}
