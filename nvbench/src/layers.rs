//! Direct-drive layer probes. Each times one layer's public calls from the
//! benchmark's own code: the program layers (decode, core, OS) on the
//! workload's victim programs, the rig at the workload's window shapes,
//! and the campaign, checkpoint, wire and journal layers on their own.

use std::time::Instant;

use nightvision::campaign::Campaign;
use nightvision::{AttackerRig, CampaignCheckpoint, PwSpec};
use nv_isa::Program;
use nv_obs::Metrics;
use nv_os::{syscalls, Enclave, RunOutcome, StepExit, System};
use nv_serve::wire::{encode_frame, read_frame};
use nv_serve::{JobJournal, JobReport, JobSpec, Request, Response, TrialUpdate};
use nv_uarch::{Core, DecodedImage, Machine, RunExit, UarchConfig};

use crate::util::{mean_ns, Ledger, Scratch};

/// Minimum timed work per probe, in milliseconds.
const PROBE_MS: f64 = 30.0;

/// Host cost of one rig call, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RigCost {
    pub build_us: f64,
    pub calibrate_us: f64,
    pub prime_us: f64,
    pub probe_us: f64,
}

/// Times `AttackerRig::new`, `calibrate`, `prime` and `probe` on one
/// window shape, on a fresh core.
pub fn rig_cost(shape: &[PwSpec]) -> RigCost {
    let build_ns = mean_ns(
        8,
        PROBE_MS,
        |_| shape.to_vec(),
        |pws| AttackerRig::new(pws).expect("rig builds"),
    );
    let mut core = Core::new(UarchConfig::default());
    let mut rig = AttackerRig::new(shape.to_vec()).expect("rig builds");
    let calibrate_ns = mean_ns(
        8,
        PROBE_MS,
        |_| (),
        |()| rig.calibrate(&mut core).expect("rig calibrates"),
    );
    let prime_ns = mean_ns(
        8,
        PROBE_MS,
        |_| (),
        |()| rig.prime(&mut core).expect("rig primes"),
    );
    let probe_ns = mean_ns(
        8,
        PROBE_MS,
        |_| (),
        |()| rig.probe(&mut core).expect("rig probes"),
    );
    RigCost {
        build_us: build_ns / 1e3,
        calibrate_us: calibrate_ns / 1e3,
        prime_us: prime_ns / 1e3,
        probe_us: probe_ns / 1e3,
    }
}

/// The weighted mean of `(cost, weight)` pairs.
pub fn mix(parts: &[(RigCost, f64)]) -> RigCost {
    let total: f64 = parts.iter().map(|(_, w)| w).sum();
    let mut mix = RigCost::default();
    for (c, weight) in parts {
        let w = weight / total;
        mix.build_us += w * c.build_us;
        mix.calibrate_us += w * c.calibrate_us;
        mix.prime_us += w * c.prime_us;
        mix.probe_us += w * c.probe_us;
    }
    mix
}

pub fn put_rig(ledger: &mut Ledger, cost: &RigCost) {
    ledger.put("rig.build_us", cost.build_us, "us");
    ledger.put("rig.calibrate_us", cost.calibrate_us, "us");
    ledger.put("rig.prime_us", cost.prime_us, "us");
    ledger.put("rig.probe_us", cost.probe_us, "us");
}

/// Mean host nanoseconds of `Enclave::single_step` over whole runs of
/// `programs`.
pub fn single_step_ns(programs: &[Program]) -> f64 {
    let (mut ns, mut steps) = (0.0, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() * 1e3 < PROBE_MS || steps == 0 {
        for program in programs {
            let mut enclave = Enclave::new(program.clone());
            let mut core = Core::new(UarchConfig::default());
            let t = Instant::now();
            loop {
                steps += 1;
                if enclave.single_step(&mut core).exit != StepExit::Retired {
                    break;
                }
            }
            ns += t.elapsed().as_nanos() as f64;
        }
    }
    ns / steps as f64
}

/// The decode, core and OS layers driven on the workload's programs.
pub fn program_layers(programs: &[Program], ledger: &mut Ledger) {
    let n = programs.len();
    let predecode_ns = mean_ns(n, PROBE_MS, |i| programs[i % n].clone(), DecodedImage::new);
    ledger.put("uarch.predecode_us", predecode_ns / 1e3, "us");

    let images: Vec<DecodedImage> = programs.iter().cloned().map(DecodedImage::new).collect();
    let addrs: Vec<Vec<nv_isa::VirtAddr>> = programs
        .iter()
        .map(|p| {
            p.segments()
                .iter()
                .flat_map(|s| (0..s.len() as u64).map(|off| s.base().offset(off)))
                .collect()
        })
        .collect();
    let fetches: usize = addrs.iter().map(Vec::len).sum();
    let sweep_ns = mean_ns(
        1,
        PROBE_MS,
        |_| (),
        |()| {
            for (image, addrs) in images.iter().zip(&addrs) {
                for &addr in addrs {
                    let _ = std::hint::black_box(image.decode_at(addr));
                }
            }
        },
    );
    ledger.put("uarch.fetch_ns", sweep_ns / fetches as f64, "ns");

    let (mut run_ns, mut core_steps) = (0.0, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() * 1e3 < PROBE_MS || core_steps == 0 {
        for image in &images {
            let mut machine = Machine::from_image(std::sync::Arc::new(image.clone()));
            let mut core = Core::new(UarchConfig::default());
            let t = Instant::now();
            while let RunExit::Syscall(syscalls::YIELD) = core.run(&mut machine, 1_000_000) {}
            run_ns += t.elapsed().as_nanos() as f64;
            core_steps += core.stats().steps;
        }
    }
    ledger.put("uarch.core.step_ns", run_ns / core_steps as f64, "ns");

    ledger.put("os.single_step_ns", single_step_ns(programs), "ns");
    let mut enclave = Enclave::new(programs[0].clone());
    let reset_ns = mean_ns(64, PROBE_MS, |_| (), |()| enclave.reset());
    ledger.put("os.enclave_reset_us", reset_ns / 1e3, "us");

    let (mut slice_ns, mut slices, mut runs) = (0.0, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() * 1e3 < PROBE_MS || runs == 0 {
        for program in programs {
            let mut system = System::new(UarchConfig::default());
            let pid = system.spawn(program.clone());
            loop {
                let t = Instant::now();
                let outcome = system.run(pid, 1_000_000);
                slice_ns += t.elapsed().as_nanos() as f64;
                slices += 1;
                if outcome != RunOutcome::Yielded {
                    break;
                }
            }
            runs += 1;
        }
    }
    ledger.put("os.system_run_us", slice_ns / slices as f64 / 1e3, "us");
    ledger.put("os.slices", slices as f64 / runs as f64, "count");
}

/// The campaign, checkpoint, wire and journal layers.
pub fn infra_layers(scratch: &Scratch, ledger: &mut Ledger) {
    const TRIALS: usize = 1024;
    for (threads, name) in [
        (1, "campaign.trial_overhead_us_t1"),
        (2, "campaign.trial_overhead_us_t2"),
    ] {
        let ns = mean_ns(
            4,
            PROBE_MS,
            |_| (),
            |()| {
                Campaign::new(TRIALS)
                    .threads(threads)
                    .run(|trial| trial.index)
            },
        );
        ledger.put(name, ns / TRIALS as f64 / 1e3, "us");
    }

    let key = Campaign::new(1 << 20).checkpoint_key(0x6e76_6265_6e63);
    let checkpoint =
        CampaignCheckpoint::open(scratch.path("probe.ckpt"), key).expect("open probe checkpoint");
    let append_ns = mean_ns(
        256,
        PROBE_MS,
        |i| i,
        |i| {
            checkpoint
                .append(i, "12884901904")
                .expect("checkpoint append")
        },
    );
    ledger.put("checkpoint.append_us", append_ns / 1e3, "us");

    // A representative job for the wire and journal probes.
    let spec = JobSpec::nv_core(16, 0x5eed);
    let request = Request::Submit {
        tenant: "bench".to_string(),
        spec,
        idem: 0,
    };
    let responses = [
        Response::Trial(TrialUpdate {
            job: 7,
            seq: 3,
            index: 2,
            outcome: "completed".to_string(),
            value: 12_884_901_904,
            resumed: false,
        }),
        Response::Done(JobReport {
            job: 7,
            trials: 16,
            completed: 16,
            quarantined: 0,
            resumed_trials: 0,
            passes: 1,
            digest: 0x1234_5678_9abc_def0,
            metrics_json: Metrics::default().to_json(),
        }),
    ];
    // One request and two responses per round, as a submit stream carries.
    let encode = |i: usize| match i {
        0 => encode_frame(&request.encode()),
        _ => encode_frame(&responses[i - 1].encode()),
    };
    let encode_ns = mean_ns(256, PROBE_MS, |i| i % 3, encode);
    let frames: Vec<Vec<u8>> = (0..3).map(encode).collect();
    let decode_ns = mean_ns(
        256,
        PROBE_MS,
        |i| i % 3,
        |i| {
            let payload = read_frame(&mut &frames[i][..]).expect("probe frame");
            if i == 0 {
                Request::decode(&payload)
                    .map(|_| ())
                    .expect("probe request")
            } else {
                Response::decode(&payload)
                    .map(|_| ())
                    .expect("probe response")
            }
        },
    );
    ledger.put("serve.wire.encode_ns", encode_ns, "ns");
    ledger.put("serve.wire.decode_ns", decode_ns, "ns");

    let (journal, _) = JobJournal::open(scratch.path("probe.jsonl")).expect("open probe journal");
    let journal_ns = mean_ns(
        256,
        PROBE_MS,
        |i| i as u64 + 1,
        |job| {
            journal
                .record_accept(job, "bench", &spec, 0)
                .expect("journal accept");
            journal.record_done(job, 0x1234_5678).expect("journal done");
        },
    );
    ledger.put("serve.journal.append_us", journal_ns / 1e3, "us");
}
