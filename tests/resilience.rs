//! Resumability contract of the supervised campaign engine: for *every*
//! interruption point `k`, killing the campaign after `k` checkpointed
//! trials and resuming from the surviving file must reproduce the
//! uninterrupted output byte-for-byte — at 1, 2 and 8 worker threads.
//!
//! The always-on sweep keeps the trial function cheap (pure rng work) so
//! the full `(k, threads)` grid stays fast; the `proptest` feature widens
//! the grid with nv-rand-driven campaign shapes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nightvision::campaign::{Campaign, Trial};
use nightvision::checkpoint::fnv1a64;
use nightvision::{AttackError, CampaignCheckpoint, TrialOutcome};
use nv_rand::Rng;

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "nv_resume_sweep_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Cheap deterministic trial: a short walk on the trial's own stream.
fn rng_trial(trial: &mut Trial) -> Result<u64, AttackError> {
    let mut acc = trial.index as u64;
    for _ in 0..8 {
        acc = acc.wrapping_mul(0x9e37).wrapping_add(trial.rng.next_u64());
    }
    Ok(acc)
}

/// Runs a *serial* copy of `campaign` against a fresh checkpoint at
/// `path`, panicking (the stand-in for SIGKILL) once exactly `kill_at`
/// trials have completed. The checkpoint file survives the unwind
/// exactly like it would survive a process death. The kill runs on one
/// worker so the prefix is exact — with parallel workers the in-flight
/// trials race the kill counter and the surviving prefix would be
/// scheduling-dependent (covered separately by
/// `parallel_kill_still_resumes_identically`).
fn kill_after(campaign: &Campaign, path: &PathBuf, kill_at: usize, trials: usize) {
    let serial = campaign.threads(1);
    let key = serial.checkpoint_key(fnv1a64(b"resume sweep"));
    let checkpoint = CampaignCheckpoint::open(path, key).expect("open checkpoint");
    let completed = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        serial.resume(&checkpoint, |mut trial| {
            if completed.load(Ordering::SeqCst) >= kill_at {
                panic!("simulated SIGKILL");
            }
            let value = rng_trial(&mut trial)?;
            completed.fetch_add(1, Ordering::SeqCst);
            Ok(value)
        })
    }));
    assert!(
        result.is_err() || kill_at >= trials,
        "the kill must fire unless k covers the whole campaign"
    );
}

/// The sweep itself: every `k` in `0..=trials`, each at 1/2/8 threads.
fn sweep(trials: usize, master_seed: u64) {
    let baseline: Vec<TrialOutcome<u64>> = Campaign::new(trials)
        .master_seed(master_seed)
        .run_supervised(|mut t| rng_trial(&mut t))
        .0;
    for kill_at in 0..=trials {
        for threads in [1usize, 2, 8] {
            let campaign = Campaign::new(trials)
                .master_seed(master_seed)
                .threads(threads);
            let path = scratch(&format!("s{master_seed:x}_k{kill_at}_t{threads}"));
            kill_after(&campaign, &path, kill_at, trials);
            let key = campaign.checkpoint_key(fnv1a64(b"resume sweep"));
            let checkpoint = CampaignCheckpoint::open(&path, key).expect("reopen after kill");
            assert!(
                checkpoint.completed_trials() >= kill_at.min(trials),
                "checkpoint lost completed trials at k={kill_at}, threads={threads}"
            );
            let (resumed, _) = campaign.resume(&checkpoint, |mut t| rng_trial(&mut t));
            assert_eq!(
                resumed, baseline,
                "resume diverged at k={kill_at}, threads={threads}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn resume_from_every_prefix_is_identical() {
    sweep(9, 0x5eed_0001);
}

#[test]
fn resume_tolerates_a_corrupt_tail_at_every_prefix() {
    use std::io::Write;
    let trials = 6;
    let campaign = Campaign::new(trials).master_seed(0x5eed_0002).threads(2);
    let baseline = Campaign::new(trials)
        .master_seed(0x5eed_0002)
        .run_supervised(|mut t| rng_trial(&mut t))
        .0;
    for kill_at in 1..trials {
        let path = scratch(&format!("corrupt_k{kill_at}"));
        kill_after(&campaign, &path, kill_at, trials);
        {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("append garbage");
            file.write_all(b"{\"len\": 3, \"crc\": 42, \"body\": {\"trial\"")
                .expect("torn record");
        }
        let key = campaign.checkpoint_key(fnv1a64(b"resume sweep"));
        let checkpoint = CampaignCheckpoint::open(&path, key).expect("damaged file must open");
        assert!(checkpoint.dropped_records() >= 1);
        let (resumed, _) = campaign.resume(&checkpoint, |mut t| rng_trial(&mut t));
        assert_eq!(
            resumed, baseline,
            "corrupt tail broke resume at k={kill_at}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn parallel_kill_still_resumes_identically() {
    // Killing a multi-worker campaign checkpoints *some* prefix-superset
    // (in-flight trials may finish after the kill trips, or none may
    // have); whatever survives, resume must converge to the baseline.
    let trials = 12;
    let campaign = Campaign::new(trials).master_seed(0x5eed_0004).threads(8);
    let baseline = Campaign::new(trials)
        .master_seed(0x5eed_0004)
        .run_supervised(|mut t| rng_trial(&mut t))
        .0;
    let path = scratch("parallel_kill");
    let key = campaign.checkpoint_key(fnv1a64(b"resume sweep"));
    {
        let checkpoint = CampaignCheckpoint::open(&path, key).expect("open checkpoint");
        let completed = AtomicUsize::new(0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            campaign.resume(&checkpoint, |mut trial| {
                if completed.load(Ordering::SeqCst) >= 5 {
                    panic!("simulated SIGKILL");
                }
                let value = rng_trial(&mut trial)?;
                completed.fetch_add(1, Ordering::SeqCst);
                Ok(value)
            })
        }));
    }
    let checkpoint = CampaignCheckpoint::open(&path, key).expect("reopen after kill");
    let (resumed, _) = campaign.resume(&checkpoint, |mut t| rng_trial(&mut t));
    assert_eq!(resumed, baseline, "parallel kill broke resume identity");
    let _ = std::fs::remove_file(&path);
}

/// A 6-trial checkpoint at seed `0x5eed_0005`, killed after 3 trials,
/// byte for byte: the on-disk record format that restarted servers read
/// back, so a change to it must be deliberate.
const GOLDEN_CHECKPOINT: &str = concat!(
    "{\"len\": 103, \"crc\": 2636680721946631818, \"body\": {\"magic\": ",
    "\"nv-campaign-checkpoint-v1\", \"seed\": 1592590341, \"trials\": 6, ",
    "\"config\": 11484423709226150714}}\n",
    "{\"len\": 43, \"crc\": 9974159904131736089, \"body\": ",
    "{\"trial\": 0, \"data\": \"8171697769730856930\"}}\n",
    "{\"len\": 43, \"crc\": 6815430092344463208, \"body\": ",
    "{\"trial\": 1, \"data\": \"8746522585016478095\"}}\n",
    "{\"len\": 43, \"crc\": 15139547208892511878, \"body\": ",
    "{\"trial\": 2, \"data\": \"5385472612778424965\"}}\n",
);

#[test]
fn golden_checkpoint_resumes_without_rerunning_its_records() {
    let trials = 6;
    let campaign = Campaign::new(trials).master_seed(0x5eed_0005);
    let baseline = campaign.run_supervised(|mut t| rng_trial(&mut t)).0;
    let key = campaign.checkpoint_key(fnv1a64(b"resume sweep"));

    // The writer still produces the pinned bytes.
    let path = scratch("golden_write");
    kill_after(&campaign, &path, 3, trials);
    let written = std::fs::read_to_string(&path).expect("read checkpoint");
    assert_eq!(
        written, GOLDEN_CHECKPOINT,
        "checkpoint record bytes changed"
    );
    let _ = std::fs::remove_file(&path);

    for threads in [1usize, 2, 8] {
        let path = scratch(&format!("golden_t{threads}"));
        std::fs::write(&path, GOLDEN_CHECKPOINT).expect("write golden checkpoint");
        let checkpoint = CampaignCheckpoint::open(&path, key).expect("open golden checkpoint");
        assert_eq!(checkpoint.completed_trials(), 3);
        let ran = std::sync::Mutex::new(Vec::new());
        let (resumed, _) = campaign.threads(threads).resume(&checkpoint, |mut t| {
            ran.lock().unwrap().push(t.index);
            rng_trial(&mut t)
        });
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(
            ran,
            [3, 4, 5],
            "recorded trials re-ran at {threads} threads"
        );
        assert_eq!(
            resumed, baseline,
            "golden resume diverged at {threads} threads"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resume_rejects_a_fingerprint_mismatch() {
    let campaign = Campaign::new(4).master_seed(0x5eed_0003);
    let path = scratch("fingerprint");
    {
        let key = campaign.checkpoint_key(fnv1a64(b"config A"));
        CampaignCheckpoint::open(&path, key).expect("create");
    }
    let other = campaign.checkpoint_key(fnv1a64(b"config B"));
    match CampaignCheckpoint::open(&path, other) {
        Err(nightvision::CheckpointError::KeyMismatch { .. }) => {}
        Ok(_) => panic!("fingerprint mismatch must be rejected"),
        Err(e) => panic!("wrong error for fingerprint mismatch: {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Wide nv-rand-driven sweep: random campaign shapes, every prefix.
/// Run with `cargo test --features proptest`.
#[test]
#[cfg(feature = "proptest")]
fn resume_sweep_wide() {
    let mut rng = Rng::seed_from_u64(0x51de_ca5e);
    for _ in 0..8 {
        let trials = rng.gen_range(1usize..=24);
        let master_seed = rng.next_u64();
        sweep(trials, master_seed);
    }
}

// Keep the nv-rand import live in the always-on build too.
#[test]
fn trial_streams_feeding_the_sweep_are_reproducible() {
    let a: Vec<u64> = (0..4).map(|i| Rng::stream(7, i).next_u64()).collect();
    let b: Vec<u64> = (0..4).map(|i| Rng::stream(7, i).next_u64()).collect();
    assert_eq!(a, b);
}
