//! Session-resume and cancellation semantics against a live server:
//! every prefix of an update stream can be resumed from exactly, with
//! no duplicates and byte-identical frames; idempotency keys attach
//! instead of duplicating; epochs advance across restarts; wire-level
//! cancel lands as a typed terminal.

use std::path::PathBuf;
use std::time::Duration;

use nv_serve::proto::Response;
use nv_serve::{Client, JobSpec, Server, ServerConfig, Submission};

fn scratch_dir(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("nv_serve_resume_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn small_job(trials: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::nv_core(trials, seed);
    spec.threads = 1;
    spec
}

/// Drains a stream to its `Done`, returning the byte-encoded `Trial`
/// frames in arrival order, their sequence numbers, and the digest.
fn drain_to_done(client: &mut Client) -> (Vec<String>, Vec<u64>, u64) {
    let mut frames = Vec::new();
    let mut seqs = Vec::new();
    loop {
        match client.next_update().expect("stream frame") {
            Response::Trial(update) => {
                seqs.push(update.seq);
                frames.push(Response::Trial(update).encode());
            }
            Response::Done(report) => return (frames, seqs, report.digest),
            other => panic!("unexpected stream frame {other:?}"),
        }
    }
}

#[test]
fn every_prefix_resumes_byte_identical_and_duplicate_free() {
    const TRIALS: usize = 6;
    for &workers in &[1usize, 2, 8] {
        let spool = scratch_dir(&format!("sweep_w{workers}"));
        let mut config = ServerConfig::new(&spool);
        config.workers = workers;
        let server = Server::start(config).unwrap();
        let addr = server.addr();

        // One job per worker, submitted concurrently so publishes from
        // several workers interleave in the stream registry.
        let jobs: Vec<(u64, Vec<String>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|i| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let spec = small_job(TRIALS, 0x5eed ^ i as u64);
                        let finished = client
                            .submit_and_wait("acme", &spec)
                            .unwrap()
                            .expect("idle server must admit");
                        let frames: Vec<String> = finished
                            .updates
                            .iter()
                            .map(|u| Response::Trial(u.clone()).encode())
                            .collect();
                        (finished.report.job, frames, finished.report.digest)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (job, baseline_frames, digest) in &jobs {
            assert_eq!(baseline_frames.len(), TRIALS);
            // Kill-and-resume after every prefix: a client that saw the
            // first `cursor` updates reconnects and must receive exactly
            // the rest, byte-identical, in order, once.
            for cursor in 0..=TRIALS as u64 {
                let mut client = Client::connect(addr).unwrap();
                let (epoch, oldest) = client.resume_stream(*job, cursor).unwrap();
                assert_eq!(epoch, server.epoch());
                assert_eq!(oldest, 1, "nothing aged out of a {TRIALS}-update ring");
                let (frames, seqs, resumed_digest) = drain_to_done(&mut client);
                assert_eq!(
                    frames,
                    baseline_frames[cursor as usize..],
                    "workers={workers} job={job} cursor={cursor}: replay must be \
                     byte-identical to the unbroken stream's suffix"
                );
                let expected: Vec<u64> = (cursor + 1..=TRIALS as u64).collect();
                assert_eq!(
                    seqs, expected,
                    "workers={workers} job={job} cursor={cursor}: sequence numbers \
                     must be gapless and duplicate-free"
                );
                assert_eq!(resumed_digest, *digest);
            }
        }

        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }
}

#[test]
fn idempotency_key_attaches_to_the_original_job() {
    let spool = scratch_dir("idem");
    let server = Server::start(ServerConfig::new(&spool)).unwrap();
    let spec = small_job(4, 0xd00d);
    const KEY: u64 = 0x1de4_7057;

    let mut first = Client::connect(server.addr()).unwrap();
    let Submission::Accepted { job, .. } = first.submit_idem("acme", &spec, KEY).unwrap() else {
        panic!("must admit");
    };
    let (_, _, digest) = drain_to_done(&mut first);

    // Resubmitting the same (tenant, key) — even with the job long done —
    // attaches to the original: same id, full replay, same digest, and
    // no second admission in the counters.
    let mut second = Client::connect(server.addr()).unwrap();
    let Submission::Accepted { job: again, .. } = second.submit_idem("acme", &spec, KEY).unwrap()
    else {
        panic!("duplicate key must still answer accepted");
    };
    assert_eq!(again, job);
    let (frames, _, replay_digest) = drain_to_done(&mut second);
    assert_eq!(frames.len(), 4, "full stream replays to the duplicate");
    assert_eq!(replay_digest, digest);

    // A different tenant with the same key is a different job.
    let mut other = Client::connect(server.addr()).unwrap();
    let Submission::Accepted { job: theirs, .. } = other.submit_idem("rival", &spec, KEY).unwrap()
    else {
        panic!("other tenant must admit");
    };
    assert_ne!(theirs, job, "idempotency keys are scoped per tenant");

    let mut stats_client = Client::connect(server.addr()).unwrap();
    let stats = stats_client.stats().unwrap();
    assert_eq!(
        stats.submitted, 2,
        "the duplicate must not count as an admission"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn restart_advances_the_epoch_and_serves_terminal_only_resume() {
    let spool = scratch_dir("epoch");
    let spec = small_job(4, 0xca11);
    const KEY: u64 = 0xfeed_f00d;

    let (job, digest, first_epoch) = {
        let server = Server::start(ServerConfig::new(&spool)).unwrap();
        let epoch = server.epoch();
        let mut client = Client::connect(server.addr()).unwrap();
        let Submission::Accepted {
            job,
            epoch: wire_epoch,
        } = client.submit_idem("acme", &spec, KEY).unwrap()
        else {
            panic!("must admit");
        };
        assert_eq!(wire_epoch, epoch, "accepted frame carries the boot epoch");
        let (_, _, digest) = drain_to_done(&mut client);
        server.shutdown();
        (job, digest, epoch)
    };

    let server = Server::start(ServerConfig::new(&spool)).unwrap();
    assert_eq!(
        server.epoch(),
        first_epoch + 1,
        "every boot advances the epoch"
    );

    // The ring died with the old process; resume still works, degrading
    // to the journaled terminal (digest-only report).
    let mut client = Client::connect(server.addr()).unwrap();
    let (epoch, oldest) = client.resume_stream(job, 3).unwrap();
    assert_eq!(epoch, first_epoch + 1);
    assert_eq!(oldest, 0, "no updates are buffered for a previous-life job");
    match client.next_update().unwrap() {
        Response::Done(report) => {
            assert_eq!(report.digest, digest);
            assert_eq!(
                report.passes, 0,
                "digest-only reports are marked by passes=0"
            );
        }
        other => panic!("expected the journaled terminal, got {other:?}"),
    }

    // The idempotency index also survives the restart.
    let mut dup = Client::connect(server.addr()).unwrap();
    let Submission::Accepted { job: again, .. } = dup.submit_idem("acme", &spec, KEY).unwrap()
    else {
        panic!("duplicate key must answer accepted across restarts");
    };
    assert_eq!(again, job);
    match dup.next_update().unwrap() {
        Response::Done(report) => assert_eq!(report.digest, digest),
        other => panic!("expected the journaled terminal, got {other:?}"),
    }
    let stats = dup.stats().unwrap();
    assert_eq!(
        stats.submitted, 0,
        "nothing was newly admitted in this life"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn wire_cancel_lands_as_a_typed_terminal_and_survives_restart() {
    let spool = scratch_dir("cancel");
    let mut config = ServerConfig::new(&spool);
    config.workers = 1;
    let server = Server::start(config).unwrap();

    // A long job to cancel mid-run, and a queued one behind it.
    let mut running_client = Client::connect(server.addr()).unwrap();
    let Submission::Accepted {
        job: running_job, ..
    } = running_client
        .submit("acme", &small_job(4000, 0x4104))
        .unwrap()
    else {
        panic!("must admit the long job");
    };
    let mut queued_client = Client::connect(server.addr()).unwrap();
    let Submission::Accepted {
        job: queued_job, ..
    } = queued_client
        .submit("acme", &small_job(4, 0x0_fa57))
        .unwrap()
    else {
        panic!("must admit the queued job");
    };

    let mut ops = Client::connect(server.addr()).unwrap();

    // Cancel the queued job: terminal immediately, it never runs.
    assert_eq!(ops.cancel(queued_job).unwrap(), "queued");
    loop {
        match queued_client.next_update().unwrap() {
            Response::Cancelled { job, state } => {
                assert_eq!((job, state.as_str()), (queued_job, "cancelled"));
                break;
            }
            Response::Trial(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(ops.status(queued_job).unwrap().0, "cancelled");

    // Cancel the running job: the flag reaches inside the trial loop and
    // the stream ends with the typed terminal, not a hang.
    let ack = ops.cancel(running_job).unwrap();
    assert!(
        ack == "running" || ack == "queued" || ack == "done",
        "unexpected cancel ack {ack:?}"
    );
    if ack != "done" {
        loop {
            match running_client.next_update().unwrap() {
                Response::Cancelled { job, state } => {
                    assert_eq!((job, state.as_str()), (running_job, "cancelled"));
                    break;
                }
                Response::Trial(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(ops.status(running_job).unwrap().0, "cancelled");
    }

    // Cancelling the already-over is an informative no-op, typed.
    assert_eq!(ops.cancel(queued_job).unwrap(), "cancelled");
    assert_eq!(ops.cancel(0xdead).unwrap(), "unknown");

    assert!(server.wait_idle(Duration::from_secs(60)));
    server.shutdown();

    // Cancelled is durable: a restart does not resurrect either job.
    let server = Server::start(ServerConfig::new(&spool)).unwrap();
    assert_eq!(
        server.pending_jobs(),
        0,
        "cancel records must keep jobs out of the queue"
    );
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.status(queued_job).unwrap().0, "cancelled");
    // A cancelled job never runs again, so it keeps no checkpoint.
    for job in [queued_job, running_job] {
        assert!(
            !spool.join(format!("job_{job}.ckpt")).exists(),
            "cancelled job {job} left its checkpoint in the spool"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Resumes `job` from the start and returns its replayed sequence
/// numbers and its terminal report.
fn resume_all(client: &mut Client, job: u64) -> (Vec<u64>, nv_serve::JobReport) {
    client.resume_stream(job, 0).unwrap();
    let mut seqs = Vec::new();
    loop {
        match client.next_update().expect("stream frame") {
            Response::Trial(update) => seqs.push(update.seq),
            Response::Done(report) => return (seqs, report),
            other => panic!("unexpected stream frame {other:?}"),
        }
    }
}

#[test]
fn finished_jobs_past_ring_retention_keep_their_digest() {
    // A finished job keeps its ring while it is among the `queue_cap`
    // most recently finished; run more jobs than that.
    const KEEP: usize = 4;
    const JOBS: usize = KEEP + 2;
    let spool = scratch_dir("retention");
    let mut config = ServerConfig::new(&spool);
    config.queue_cap = KEEP;
    let server = Server::start(config.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let finished: Vec<_> = (0..JOBS)
        .map(|i| {
            client
                .submit_and_wait("acme", &small_job(2, 0x7e7a ^ i as u64))
                .unwrap()
                .expect("idle server must admit")
        })
        .collect();
    let (oldest, newest) = (&finished[0].report, &finished[JOBS - 1].report);

    // The oldest job lost its ring: resuming it gives the digest-only
    // terminal, as for a job from a previous life.
    let (epoch, first_seq) = client.resume_stream(oldest.job, 0).unwrap();
    assert_eq!((epoch, first_seq), (server.epoch(), 0));
    match client.next_update().unwrap() {
        Response::Done(report) => {
            assert_eq!(report.digest, oldest.digest);
            assert_eq!(report.passes, 0, "digest-only reports carry passes=0");
        }
        other => panic!("expected the digest-only terminal, got {other:?}"),
    }

    // The newest job still replays its whole ring, byte-identical.
    let (_, first_seq) = client.resume_stream(newest.job, 0).unwrap();
    assert_eq!(first_seq, 1);
    let (frames, seqs, digest) = drain_to_done(&mut client);
    let baseline: Vec<String> = finished[JOBS - 1]
        .updates
        .iter()
        .map(|u| Response::Trial(u.clone()).encode())
        .collect();
    assert_eq!(frames, baseline);
    assert_eq!(seqs, vec![1, 2]);
    assert_eq!(digest, newest.digest);

    // Status and cancel read one table entry, whether the job still
    // holds its ring, lost it, or finished in a previous life.
    let answers = |client: &mut Client, job: u64| {
        let status = client.status(job).unwrap();
        (status, client.cancel(job).unwrap())
    };
    let done = |job: &nv_serve::JobReport| (("done".to_string(), job.digest), "done".to_string());
    let cancelled = (("cancelled".to_string(), 0), "cancelled".to_string());
    assert_eq!(answers(&mut client, newest.job), done(newest));
    assert_eq!(answers(&mut client, oldest.job), done(oldest));

    // The same for a running job and a queued one behind it (one
    // worker); the long job is cancelled long before it could finish.
    let mut running_client = Client::connect(server.addr()).unwrap();
    let Submission::Accepted {
        job: running_job, ..
    } = running_client
        .submit("acme", &small_job(100_000, 0x4104))
        .unwrap()
    else {
        panic!("must admit the long job");
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while client.status(running_job).unwrap().0 != "running" {
        assert!(std::time::Instant::now() < deadline, "long job never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut queued_client = Client::connect(server.addr()).unwrap();
    let Submission::Accepted {
        job: queued_job, ..
    } = queued_client
        .submit("acme", &small_job(2, 0x0_fa57))
        .unwrap()
    else {
        panic!("must admit the queued job");
    };
    let queued = (("queued".to_string(), 0), "queued".to_string());
    let running = (("running".to_string(), 0), "running".to_string());
    assert_eq!(answers(&mut client, queued_job), queued);
    assert_eq!(answers(&mut client, running_job), running);
    assert!(server.wait_idle(Duration::from_secs(60)));
    assert_eq!(answers(&mut client, queued_job), cancelled);
    assert_eq!(answers(&mut client, running_job), cancelled);
    server.shutdown();

    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(answers(&mut client, newest.job), done(newest));
    assert_eq!(answers(&mut client, oldest.job), done(oldest));
    assert_eq!(answers(&mut client, queued_job), cancelled);
    assert_eq!(answers(&mut client, running_job), cancelled);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_wide_queue_keeps_every_ring_for_clients_that_drop_mid_stream() {
    // The chaos drill's admission (`queue_cap` 1024) with more jobs than
    // the default queue holds, every submitter hanging up right after
    // `Accepted`: each job still replays its whole ring on resume.
    const JOBS: u64 = 72;
    let spool = scratch_dir("wide_queue");
    let mut config = ServerConfig::new(&spool);
    config.workers = 2;
    config.queue_cap = 1024;
    config.tenant_quota = 1024;
    let server = Server::start(config).unwrap();
    let jobs: Vec<u64> = (0..JOBS)
        .map(|i| {
            let mut client = Client::connect(server.addr()).unwrap();
            match client.submit("acme", &small_job(2, 0xd409 ^ i)).unwrap() {
                Submission::Accepted { job, .. } => job,
                other => panic!("must admit every job, got {other:?}"),
            }
        })
        .collect();
    assert!(server.wait_idle(Duration::from_secs(120)));

    let mut client = Client::connect(server.addr()).unwrap();
    for job in jobs {
        let (seqs, report) = resume_all(&mut client, job);
        assert_eq!(seqs, vec![1, 2], "job {job} lost its ring");
        assert!(report.passes > 0, "job {job} answered digest-only");
        assert_eq!(
            client.status(job).unwrap(),
            ("done".to_string(), report.digest)
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}
