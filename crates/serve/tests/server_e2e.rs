//! End-to-end tests against a live server on a loopback socket:
//! submit/stream/done, overload and quota rejections, drain, hostile
//! frames, and the headline property — shutdown with jobs still queued,
//! restart on the same spool, byte-identical digests.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use nv_serve::proto::{RejectReason, Response};
use nv_serve::wire::{encode_frame, read_frame, MAGIC};
use nv_serve::{Client, JobSpec, Server, ServerConfig, Submission};

fn scratch_dir(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("nv_serve_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn small_job(seed: u64) -> JobSpec {
    let mut spec = JobSpec::nv_core(4, seed);
    spec.threads = 1;
    spec
}

#[test]
fn submit_streams_trials_then_done() {
    let spool = scratch_dir("submit");
    let server = Server::start(ServerConfig::new(&spool)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let finished = client
        .submit_and_wait("acme", &small_job(0xabc))
        .unwrap()
        .expect("an idle server must admit");
    assert_eq!(finished.report.trials, 4);
    assert_eq!(finished.report.completed, 4);
    assert_eq!(finished.updates.len(), 4, "every trial must stream");
    assert!(finished.report.digest != 0);
    assert!(
        finished.report.metrics_json.contains("\"trials\""),
        "report must carry an nv-obs metrics snapshot"
    );

    // The digest is what a local run of the same spec produces.
    let (state, digest) = client.status(finished.report.job).unwrap();
    assert_eq!(state, "done");
    assert_eq!(digest, finished.report.digest);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn overload_is_rejected_typed_and_census_balances() {
    let spool = scratch_dir("overload");
    let mut config = ServerConfig::new(&spool);
    config.workers = 1;
    config.queue_cap = 2;
    let server = Server::start(config).unwrap();

    // Flood from one thread faster than one worker can drain: with a
    // cap of 2, some admissions must bounce.
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    let mut clients = Vec::new();
    for i in 0..12u64 {
        let mut client = Client::connect(server.addr()).unwrap();
        match client.submit("acme", &small_job(0x1000 + i)).unwrap() {
            Submission::Accepted { job, .. } => {
                accepted.push(job);
                clients.push(client);
            }
            Submission::Rejected(RejectReason::QueueFull { depth, cap }) => {
                assert!(depth <= cap, "queue depth {depth} breached cap {cap}");
                rejected += 1;
            }
            Submission::Rejected(other) => panic!("unexpected rejection {other:?}"),
        }
    }
    assert!(rejected > 0, "a cap of 2 must reject under a 12-job flood");

    // Every accepted stream finishes.
    for mut client in clients {
        loop {
            match client.next_update().unwrap() {
                Response::Done(report) => {
                    assert_eq!(report.completed, 4);
                    break;
                }
                Response::Trial(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.submitted, accepted.len() as u64);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, accepted.len() as u64);
    assert!(stats.peak_queue_depth <= stats.queue_cap);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn tenant_quota_rejects_the_hog_not_the_neighbour() {
    let spool = scratch_dir("quota");
    let mut config = ServerConfig::new(&spool);
    config.workers = 1;
    config.tenant_quota = 1;
    config.queue_cap = 16;
    let server = Server::start(config).unwrap();

    // The hog's first job is long (1000 NV-S extractions), so it is still
    // active when the second arrives however fast the host runs jobs. It
    // is cancelled before shutdown, which waits for running jobs.
    let mut first = Client::connect(server.addr()).unwrap();
    let long_job = JobSpec {
        trials: 1_000,
        ..JobSpec::nv_s(1)
    };
    let Submission::Accepted { job: hog_job, .. } = first.submit("hog", &long_job).unwrap() else {
        panic!("first job must be admitted");
    };
    let mut second = Client::connect(server.addr()).unwrap();
    match second.submit("hog", &small_job(2)).unwrap() {
        Submission::Rejected(RejectReason::TenantQuota { active, quota }) => {
            assert_eq!((active, quota), (1, 1));
        }
        other => panic!("hog's second job must hit the quota, got {other:?}"),
    }
    // A different tenant is unaffected by the hog's quota.
    let mut neighbour = Client::connect(server.addr()).unwrap();
    assert!(matches!(
        neighbour.submit("neighbour", &small_job(3)).unwrap(),
        Submission::Accepted { .. }
    ));

    Client::connect(server.addr())
        .unwrap()
        .cancel(hog_job)
        .unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn drain_finishes_queued_work_and_rejects_new() {
    let spool = scratch_dir("drain");
    let mut config = ServerConfig::new(&spool);
    config.workers = 1;
    let server = Server::start(config).unwrap();

    let mut worker_client = Client::connect(server.addr()).unwrap();
    let Submission::Accepted { .. } = worker_client.submit("acme", &small_job(7)).unwrap() else {
        panic!("must admit before drain");
    };

    let mut ops = Client::connect(server.addr()).unwrap();
    ops.drain().unwrap();
    match ops.submit("acme", &small_job(8)).unwrap() {
        Submission::Rejected(RejectReason::Draining) => {}
        other => panic!("a draining server must reject typed, got {other:?}"),
    }

    // The pre-drain job still finishes.
    loop {
        match worker_client.next_update().unwrap() {
            Response::Done(report) => {
                assert_eq!(report.completed, 4);
                break;
            }
            Response::Trial(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn hostile_frames_get_a_typed_error_then_the_boot() {
    let spool = scratch_dir("hostile");
    let server = Server::start(ServerConfig::new(&spool)).unwrap();

    // Bad magic.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"EVIL").unwrap();
    stream.write_all(&[0u8; 12]).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(reply.contains("\"error\""), "got: {reply}");

    // Checksum mismatch.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut frame = encode_frame("{\"req\": \"stats\"}");
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    stream.write_all(&frame).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(reply.contains("checksum"), "got: {reply}");

    // Oversized length field.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&MAGIC);
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&0u64.to_le_bytes());
    stream.write_all(&hostile).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(reply.contains("exceeds"), "got: {reply}");

    // Well-framed garbage message.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(&encode_frame("{\"req\": \"make_me_a_sandwich\"}"))
        .unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(reply.contains("\"error\""), "got: {reply}");

    // The server survived all of it.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.stats().unwrap().submitted, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn shutdown_with_queued_jobs_resumes_byte_identical_on_restart() {
    let spool = scratch_dir("resume");

    // Baseline digests from an uninterrupted server.
    let specs: Vec<JobSpec> = (0..3).map(|i| small_job(0xbeef + i)).collect();
    let baseline: Vec<u64> = {
        let baseline_spool = scratch_dir("resume_baseline");
        let server = Server::start(ServerConfig::new(&baseline_spool)).unwrap();
        let digests = specs
            .iter()
            .map(|spec| {
                let mut client = Client::connect(server.addr()).unwrap();
                client
                    .submit_and_wait("acme", spec)
                    .unwrap()
                    .unwrap()
                    .report
                    .digest
            })
            .collect();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&baseline_spool);
        digests
    };

    // Submit all three, then shut down before the single slow worker can
    // finish the tail: the queued jobs are abandoned to the journal.
    let jobs: Vec<u64> = {
        let mut config = ServerConfig::new(&spool);
        config.workers = 1;
        let server = Server::start(config).unwrap();
        let mut ids = Vec::new();
        let mut clients = Vec::new();
        for spec in &specs {
            let mut client = Client::connect(server.addr()).unwrap();
            match client.submit("acme", spec).unwrap() {
                Submission::Accepted { job, .. } => ids.push(job),
                other => panic!("must admit, got {other:?}"),
            }
            clients.push(client);
        }
        server.shutdown();
        ids
    };

    // Restart on the same spool at a different worker count: the journal
    // re-queues whatever had not finished; digests must match the
    // uninterrupted baseline exactly.
    let mut config = ServerConfig::new(&spool);
    config.workers = 2;
    let server = Server::start(config).unwrap();
    assert!(
        server.wait_idle(Duration::from_secs(120)),
        "resumed jobs must finish"
    );

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.resumed > 0 || stats.completed > 0,
        "restart must have resumed or already-finished jobs"
    );
    for (job, want) in jobs.iter().zip(&baseline) {
        let (state, digest) = client.status(*job).unwrap();
        assert_eq!(state, "done", "job {job} must finish across the restart");
        assert_eq!(
            digest, *want,
            "job {job} digest must be byte-identical to the uninterrupted run"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}
