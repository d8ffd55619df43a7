//! Connection-layer hardening: non-reading and half-open peers are
//! dropped with typed metrics instead of wedging anything, heartbeats
//! keep quiet-but-alive connections open, and client connects are
//! bounded in time.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nv_serve::wire::{encode_frame, read_frame};
use nv_serve::{Client, JobSpec, Request, Response, Server, ServerConfig};

fn scratch_dir(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("nv_serve_hard_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn small_job(seed: u64) -> JobSpec {
    let mut spec = JobSpec::nv_core(4, seed);
    spec.threads = 1;
    spec
}

#[test]
fn non_reading_peer_is_reaped_typed_and_wedges_nothing() {
    let spool = scratch_dir("loris");
    let mut config = ServerConfig::new(&spool);
    config.idle_timeout = Duration::from_millis(400);
    let server = Server::start(config).unwrap();

    // The slow loris: submits a job and then never reads a byte, and a
    // fully mute half-open companion that never even sends one.
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris
        .write_all(&encode_frame(
            &Request::Submit {
                tenant: "loris".to_string(),
                spec: small_job(0x10f1),
                idem: 0,
            }
            .encode(),
        ))
        .unwrap();
    let mute = TcpStream::connect(server.addr()).unwrap();

    // The loris's job still completes — its unread updates sit in socket
    // buffers, not in a worker's way — and a well-behaved client gets
    // normal service at the same time.
    let mut client = Client::connect(server.addr()).unwrap();
    let finished = client
        .submit_and_wait("acme", &small_job(0xf17e))
        .unwrap()
        .expect("a lorised server must still admit and serve");
    assert_eq!(finished.report.completed, 4);
    assert!(server.wait_idle(Duration::from_secs(60)));

    // Both hostile connections age past the idle deadline and are
    // reaped, with the typed metric to show for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.metrics_json.contains("\"conn_idle_reaped\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle peers were never reaped; metrics: {}",
            stats.metrics_json
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    drop(loris);
    drop(mute);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn heartbeats_keep_a_quiet_connection_alive_past_the_idle_deadline() {
    let spool = scratch_dir("ping");
    let mut config = ServerConfig::new(&spool);
    config.idle_timeout = Duration::from_millis(600);
    let server = Server::start(config).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    // Stay quiet except for heartbeats, for several idle deadlines.
    let until = Instant::now() + Duration::from_millis(1800);
    let mut nonce = 0x1d1e;
    while Instant::now() < until {
        assert_eq!(
            client.ping(nonce).unwrap(),
            nonce,
            "pong must echo the nonce"
        );
        nonce += 1;
        std::thread::sleep(Duration::from_millis(150));
    }
    // The connection survived: a real request still works on it.
    let stats = client.stats().unwrap();
    assert_eq!(stats.submitted, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_frame_paused_past_the_read_poll_is_still_served() {
    let spool = scratch_dir("slow_frame");
    let server = Server::start(ServerConfig::new(&spool)).unwrap();

    // Ten bytes of a ping frame, a pause longer than the server's 200 ms
    // read poll, then the rest: the server must wait the frame out, not
    // restart its read inside it.
    let frame = encode_frame(&Request::Ping { nonce: 0x51_0e }.encode());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&frame[..10]).unwrap();
    std::thread::sleep(Duration::from_millis(350));
    stream.write_all(&frame[10..]).unwrap();
    let reply = Response::decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert_eq!(reply, Response::Pong { nonce: 0x51_0e });

    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn connect_timeout_is_bounded_not_kernel_default() {
    // 198.51.100.0/24 (TEST-NET-2) black-holes on most networks; if this
    // environment refuses it instantly instead, the bound still holds.
    let started = Instant::now();
    let result = Client::connect_timeout("198.51.100.1:9", Duration::from_millis(250));
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "connect_timeout must bound a black-holed connect, took {elapsed:?}"
    );
    drop(result);

    // And a live target connects fine through the same path.
    let spool = scratch_dir("ct");
    let server = Server::start(ServerConfig::new(&spool)).unwrap();
    let mut client = Client::connect_timeout(server.addr(), Duration::from_secs(2)).unwrap();
    assert_eq!(client.ping(7).unwrap(), 7);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}
