//! Connection-layer hardening: non-reading and half-open peers are
//! dropped with typed metrics instead of wedging anything, heartbeats
//! keep quiet-but-alive connections open, and client connects are
//! bounded in time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nv_serve::wire::{encode_frame, read_frame};
use nv_serve::{Client, ClientError, JobSpec, Request, Response, Server, ServerConfig, WireError};

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
fn a_header_that_overclaims_its_length_is_dropped_within_the_write_deadline() {
    let spool = scratch_dir("overclaim");
    let server = Server::start(ServerConfig::new(&spool)).unwrap();

    // A ping frame whose length field claims 64 bytes more than follow,
    // as a bit flipped in transit leaves it. Once the frame has started,
    // the server waits for the rest only as long as its 2 s write
    // deadline, not the 60 s idle deadline, then hangs up.
    let mut frame = encode_frame(&Request::Ping { nonce: 0x0c1a }.encode());
    let claimed = u32::from_le_bytes(frame[4..8].try_into().unwrap()) + 64;
    frame[4..8].copy_from_slice(&claimed.to_le_bytes());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    stream.write_all(&frame).unwrap();
    let mut answer = Vec::new();
    let closed = stream.read_to_end(&mut answer);
    let elapsed = started.elapsed();
    assert!(
        closed.is_ok() && elapsed < Duration::from_secs(5),
        "the server must close within seconds: {closed:?} after {elapsed:?}"
    );
    assert!(answer.is_empty(), "a stalled frame gets no answer");

    let stats = Client::connect(server.addr()).unwrap().stats().unwrap();
    assert!(
        stats.metrics_json.contains("\"conn_idle_reaped\": 1"),
        "{}",
        stats.metrics_json
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_response_that_overclaims_its_length_fails_the_client_read_within_seconds() {
    // A server whose `pong` frame claims 64 bytes more than it sends and
    // then keeps the connection open, as a bit flipped in transit leaves
    // a stream's last frame. The client has no read timeout, but once a
    // frame has started it waits for the rest only as long as its 2 s
    // write deadline.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_frame(&mut stream).unwrap();
        let mut frame = encode_frame(&Response::Pong { nonce: 9 }.encode());
        let claimed = u32::from_le_bytes(frame[4..8].try_into().unwrap()) + 64;
        frame[4..8].copy_from_slice(&claimed.to_le_bytes());
        stream.write_all(&frame).unwrap();
        let _ = done_rx.recv_timeout(Duration::from_secs(30));
    });

    let mut client = Client::connect(addr).unwrap();
    let started = Instant::now();
    let result = client.ping(9);
    let elapsed = started.elapsed();
    done_tx.send(()).unwrap();
    peer.join().unwrap();
    assert!(
        matches!(result, Err(ClientError::Wire(WireError::Io(_)))),
        "{result:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "the client must give up within seconds, took {elapsed:?}"
    );
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
