//! Codec edge cases the happy path never exercises: frames split at
//! every byte boundary, pipelined back-to-back frames in a single read —
//! through the bare codec and through the client's and the node's
//! buffered readers — duplicate-request-id replay hitting the node's
//! dedup cache, and a short deadline after a long one.

use std::collections::VecDeque;
use std::io::{self, Cursor, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use net::{
    decode_frame, encode_frame, read_frame, Connection, ForecastOutcome, HealthReport, IngestEntry,
    Listener, Message, NetError, NodeClient, NodeConfig, NodeServer, SeedSpec, SimNet,
    TcpTransport, Transport, IDEMPOTENT_ID_BASE,
};
use obs::MonotonicClock;
use serve::{PredictionService, ServiceConfig};

/// A reader that serves a frame as a fixed sequence of parts, at most
/// one part per `read` call — the worst-case fragmentation a stream
/// transport is allowed to produce.
struct SplitReader {
    parts: Vec<Vec<u8>>,
    idx: usize,
    off: usize,
}

impl SplitReader {
    fn new(parts: Vec<Vec<u8>>) -> Self {
        SplitReader {
            parts,
            idx: 0,
            off: 0,
        }
    }
}

impl Read for SplitReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.idx < self.parts.len() {
            let part = &self.parts[self.idx];
            if self.off >= part.len() {
                self.idx += 1;
                self.off = 0;
                continue;
            }
            let n = (part.len() - self.off).min(buf.len());
            buf[..n].copy_from_slice(&part[self.off..self.off + n]);
            self.off += n;
            return Ok(n);
        }
        Ok(0)
    }
}

fn sample_message() -> Message {
    Message::Ingest {
        entries: vec![IngestEntry {
            entity: "edge-entity".into(),
            seq: Some(42),
            values: vec![0.25, 0.5, 0.75],
        }],
    }
}

/// Decoding must survive the frame arriving split at *every* possible
/// byte boundary (header/payload straddles included).
#[test]
fn frames_split_at_every_byte_boundary_decode() {
    let bytes = encode_frame(901, &sample_message()).expect("encode");
    for split in 1..bytes.len() {
        let parts = vec![bytes[..split].to_vec(), bytes[split..].to_vec()];
        let mut r = SplitReader::new(parts);
        let (id, msg) =
            read_frame(&mut r).unwrap_or_else(|e| panic!("split at byte {split} failed: {e}"));
        assert_eq!(id, 901);
        assert!(matches!(msg, Message::Ingest { .. }), "split {split}");
    }
    // Absolute worst case: one byte per read.
    let parts: Vec<Vec<u8>> = bytes.iter().map(|b| vec![*b]).collect();
    let mut r = SplitReader::new(parts);
    let (id, _) = read_frame(&mut r).expect("byte-at-a-time decode");
    assert_eq!(id, 901);
}

/// Several frames concatenated back to back (as a pipelining client
/// would send them) must decode one after another from the same stream,
/// ids intact and in order.
#[test]
fn pipelined_back_to_back_frames_decode_in_order() {
    let mut stream = Vec::new();
    for id in 1..=5u64 {
        stream.extend_from_slice(&encode_frame(id, &Message::Health).expect("encode"));
    }
    stream.extend_from_slice(&encode_frame(6, &sample_message()).expect("encode"));
    let mut r = Cursor::new(stream);
    for want in 1..=5u64 {
        let (id, msg) = read_frame(&mut r).expect("pipelined frame");
        assert_eq!(id, want);
        assert!(matches!(msg, Message::Health));
    }
    let (id, msg) = read_frame(&mut r).expect("final frame");
    assert_eq!(id, 6);
    assert!(matches!(msg, Message::Ingest { .. }));
}

fn start_sim_node(net: &SimNet, name: &str) -> NodeServer {
    let service = PredictionService::new(ServiceConfig {
        shards: 1,
        refit_every: 0,
        score_on_ingest: false,
        clock: MonotonicClock::shared(),
        ..ServiceConfig::default()
    })
    .expect("service");
    NodeServer::start_with(
        NodeConfig {
            listen: name.to_string(),
            idle_poll: Duration::from_millis(5),
            ..NodeConfig::default()
        },
        service,
        net.transport(name),
    )
    .expect("node")
}

/// Replaying a mutating request under the same idempotent id must hit
/// the node's dedup cache: the sample applies once, the second reply
/// comes from cache, and the dedup-hit counter says so.
#[test]
fn duplicate_request_id_replay_hits_node_dedup() {
    let net = SimNet::new(21);
    let node = start_sim_node(&net, "edge-node");
    let tp = net.transport("edge-client");
    let mut client = NodeClient::connect_with(tp.as_ref(), "edge-node", Duration::from_secs(1))
        .expect("connect");
    let timeout = Duration::from_secs(2);
    // Seed the entity first (under its own idempotent id).
    let seed_id = IDEMPOTENT_ID_BASE + 1;
    let reply = client
        .request_with_id(
            seed_id,
            &Message::Seed(SeedSpec {
                ids: vec!["edge-entity".into()],
                seed: 3,
                bootstrap_len: 32,
                window: 8,
            }),
            timeout,
        )
        .expect("seed");
    assert!(matches!(reply, Message::SeedOk { installed: 1, .. }));
    let ingest_id = IDEMPOTENT_ID_BASE + 2;
    let msg = sample_message();
    let msg = match msg {
        Message::Ingest { mut entries } => {
            entries[0].values = vec![0.5];
            Message::Ingest { entries }
        }
        other => other,
    };
    let first = client
        .request_with_id(ingest_id, &msg, timeout)
        .expect("first ingest");
    let replay = client
        .request_with_id(ingest_id, &msg, timeout)
        .expect("replayed ingest");
    // Both replies acknowledge, but the node executed once.
    assert!(matches!(first, Message::IngestOk { accepted: 1, .. }));
    assert!(matches!(replay, Message::IngestOk { accepted: 1, .. }));
    assert_eq!(node.dedup_hits(), 1, "replay must be answered from cache");
    let ingested = node.with_service(|s| {
        s.flush().expect("flush");
        s.stats().total(|s| s.ingested)
    });
    assert_eq!(ingested, 1, "the sample must apply exactly once");
    // A *fresh* id with the same payload is a new request and executes.
    let second = client
        .request_with_id(IDEMPOTENT_ID_BASE + 3, &msg, timeout)
        .expect("new id");
    assert!(matches!(second, Message::IngestOk { accepted: 1, .. }));
    assert_eq!(node.dedup_hits(), 1);
}

/// Two connections racing the same request id must still produce an
/// exactly-once effect: the second execution waits for the first and
/// answers from its reply (the in-flight guard in the node).
#[test]
fn concurrent_same_id_requests_apply_once() {
    let net = SimNet::new(22);
    let node = start_sim_node(&net, "race-node");
    let timeout = Duration::from_secs(2);
    // Seed one entity.
    let tp = net.transport("race-client");
    let mut seeder = NodeClient::connect_with(tp.as_ref(), "race-node", Duration::from_secs(1))
        .expect("connect");
    seeder
        .request_with_id(
            IDEMPOTENT_ID_BASE + 10,
            &Message::Seed(SeedSpec {
                ids: vec!["edge-entity".into()],
                seed: 4,
                bootstrap_len: 32,
                window: 8,
            }),
            timeout,
        )
        .expect("seed");
    let race_id = IDEMPOTENT_ID_BASE + 11;
    let mut workers = Vec::new();
    for w in 0..4 {
        let tp = net.transport(&format!("race-client-{w}"));
        workers.push(std::thread::spawn(move || {
            let mut c = NodeClient::connect_with(tp.as_ref(), "race-node", Duration::from_secs(1))
                .expect("connect");
            c.request_with_id(race_id, &sample_message_single(), timeout)
                .expect("raced request")
        }));
    }
    for w in workers {
        let reply = w.join().expect("worker");
        assert!(matches!(reply, Message::IngestOk { accepted: 1, .. }));
    }
    let ingested = node.with_service(|s| {
        s.flush().expect("flush");
        s.stats().total(|s| s.ingested)
    });
    assert_eq!(ingested, 1, "four racing replays must apply exactly once");
    assert_eq!(node.dedup_hits(), 3);
}

fn sample_message_single() -> Message {
    Message::Ingest {
        entries: vec![IngestEntry {
            entity: "edge-entity".into(),
            seq: None,
            values: vec![0.5],
        }],
    }
}

/// A connection whose reads serve fixed parts (at most one per `read`,
/// then EOF) and whose writes land in a buffer the test can inspect.
struct Scripted {
    reads: SplitReader,
    written: Arc<Mutex<Vec<u8>>>,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads.read(buf)
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.lock().expect("written").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Connection for Scripted {
    fn set_read_timeout(&mut self, _d: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn set_write_timeout(&mut self, _d: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn peer(&self) -> String {
        "scripted".into()
    }
}

fn scripted(parts: Vec<Vec<u8>>) -> (Scripted, Arc<Mutex<Vec<u8>>>) {
    let written = Arc::new(Mutex::new(Vec::new()));
    let conn = Scripted {
        reads: SplitReader::new(parts),
        written: Arc::clone(&written),
    };
    (conn, written)
}

/// A transport whose connections are scripted: `connect` hands out the
/// next queued client-side script, and its one listener accepts the
/// node-side scripts the test dials.
struct ScriptedTransport {
    client_parts: Mutex<VecDeque<Vec<Vec<u8>>>>,
    accept_tx: Mutex<Sender<Scripted>>,
    accept_rx: Mutex<Option<Receiver<Scripted>>>,
}

impl ScriptedTransport {
    fn new(client_parts: Vec<Vec<Vec<u8>>>) -> Arc<ScriptedTransport> {
        let (tx, rx) = channel();
        Arc::new(ScriptedTransport {
            client_parts: Mutex::new(client_parts.into()),
            accept_tx: Mutex::new(tx),
            accept_rx: Mutex::new(Some(rx)),
        })
    }

    /// Hand the node one inbound connection; returns what it writes.
    fn dial_node(&self, parts: Vec<Vec<u8>>) -> Arc<Mutex<Vec<u8>>> {
        let (conn, written) = scripted(parts);
        self.accept_tx
            .lock()
            .expect("tx")
            .send(conn)
            .expect("node listens");
        written
    }
}

struct ScriptedListener(Mutex<Receiver<Scripted>>);

impl Listener for ScriptedListener {
    fn accept(&self) -> io::Result<Box<dyn Connection>> {
        match self.0.lock().expect("rx").recv() {
            Ok(conn) => Ok(Box::new(conn)),
            Err(_) => Err(io::Error::new(io::ErrorKind::NotConnected, "closed")),
        }
    }

    fn local_addr(&self) -> String {
        "scripted-node".into()
    }
}

impl Transport for ScriptedTransport {
    fn connect(&self, _addr: &str, _timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        let script = self.client_parts.lock().expect("parts").pop_front();
        if script.is_none() {
            // Past the scripts, the caller is the node's own wake-up at
            // shutdown: it must reach the accept loop, as a TCP connect does.
            let _ = self.dial_node(Vec::new());
        }
        Ok(Box::new(scripted(script.unwrap_or_default()).0))
    }

    fn bind(&self, _addr: &str) -> Result<Box<dyn Listener>, NetError> {
        let rx = self.accept_rx.lock().expect("rx").take();
        Ok(Box::new(ScriptedListener(Mutex::new(
            rx.expect("one listener"),
        ))))
    }
}

fn forecast_reply(id: u64) -> Vec<u8> {
    let msg = Message::ForecastOk {
        results: vec![
            ("edge-a".into(), ForecastOutcome::Values(vec![0.25, -1.5])),
            ("edge-b".into(), ForecastOutcome::Unknown),
        ],
    };
    encode_frame(id, &msg).expect("encode")
}

/// The client reads replies through its buffer: a reply split at every
/// byte boundary decodes, and two replies that arrive in one read answer
/// two requests in turn — the second from bytes already buffered.
#[test]
fn client_reads_split_and_coalesced_replies_through_its_buffer() {
    let bytes = forecast_reply(7);
    let mut scripts: Vec<Vec<Vec<u8>>> = (1..bytes.len())
        .map(|split| vec![bytes[..split].to_vec(), bytes[split..].to_vec()])
        .collect();
    let mut coalesced = forecast_reply(8);
    coalesced.extend_from_slice(
        &encode_frame(9, &Message::HealthOk(HealthReport::default())).expect("encode"),
    );
    scripts.push(vec![coalesced]);
    let splits = scripts.len() - 1;
    let tp = ScriptedTransport::new(scripts);
    let ask = Message::Forecast {
        ids: vec!["edge-a".into(), "edge-b".into()],
    };
    let timeout = Duration::from_secs(1);
    for split in 1..=splits {
        let mut client =
            NodeClient::connect_with(tp.as_ref(), "scripted-node", timeout).expect("connect");
        let reply = client
            .request_with_id(7, &ask, timeout)
            .unwrap_or_else(|e| panic!("reply split at byte {split}: {e}"));
        assert_eq!(
            encode_frame(7, &reply).expect("encode"),
            bytes,
            "split {split}"
        );
    }
    let mut client =
        NodeClient::connect_with(tp.as_ref(), "scripted-node", timeout).expect("connect");
    let first = client
        .request_with_id(8, &ask, timeout)
        .expect("first reply");
    assert!(matches!(first, Message::ForecastOk { .. }));
    let second = client
        .request_with_id(9, &Message::Health, timeout)
        .expect("second reply, already buffered");
    assert!(matches!(second, Message::HealthOk(_)));
}

/// Wait until `written` holds `frames` complete frames; decode them.
fn replies(written: &Arc<Mutex<Vec<u8>>>, frames: usize) -> Vec<(u64, Message)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let bytes = written.lock().expect("written").clone();
        let mut rest = &bytes[..];
        let mut out = Vec::new();
        while let Ok((id, msg, used)) = decode_frame(rest) {
            out.push((id, msg));
            rest = &rest[used..];
        }
        if out.len() >= frames || Instant::now() > deadline {
            return out;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The node reads requests through its buffer: a request split at every
/// byte boundary is answered, and two requests that arrive in one read are
/// both answered, in order, on the same connection.
#[test]
fn node_reads_split_and_coalesced_requests_through_its_buffer() {
    let tp = ScriptedTransport::new(Vec::new());
    let service = PredictionService::new(ServiceConfig {
        shards: 1,
        refit_every: 0,
        ..ServiceConfig::default()
    })
    .expect("service");
    let node = NodeServer::start_with(
        NodeConfig {
            listen: "scripted-node".into(),
            ..NodeConfig::default()
        },
        service,
        tp.clone(),
    )
    .expect("node");
    let ask = Message::Forecast {
        ids: vec!["edge-a".into(), "edge-b".into()],
    };
    let unknown_both = |msg: &Message| {
        matches!(msg, Message::ForecastOk { results } if results.len() == 2
            && results.iter().all(|(_, o)| matches!(o, ForecastOutcome::Unknown)))
    };
    let bytes = encode_frame(11, &ask).expect("encode");
    for split in 1..bytes.len() {
        let written = tp.dial_node(vec![bytes[..split].to_vec(), bytes[split..].to_vec()]);
        let got = replies(&written, 1);
        assert_eq!(got.len(), 1, "request split at byte {split} unanswered");
        assert_eq!(got[0].0, 11);
        assert!(unknown_both(&got[0].1), "split {split}: {:?}", got[0].1);
    }
    let mut both = encode_frame(12, &ask).expect("encode");
    both.extend_from_slice(&encode_frame(13, &Message::Health).expect("encode"));
    let written = tp.dial_node(vec![both]);
    let got = replies(&written, 2);
    assert_eq!(got.len(), 2, "both coalesced requests answered");
    assert_eq!(got[0].0, 12);
    assert!(unknown_both(&got[0].1));
    assert_eq!(got[1].0, 13);
    assert!(matches!(got[1].1, Message::HealthOk(_)));
    drop(node);
}

/// The client sets socket timeouts only when a request asks for a new
/// one, so a short-deadline request (a probe) after a long one (a bulk
/// transfer) must still give up at its own short deadline.
#[test]
fn a_short_deadline_after_a_long_one_still_times_out_short() {
    let listener = TcpTransport.bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let (done_tx, done_rx) = channel::<()>();
    let server = std::thread::spawn(move || {
        let mut conn = listener.accept().expect("accept");
        let (id, _) = read_frame(&mut conn).expect("first request");
        net::write_frame(&mut conn, id, &Message::HealthOk(HealthReport::default()))
            .expect("reply");
        // Swallow the second request and hold the connection open.
        let _ = read_frame(&mut conn);
        let _ = done_rx.recv();
    });
    let mut client = NodeClient::connect(&addr, Duration::from_secs(2)).expect("connect");
    let long = Duration::from_secs(30);
    let reply = client
        .request_with_timeout(&Message::Health, long)
        .expect("answered under the long deadline");
    assert!(matches!(reply, Message::HealthOk(_)));
    let started = Instant::now();
    let err = client
        .request_with_timeout(&Message::Health, Duration::from_millis(100))
        .expect_err("the second request is never answered");
    let waited = started.elapsed();
    assert!(err.is_transport(), "{err:?}");
    assert!(
        waited < Duration::from_secs(5),
        "short deadline ignored: waited {waited:?}"
    );
    done_tx.send(()).expect("server waits");
    server.join().expect("server thread");
}
