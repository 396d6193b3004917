//! Codec edge cases the happy path never exercises: frames split at
//! every byte boundary, pipelined back-to-back frames in a single read,
//! and duplicate-request-id replay hitting the node's dedup cache.

use std::io::{self, Cursor, Read};
use std::time::Duration;

use net::{
    encode_frame, read_frame, IngestEntry, Message, NodeClient, NodeConfig, NodeServer, SeedSpec,
    SimNet, IDEMPOTENT_ID_BASE,
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
