//! A serving node: one sharded [`PredictionService`] behind the wire
//! protocol.
//!
//! [`NodeServer::start`] binds a listener on the configured
//! [`Transport`] (TCP by default, the in-process simulator in chaos
//! tests) and spawns a thread-per-connection accept loop. Each
//! connection handler speaks the frame protocol from [`crate::frame`]:
//! it reads a request, dispatches it against the shared service, and
//! writes exactly one reply frame with the same request id. Malformed
//! traffic gets a typed error frame and (when the stream can no longer
//! be trusted) a closed connection — never a panic or a hang.
//!
//! Mutating requests carrying an id at or above
//! [`IDEMPOTENT_ID_BASE`](crate::frame::IDEMPOTENT_ID_BASE) are
//! deduplicated: the node remembers their replies in a bounded
//! [`DedupCache`] and answers a replayed id from the cache instead of
//! re-executing, so router retries and duplicated frames have
//! exactly-once effect.
//!
//! Observability rides on the node's service: every request is timed
//! into a per-kind latency histogram in the service `Registry`
//! (`net_req_<kind>`), connections and dedup hits are counted, and
//! drain/shutdown/dedup events are journaled, all on the service's
//! injectable clock.

use std::collections::HashSet;
use std::io::{self, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cloudtrace::container::{self, ContainerConfig};
use cloudtrace::WorkloadClass;
use models::NaiveForecaster;
use obs::{EventKind, Histogram, Span};
use rptcn::{PipelineConfig, Scenario};
use serve::{entity_hash, DedupCache, PredictionService, ServeError};
use tensor::Rng;
use timeseries::TimeSeriesFrame;

use crate::error::NetError;
use crate::frame::{
    decode_payload, parse_header, write_frame, ErrorCode, HealthReport, IngestEntry, Message,
    SeedSpec, WireError, WireFault, HEADER_LEN, IDEMPOTENT_ID_BASE, KIND_SLOTS,
};
use crate::sync::{lock_recover, read_recover, wait_timeout_recover, write_recover};
use crate::transport::{Connection, Listener, SharedTransport, TcpTransport};

/// Configuration for one serving node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral TCP port or a
    /// bare endpoint name under a simulated transport.
    pub listen: String,
    /// Poll granularity for idle connections: how often a blocked reader
    /// wakes up to check the stop flag.
    pub idle_poll: Duration,
    /// Retained replies in the request-id dedup cache. Sized to cover
    /// in-flight retryable requests, not lifetime request count.
    pub dedup_capacity: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            listen: "127.0.0.1:0".into(),
            idle_poll: Duration::from_millis(50),
            dedup_capacity: 4096,
        }
    }
}

struct NodeShared {
    service: RwLock<PredictionService>,
    draining: AtomicBool,
    stop: AtomicBool,
    idle_poll: Duration,
    addr: String,
    transport: SharedTransport,
    conns: Mutex<Vec<JoinHandle<()>>>,
    dedup: Mutex<DedupState>,
    dedup_cv: Condvar,
    /// `net_req_<kind>` latency histograms by kind discriminant, looked
    /// up in the service registry on a kind's first request only.
    req_latency: [OnceLock<Arc<Histogram>>; KIND_SLOTS],
}

/// A running node server. Dropping it shuts the node down.
pub struct NodeServer {
    shared: Arc<NodeShared>,
    accept: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Bind `config.listen` over TCP, wrap `service` and start serving.
    /// The bound address (with the resolved ephemeral port) is available
    /// via [`NodeServer::addr`].
    pub fn start(config: NodeConfig, service: PredictionService) -> Result<NodeServer, NetError> {
        Self::start_with(config, service, TcpTransport::shared())
    }

    /// Bind `config.listen` on an explicit [`Transport`] and start
    /// serving. The fleet simulator uses this to run whole fleets over
    /// an in-process network with injected faults.
    pub fn start_with(
        config: NodeConfig,
        service: PredictionService,
        transport: SharedTransport,
    ) -> Result<NodeServer, NetError> {
        let listener = transport.bind(&config.listen)?;
        let addr = listener.local_addr();
        let shared = Arc::new(NodeShared {
            service: RwLock::new(service),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            idle_poll: config.idle_poll,
            addr: addr.clone(),
            transport,
            conns: Mutex::new(Vec::new()),
            dedup: Mutex::new(DedupState {
                cache: DedupCache::new(config.dedup_capacity),
                inflight: HashSet::new(),
            }),
            dedup_cv: Condvar::new(),
            req_latency: std::array::from_fn(|_| OnceLock::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name(format!("net-accept-{addr}"))
            .spawn(move || accept_loop(listener.as_ref(), &accept_shared))
            .map_err(|e| NetError::Io(format!("spawn accept loop: {e}")))?;
        Ok(NodeServer {
            shared,
            accept: Some(accept),
        })
    }

    /// The address the node is listening on.
    pub fn addr(&self) -> String {
        self.shared.addr.clone()
    }

    /// Replays answered from the request-id dedup cache since start.
    pub fn dedup_hits(&self) -> u64 {
        lock_recover(&self.shared.dedup).cache.hits()
    }

    /// Ask the node to stop: no new connections, existing handlers exit
    /// at their next poll tick. Idempotent.
    pub fn shutdown(&self) {
        request_stop(&self.shared);
    }

    /// Block until the accept loop and every connection handler exited.
    /// Implies [`NodeServer::shutdown`] has been (or will be) called;
    /// called without it, this waits for a remote `Shutdown` frame.
    pub fn join(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *lock_recover(&self.shared.conns));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Run `f` against the node-local service (for in-process tests and
    /// benchmarks inspecting stats or journals).
    pub fn with_service<T>(&self, f: impl FnOnce(&PredictionService) -> T) -> T {
        f(&read_recover(&self.shared.service))
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn request_stop(shared: &NodeShared) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock the accept loop with a throwaway connection.
    let _ = shared
        .transport
        .connect(&shared.addr, Duration::from_millis(200));
}

fn accept_loop(listener: &dyn Listener, shared: &Arc<NodeShared>) {
    {
        let service = read_recover(&shared.service);
        let now = now_nanos(&service);
        service.journal().emit(
            now,
            EventKind::NodeUp,
            None,
            None,
            format!("listening on {}", shared.addr),
        );
    }
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("net-conn".into())
            .spawn(move || handle_connection(conn, &conn_shared));
        match spawned {
            Ok(handle) => lock_recover(&shared.conns).push(handle),
            Err(_) => {
                // Out of threads: refuse this connection, keep serving.
            }
        }
    }
}

fn now_nanos(service: &PredictionService) -> u64 {
    service.clock().now_nanos()
}

enum Fill {
    Filled,
    CleanEof,
    Stopped,
}

/// Fill `buf` from the connection, waking every `idle_poll` to check the
/// stop flag. `allow_clean_eof` permits EOF before the first byte (idle
/// peer hung up between frames); EOF mid-buffer is always an error.
fn fill_idle(
    conn: &mut impl Read,
    buf: &mut [u8],
    shared: &NodeShared,
    allow_clean_eof: bool,
) -> Result<Fill, NetError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && allow_clean_eof {
                    return Ok(Fill::CleanEof);
                }
                return Err(NetError::Wire(WireError::Truncated {
                    context: "connection closed mid-frame".into(),
                }));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(Fill::Stopped);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Filled)
}

fn send_fault(conn: &mut impl Write, request_id: u64, code: ErrorCode, message: String) {
    let _ = write_frame(
        conn,
        request_id,
        &Message::Error(WireFault { code, message }),
    );
}

fn handle_connection(mut conn: Box<dyn Connection>, shared: &Arc<NodeShared>) {
    if conn.set_read_timeout(Some(shared.idle_poll)).is_err() {
        return;
    }
    {
        let service = read_recover(&shared.service);
        service.registry().counter("net_connections").inc();
        service.registry().gauge("net_open_connections").inc();
    }
    serve_connection(conn.as_mut(), shared);
    let service = read_recover(&shared.service);
    service.registry().gauge("net_open_connections").dec();
}

fn serve_connection(conn: &mut dyn Connection, shared: &Arc<NodeShared>) {
    // Requests are read through one buffer, so a small frame (header and
    // payload) costs one `read`; replies are written to the connection.
    let mut conn = BufReader::new(conn);
    loop {
        let mut header = [0u8; HEADER_LEN];
        match fill_idle(&mut conn, &mut header, shared, true) {
            Ok(Fill::Filled) => {}
            Ok(Fill::CleanEof) | Ok(Fill::Stopped) | Err(_) => return,
        }
        let h = match parse_header(&header) {
            Ok(h) => h,
            Err(e) => {
                // Headers frame the stream; a bad one means we no longer
                // know where the next frame starts. Error out and close.
                let code = match e {
                    WireError::UnsupportedVersion(_) => ErrorCode::Unsupported,
                    _ => ErrorCode::Malformed,
                };
                send_fault(conn.get_mut(), 0, code, e.to_string());
                bump(shared, "net_malformed_frames");
                return;
            }
        };
        let mut payload = vec![0u8; h.payload_len as usize];
        match fill_idle(&mut conn, &mut payload, shared, false) {
            Ok(Fill::Filled) => {}
            Ok(_) | Err(_) => return,
        }
        let msg = match decode_payload(h.kind, &payload) {
            Ok(m) => m,
            Err(WireError::UnknownKind(k)) => {
                // Payload was fully consumed, so the stream is still in
                // sync: answer Unsupported and keep the connection.
                send_fault(
                    conn.get_mut(),
                    h.request_id,
                    ErrorCode::Unsupported,
                    format!("unknown message kind {k}"),
                );
                continue;
            }
            Err(e) => {
                send_fault(
                    conn.get_mut(),
                    h.request_id,
                    ErrorCode::Malformed,
                    e.to_string(),
                );
                bump(shared, "net_malformed_frames");
                return;
            }
        };
        let stop_after = matches!(msg, Message::Shutdown);
        let reply = dispatch_dedup(shared, h.request_id, msg);
        if write_frame(conn.get_mut(), h.request_id, &reply).is_err() {
            return;
        }
        if stop_after {
            request_stop(shared);
            return;
        }
    }
}

fn bump(shared: &NodeShared, counter: &str) {
    read_recover(&shared.service)
        .registry()
        .counter(counter)
        .inc();
}

fn fault(code: ErrorCode, message: String) -> Message {
    Message::Error(WireFault { code, message })
}

fn serve_fault(e: &ServeError) -> Message {
    let code = match e {
        ServeError::UnknownEntity(_) => ErrorCode::UnknownEntity,
        ServeError::Frame(_) | ServeError::DuplicateEntity(_) => ErrorCode::Malformed,
        _ => ErrorCode::Internal,
    };
    fault(code, e.to_string())
}

/// Whether a request mutates node state and is therefore subject to
/// request-id dedup. Read-only kinds are naturally idempotent and skip
/// the cache.
fn is_mutating(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Ingest { .. } | Message::Seed(_) | Message::Restore { .. } | Message::Evict { .. }
    )
}

/// Request-id dedup state: remembered replies plus the ids currently
/// executing. The in-flight set closes the get→execute→insert race: a
/// retry arriving on a fresh connection while the original request is
/// still executing on an abandoned one must wait for that execution's
/// reply instead of executing a second time.
struct DedupState {
    cache: DedupCache<Message>,
    inflight: HashSet<u64>,
}

/// How long a replayed request waits for an in-flight execution of the
/// same id before giving up and executing anyway (a liveness backstop
/// for a handler that died mid-request; in that case at-least-once is
/// the best the node can do).
const INFLIGHT_WAIT: Duration = Duration::from_millis(50);
const INFLIGHT_WAIT_ROUNDS: u32 = 100;

/// Dispatch with exactly-once protection: a mutating request whose id is
/// in the idempotent range and already cached is answered from the cache
/// (journaled as [`EventKind::DedupHit`]); one currently executing under
/// the same id on another connection is waited for and answered from its
/// reply; otherwise it executes and its non-error reply is remembered.
fn dispatch_dedup(shared: &Arc<NodeShared>, request_id: u64, msg: Message) -> Message {
    let idempotent = request_id >= IDEMPOTENT_ID_BASE && is_mutating(&msg);
    if idempotent {
        let mut rounds = 0u32;
        let mut guard = lock_recover(&shared.dedup);
        loop {
            if let Some(reply) = guard.cache.get(request_id) {
                drop(guard);
                let service = read_recover(&shared.service);
                service.registry().counter("net_dedup_hits").inc();
                service.journal().emit(
                    now_nanos(&service),
                    EventKind::DedupHit,
                    None,
                    None,
                    format!(
                        "request {request_id} ({}) replayed; answered from cache",
                        msg.kind_name()
                    ),
                );
                return reply;
            }
            if guard.inflight.insert(request_id) {
                break; // claimed: this thread executes
            }
            // Another connection is executing this id right now (ours was
            // likely abandoned after a timeout). Wait for its reply.
            rounds += 1;
            if rounds > INFLIGHT_WAIT_ROUNDS {
                guard.inflight.insert(request_id);
                break;
            }
            let (g, _) = wait_timeout_recover(&shared.dedup_cv, guard, INFLIGHT_WAIT);
            guard = g;
        }
        drop(guard);
    }
    let reply = dispatch(shared, msg);
    if idempotent {
        let mut guard = lock_recover(&shared.dedup);
        guard.inflight.remove(&request_id);
        // Error replies (draining, malformed…) are not cached: the retry
        // of a request that never executed must be allowed to execute.
        if !matches!(reply, Message::Error(_)) {
            guard.cache.insert(request_id, reply.clone());
        }
        drop(guard);
        shared.dedup_cv.notify_all();
    }
    reply
}

fn dispatch(shared: &Arc<NodeShared>, msg: Message) -> Message {
    let (histogram, clock) = {
        let service = read_recover(&shared.service);
        let histogram = shared.req_latency[usize::from(msg.kind())].get_or_init(|| {
            service
                .registry()
                .latency_histogram(&format!("net_req_{}", msg.kind_name()))
        });
        (Arc::clone(histogram), service.clock())
    };
    let span = Span::start(clock.as_ref(), &histogram);
    let reply = dispatch_inner(shared, msg);
    drop(span);
    reply
}

fn dispatch_inner(shared: &Arc<NodeShared>, msg: Message) -> Message {
    match msg {
        Message::Ingest { entries } => {
            if shared.draining.load(Ordering::SeqCst) {
                return fault(ErrorCode::Draining, "node is draining".into());
            }
            let service = read_recover(&shared.service);
            handle_ingest(&service, entries)
        }
        Message::Forecast { ids } => {
            let service = read_recover(&shared.service);
            let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
            let results = service
                .forecast_many(&refs)
                .into_iter()
                .map(|(id, r)| {
                    let outcome = match r {
                        Ok(values) => crate::frame::ForecastOutcome::Values(values),
                        Err(ServeError::UnknownEntity(_)) => crate::frame::ForecastOutcome::Unknown,
                        Err(e) => crate::frame::ForecastOutcome::Failed(e.to_string()),
                    };
                    (id, outcome)
                })
                .collect();
            Message::ForecastOk { results }
        }
        Message::Health => {
            let service = read_recover(&shared.service);
            let stats = service.stats();
            Message::HealthOk(HealthReport {
                entities: stats.total(|s| s.entities) as u64,
                ingested: stats.total(|s| s.ingested),
                forecasts: stats.total(|s| s.forecasts),
                degraded: stats.total(|s| s.degraded) as u64,
                restarts: stats.total(|s| s.restarts),
                draining: shared.draining.load(Ordering::SeqCst),
            })
        }
        Message::Checkpoint { ids } => {
            let service = read_recover(&shared.service);
            let entities = if ids.is_empty() {
                service.snapshot_entities()
            } else {
                let named: Vec<&str> = ids.iter().map(String::as_str).collect();
                service.snapshot_named(&named)
            };
            match entities {
                Ok(entities) => Message::CheckpointOk { entities },
                Err(e) => serve_fault(&e),
            }
        }
        Message::Restore { entities } => {
            let mut service = write_recover(&shared.service);
            let mut installed = 0u64;
            let mut errors = Vec::new();
            for (id, state) in &entities {
                match service.install_state(id, state) {
                    Ok(()) => installed += 1,
                    Err(ServeError::DuplicateEntity(_)) => {
                        // Idempotent restore: the entity is already here
                        // (a retried migration); keep the live copy.
                        installed += 1;
                    }
                    Err(e) => errors.push((id.clone(), e.to_string())),
                }
            }
            Message::RestoreOk { installed, errors }
        }
        Message::Seed(spec) => {
            if shared.draining.load(Ordering::SeqCst) {
                return fault(ErrorCode::Draining, "node is draining".into());
            }
            let mut service = write_recover(&shared.service);
            match handle_seed(&mut service, &spec) {
                Ok((installed, already)) => Message::SeedOk { installed, already },
                Err(reply) => reply,
            }
        }
        Message::Evict { ids } => {
            let mut service = write_recover(&shared.service);
            let mut removed = 0u64;
            for id in &ids {
                match service.remove_entity(id) {
                    Ok(()) => removed += 1,
                    Err(ServeError::UnknownEntity(_)) => {}
                    Err(e) => return serve_fault(&e),
                }
            }
            Message::EvictOk { removed }
        }
        Message::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            let service = read_recover(&shared.service);
            if let Err(e) = service.flush() {
                return serve_fault(&e);
            }
            match service.snapshot_entities() {
                Ok(entities) => {
                    service.journal().emit(
                        now_nanos(&service),
                        EventKind::NodeDrained,
                        None,
                        None,
                        format!("drained {} entities", entities.len()),
                    );
                    Message::DrainOk { entities }
                }
                Err(e) => serve_fault(&e),
            }
        }
        Message::Shutdown => {
            let service = read_recover(&shared.service);
            service.journal().emit(
                now_nanos(&service),
                EventKind::NodeDown,
                None,
                None,
                "shutdown requested".into(),
            );
            Message::ShutdownOk
        }
        // Reply kinds arriving as requests are protocol misuse.
        other => fault(
            ErrorCode::Unsupported,
            format!("{} is a reply kind, not a request", other.kind_name()),
        ),
    }
}

/// Apply decoded samples in order, moving each into the service.
fn handle_ingest(service: &PredictionService, entries: Vec<IngestEntry>) -> Message {
    let mut accepted = 0u64;
    let mut unknown = Vec::new();
    let mut errors = Vec::new();
    for IngestEntry {
        entity,
        seq,
        values,
    } in entries
    {
        let result = match seq {
            Some(seq) => service.ingest_at(&entity, seq, values),
            None => service.ingest(&entity, values),
        };
        match result {
            Ok(()) => accepted += 1,
            Err(ServeError::UnknownEntity(_)) => unknown.push(entity),
            Err(err) => errors.push((entity, err.to_string())),
        }
    }
    Message::IngestOk {
        accepted,
        unknown,
        errors,
    }
}

/// Bootstrap series length must leave the pipeline enough clean rows.
fn seed_pipeline_config(spec: &SeedSpec) -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::Uni,
        window: spec.window as usize,
        horizon: 1,
        ..PipelineConfig::default()
    }
}

/// Deterministic single-column bootstrap for one entity: any node (or a
/// router re-seeding after failover) derives the identical series from
/// the spec seed and the entity id alone.
pub fn seed_bootstrap(spec_seed: u64, id: &str, len: usize) -> Result<TimeSeriesFrame, ServeError> {
    let seed = spec_seed ^ entity_hash(id);
    let cfg = ContainerConfig::new(WorkloadClass::OnlineService, len, seed);
    let mut rng = Rng::seed_from(seed);
    let cpu = container::cpu_series(&cfg, &mut rng);
    TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu)])
        .map_err(|e| ServeError::Frame(e.to_string()))
}

fn handle_seed(
    service: &mut PredictionService,
    spec: &SeedSpec,
) -> Result<(u64, Vec<String>), Message> {
    let window = spec.window as usize;
    let len = spec.bootstrap_len as usize;
    if window == 0 || len < (window + 1) * 3 {
        return Err(fault(
            ErrorCode::Malformed,
            format!("bootstrap_len {len} too short for window {window}"),
        ));
    }
    let cfg = seed_pipeline_config(spec);
    let mut installed = 0u64;
    const CHUNK: usize = 2048;
    let mut already = Vec::new();
    let mut fresh: Vec<&String> = Vec::new();
    for id in &spec.ids {
        if service.contains_entity(id) {
            already.push(id.clone());
        } else {
            fresh.push(id);
        }
    }
    for chunk in fresh.chunks(CHUNK) {
        let mut frames: Vec<(&str, TimeSeriesFrame)> = Vec::with_capacity(chunk.len());
        for id in chunk {
            let frame = seed_bootstrap(spec.seed, id, len).map_err(|e| serve_fault(&e))?;
            frames.push((id.as_str(), frame));
        }
        if frames.is_empty() {
            continue;
        }
        service
            .add_entities_shared(&frames, cfg.clone(), Box::new(NaiveForecaster::new()))
            .map_err(|e| serve_fault(&e))?;
        installed += frames.len() as u64;
    }
    Ok((installed, already))
}
