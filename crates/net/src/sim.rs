//! Deterministic in-process fleet simulator with seeded network fault
//! injection and invariant checking.
//!
//! A [`SimNet`] is a whole network in one process: endpoints are plain
//! names (`"router"`, `"n0"`), connections are in-memory byte pipes, and
//! time is an [`obs::SimClock`] that only moves when the simulator (or a
//! backoff sleep) advances it. [`SimTransport`] plugs into the same
//! [`crate::transport::Transport`] seam the production TCP transport
//! implements, so an entire fleet — [`crate::router::FleetRouter`] plus
//! N [`crate::node::NodeServer`]s — runs unmodified over the simulated
//! network.
//!
//! Every frame crossing a link consults a seeded fault schedule
//! ([`FaultConfig`]): frames can be dropped, duplicated, reordered,
//! trickled through one byte at a time, or answered with a mid-frame
//! connection reset; links can be partitioned symmetrically or one way
//! (the asymmetric case — requests delivered, replies lost — is what
//! forces executed-but-unacknowledged retries through the node dedup
//! cache). Decisions derive from `splitmix64(seed ^ link ^ connection ^
//! frame)`, so the same seed replays the same chaos, byte for byte.
//!
//! [`run_fleet_chaos`] wires a fleet over a [`SimNet`], drives seeded
//! rounds of ingests, probes and forecasts under partitions and frame
//! faults, heals the network, and then checks four fleet invariants
//! ([`check_fleet_invariants`]) against a sim-side oracle of
//! acknowledged samples:
//!
//! 1. **No acked ingest is lost** — every acknowledged sample appears,
//!    in order, in its entity's live owner history.
//! 2. **No sample applies twice** — at-least-once delivery with
//!    request-id dedup yields an exactly-once effect.
//! 3. **Single live owner** — after healing, every entity converges to
//!    exactly one live holder, the ring owner.
//! 4. **No phantom success** — the router never acknowledges more
//!    forecasts than the nodes actually executed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use obs::{Clock, EventKind, Journal, SimClock};
use rptcn::HashRing;
use serve::{entity_hash, IngestGuard, PredictionService, ServiceConfig};

use crate::error::NetError;
use crate::frame::{parse_header, HEADER_LEN};
use crate::node::{NodeConfig, NodeServer};
use crate::router::{FleetRouter, NodeStatus, RouterConfig};
use crate::sync::{lock_recover, wait_timeout_recover};
use crate::transport::{Connection, Listener, SharedTransport, Transport};

/// Granularity of blocking waits inside the simulator (accept queues and
/// pipe reads re-check their predicate this often).
const POLL: Duration = Duration::from_millis(10);

/// splitmix64: the standard 64-bit finalizer-based PRNG step. One call
/// turns any (seed ^ context) value into uniform bits.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Fault schedule
// ---------------------------------------------------------------------------

/// Per-link fault probabilities and latency for a [`SimNet`].
///
/// Probabilities are per-mille (0–1000) and evaluated **per frame** from
/// the deterministic stream; at most one fault fires per frame, in
/// priority order reset > drop > duplicate > reorder > trickle. The
/// default is a quiet network: no faults, zero latency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Per-mille chance a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Per-mille chance a frame is delivered twice back to back.
    pub duplicate_per_mille: u16,
    /// Per-mille chance a frame is delivered behind the frame queued
    /// after it (a no-op when nothing else is in flight).
    pub reorder_per_mille: u16,
    /// Per-mille chance a frame arrives one byte per read (exercises
    /// every partial-read path in the codec).
    pub trickle_per_mille: u16,
    /// Per-mille chance the connection is reset mid-frame: the peer sees
    /// half the frame then EOF, the writer sees a connection reset.
    pub reset_per_mille: u16,
    /// Fixed virtual latency added per delivered frame (advances the
    /// [`SimClock`], costs no wall time).
    pub latency: Duration,
    /// Upper bound of additional per-frame virtual jitter.
    pub jitter: Duration,
}

impl FaultConfig {
    /// A moderately hostile network: a few percent of frames dropped,
    /// duplicated, reordered, trickled or reset, with sub-millisecond
    /// virtual latency. Hostile enough to exercise every recovery path,
    /// gentle enough that retry budgets usually win.
    pub fn chaos() -> Self {
        FaultConfig {
            drop_per_mille: 35,
            duplicate_per_mille: 35,
            reorder_per_mille: 25,
            trickle_per_mille: 25,
            reset_per_mille: 12,
            latency: Duration::from_micros(200),
            jitter: Duration::from_micros(800),
        }
    }
}

/// Internal atomic tallies behind [`FaultStats`].
#[derive(Debug, Default)]
struct FaultCounters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    trickled: AtomicU64,
    reset: AtomicU64,
    partition_drops: AtomicU64,
    connects_refused: AtomicU64,
}

/// Snapshot of what a [`SimNet`] did to the traffic that crossed it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames delivered intact (including the copies of duplicates).
    pub delivered: u64,
    /// Frames dropped by the fault schedule.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delivered behind a later frame.
    pub reordered: u64,
    /// Frames delivered one byte at a time.
    pub trickled: u64,
    /// Connections reset mid-frame.
    pub reset: u64,
    /// Frames swallowed by an active partition.
    pub partition_drops: u64,
    /// Connection attempts refused by a partition or missing listener.
    pub connects_refused: u64,
}

impl FaultStats {
    /// Total frames the schedule interfered with (excluding latency).
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.trickled + self.reset
    }
}

// ---------------------------------------------------------------------------
// Pipes: the in-memory byte streams under every simulated connection
// ---------------------------------------------------------------------------

/// One direction of a simulated connection. Writers push whole segments;
/// readers drain **at most one segment per call**, so a frame trickled
/// as 1-byte segments exercises every partial-read loop downstream.
struct PipeBuf {
    segments: VecDeque<Vec<u8>>,
    cursor: usize,
    closed: bool,
}

struct Pipe {
    state: Mutex<PipeBuf>,
    cv: Condvar,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeBuf {
                segments: VecDeque::new(),
                cursor: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn push(&self, bytes: Vec<u8>) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut st = lock_recover(&self.state);
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "sim: peer closed",
            ));
        }
        st.segments.push_back(bytes);
        self.cv.notify_all();
        Ok(())
    }

    /// Queue `bytes` *before* the most recently queued segment — the
    /// reorder fault. Falls back to an ordinary push when the queue is
    /// empty (nothing to overtake).
    fn push_before_last(&self, bytes: Vec<u8>) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut st = lock_recover(&self.state);
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "sim: peer closed",
            ));
        }
        let n = st.segments.len();
        if n == 0 {
            st.segments.push_back(bytes);
        } else {
            // Before the last segment, but never before one the reader
            // has already started consuming.
            let at = (n - 1).max(usize::from(st.cursor > 0).min(n));
            st.segments.insert(at, bytes);
        }
        self.cv.notify_all();
        Ok(())
    }

    fn close(&self) {
        let mut st = lock_recover(&self.state);
        st.closed = true;
        self.cv.notify_all();
    }

    /// Blocking read honoring an optional timeout; returns `Ok(0)` at
    /// EOF (closed and drained), `WouldBlock` on timeout.
    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut waited = Duration::ZERO;
        let mut st = lock_recover(&self.state);
        loop {
            if let Some(front) = st.segments.front() {
                let start = st.cursor;
                let n = (front.len() - start).min(buf.len());
                buf[..n].copy_from_slice(&front[start..start + n]);
                if start + n >= front.len() {
                    st.segments.pop_front();
                    st.cursor = 0;
                } else {
                    st.cursor = start + n;
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            let chunk = match timeout {
                Some(t) => {
                    if waited >= t {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            "sim: read timed out",
                        ));
                    }
                    POLL.min(t - waited)
                }
                None => POLL,
            };
            let (guard, _) = wait_timeout_recover(&self.cv, st, chunk);
            st = guard;
            waited += chunk;
        }
    }
}

// ---------------------------------------------------------------------------
// The network
// ---------------------------------------------------------------------------

/// One registered listening endpoint.
struct ListenerEntry {
    open: bool,
    queue: VecDeque<SimConn>,
}

/// Mutable network state: who listens, which links are blocked, and the
/// per-link connection counter feeding the deterministic fault stream.
struct NetState {
    faults: FaultConfig,
    listeners: BTreeMap<String, ListenerEntry>,
    blocked: BTreeSet<(String, String)>,
    conn_seq: BTreeMap<(String, String), u64>,
}

struct SimInner {
    seed: u64,
    clock: SimClock,
    journal: Journal,
    counters: FaultCounters,
    state: Mutex<NetState>,
    accept_cv: Condvar,
}

/// A deterministic in-process network shared by every endpoint of a
/// simulated fleet. Cloning shares the network.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<SimInner>,
}

impl SimNet {
    /// A quiet network (no faults, no partitions) seeded for later
    /// chaos: enable faults with [`SimNet::set_faults`] once the fleet
    /// is wired up, so bootstrap traffic stays deterministic.
    pub fn new(seed: u64) -> SimNet {
        SimNet {
            inner: Arc::new(SimInner {
                seed,
                clock: SimClock::new(),
                journal: Journal::new(4096),
                counters: FaultCounters::default(),
                state: Mutex::new(NetState {
                    faults: FaultConfig::default(),
                    listeners: BTreeMap::new(),
                    blocked: BTreeSet::new(),
                    conn_seq: BTreeMap::new(),
                }),
                accept_cv: Condvar::new(),
            }),
        }
    }

    /// A transport rooted at the endpoint name `local` — the name other
    /// endpoints see as the origin of its connections, and the name
    /// partitions match against.
    pub fn transport(&self, local: &str) -> SharedTransport {
        Arc::new(SimTransport {
            net: self.clone(),
            local: local.to_string(),
        })
    }

    /// The virtual clock every endpoint of this network should share.
    pub fn clock(&self) -> SimClock {
        self.inner.clock.clone()
    }

    /// The network's fault/partition event journal.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Replace the fault schedule (typically: bring a fleet up quiet,
    /// then turn chaos on).
    pub fn set_faults(&self, faults: FaultConfig) {
        lock_recover(&self.inner.state).faults = faults;
    }

    /// The current fault schedule.
    pub fn faults(&self) -> FaultConfig {
        lock_recover(&self.inner.state).faults.clone()
    }

    /// Snapshot of everything the network has done to traffic so far.
    pub fn stats(&self) -> FaultStats {
        let c = &self.inner.counters;
        FaultStats {
            delivered: c.delivered.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
            duplicated: c.duplicated.load(Ordering::Relaxed),
            reordered: c.reordered.load(Ordering::Relaxed),
            trickled: c.trickled.load(Ordering::Relaxed),
            reset: c.reset.load(Ordering::Relaxed),
            partition_drops: c.partition_drops.load(Ordering::Relaxed),
            connects_refused: c.connects_refused.load(Ordering::Relaxed),
        }
    }

    /// Symmetric partition: block both directions between `a` and `b`.
    pub fn partition(&self, a: &str, b: &str) {
        let mut st = lock_recover(&self.inner.state);
        st.blocked.insert((a.to_string(), b.to_string()));
        st.blocked.insert((b.to_string(), a.to_string()));
        drop(st);
        self.emit(EventKind::NetPartition, format!("partition {a} <-/-> {b}"));
    }

    /// Asymmetric partition: frames from `from` to `to` vanish, the
    /// reverse direction still works. With `to = "router"` this is the
    /// reply-blackhole case: nodes execute requests whose
    /// acknowledgements never arrive.
    pub fn partition_one_way(&self, from: &str, to: &str) {
        lock_recover(&self.inner.state)
            .blocked
            .insert((from.to_string(), to.to_string()));
        self.emit(
            EventKind::NetPartition,
            format!("partition {from} -/-> {to} (one way)"),
        );
    }

    /// Remove any partition between `a` and `b` (both directions).
    pub fn heal(&self, a: &str, b: &str) {
        let mut st = lock_recover(&self.inner.state);
        let removed = st.blocked.remove(&(a.to_string(), b.to_string()))
            | st.blocked.remove(&(b.to_string(), a.to_string()));
        drop(st);
        if removed {
            self.emit(EventKind::NetHealed, format!("healed {a} <--> {b}"));
        }
    }

    /// Remove every partition.
    pub fn heal_all(&self) {
        let mut st = lock_recover(&self.inner.state);
        let n = st.blocked.len();
        st.blocked.clear();
        drop(st);
        if n > 0 {
            self.emit(EventKind::NetHealed, format!("healed all ({n} links)"));
        }
    }

    fn emit(&self, kind: EventKind, detail: String) {
        self.inner
            .journal
            .emit(self.inner.clock.now_nanos(), kind, None, None, detail);
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("seed", &self.inner.seed)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A [`Transport`] over a [`SimNet`], rooted at one endpoint name.
pub struct SimTransport {
    net: SimNet,
    local: String,
}

impl Transport for SimTransport {
    fn connect(&self, addr: &str, _timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        let inner = &self.net.inner;
        let mut st = lock_recover(&inner.state);
        // A partition on the forward path refuses the handshake outright;
        // a reply-only blackhole lets the connection open and starves it
        // of replies (the asymmetric case that exercises retry dedup).
        if st
            .blocked
            .iter()
            .any(|(a, b)| a == &self.local && b == addr)
        {
            inner
                .counters
                .connects_refused
                .fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Io(format!(
                "sim: connect {} -> {addr} refused (partitioned)",
                self.local
            )));
        }
        let listening = st.listeners.get(addr).is_some_and(|l| l.open);
        if !listening {
            inner
                .counters
                .connects_refused
                .fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Io(format!(
                "sim: connect {} -> {addr} refused (no listener)",
                self.local
            )));
        }
        let key = (self.local.clone(), addr.to_string());
        let seq = st.conn_seq.entry(key).or_insert(0);
        let conn_index = *seq;
        *seq += 1;
        let c2s = Pipe::new();
        let s2c = Pipe::new();
        let client = SimConn::new(
            self.net.clone(),
            self.local.clone(),
            addr.to_string(),
            conn_index,
            s2c.clone(),
            c2s.clone(),
        );
        let server = SimConn::new(
            self.net.clone(),
            addr.to_string(),
            self.local.clone(),
            conn_index,
            c2s,
            s2c,
        );
        if let Some(entry) = st.listeners.get_mut(addr) {
            entry.queue.push_back(server);
        }
        drop(st);
        inner.accept_cv.notify_all();
        Ok(Box::new(client))
    }

    fn bind(&self, addr: &str) -> Result<Box<dyn Listener>, NetError> {
        let mut st = lock_recover(&self.net.inner.state);
        if st.listeners.get(addr).is_some_and(|l| l.open) {
            return Err(NetError::Io(format!("sim: {addr} already bound")));
        }
        st.listeners.insert(
            addr.to_string(),
            ListenerEntry {
                open: true,
                queue: VecDeque::new(),
            },
        );
        Ok(Box::new(SimListener {
            net: self.net.clone(),
            addr: addr.to_string(),
        }))
    }
}

/// A bound simulated endpoint. Dropping it unregisters the name; later
/// connects are refused.
struct SimListener {
    net: SimNet,
    addr: String,
}

impl Listener for SimListener {
    fn accept(&self) -> io::Result<Box<dyn Connection>> {
        let inner = &self.net.inner;
        let mut st = lock_recover(&inner.state);
        loop {
            match st.listeners.get_mut(&self.addr) {
                Some(entry) if entry.open => {
                    if let Some(conn) = entry.queue.pop_front() {
                        return Ok(Box::new(conn));
                    }
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "sim: listener closed",
                    ));
                }
            }
            let (guard, _) = wait_timeout_recover(&inner.accept_cv, st, POLL);
            st = guard;
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.net.inner.state);
        if let Some(entry) = st.listeners.get_mut(&self.addr) {
            entry.open = false;
            entry.queue.clear();
        }
        drop(st);
        self.net.inner.accept_cv.notify_all();
    }
}

/// One endpoint of a simulated connection. Writes are re-framed on the
/// wire-protocol header so faults act on whole frames; reads drain the
/// incoming pipe one segment at a time.
struct SimConn {
    net: SimNet,
    from: String,
    to: String,
    link_hash: u64,
    conn_index: u64,
    frame_index: u64,
    pending: Vec<u8>,
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    read_timeout: Option<Duration>,
}

impl SimConn {
    fn new(
        net: SimNet,
        from: String,
        to: String,
        conn_index: u64,
        rx: Arc<Pipe>,
        tx: Arc<Pipe>,
    ) -> SimConn {
        let link_hash = entity_hash(&from) ^ entity_hash(&to).rotate_left(17);
        SimConn {
            net,
            from,
            to,
            link_hash,
            conn_index,
            frame_index: 0,
            pending: Vec::new(),
            rx,
            tx,
            read_timeout: None,
        }
    }

    /// Extract complete protocol frames from the pending buffer and put
    /// each through fault delivery. Bytes that do not parse as a frame
    /// header are passed through untouched (the simulator stays usable
    /// under non-protocol traffic, just without per-frame faults).
    fn pump(&mut self) -> io::Result<()> {
        loop {
            if self.pending.len() < HEADER_LEN {
                return Ok(());
            }
            let mut header = [0u8; HEADER_LEN];
            header.copy_from_slice(&self.pending[..HEADER_LEN]);
            let total = match parse_header(&header) {
                Ok(h) => HEADER_LEN + h.payload_len as usize,
                Err(_) => {
                    let bytes = std::mem::take(&mut self.pending);
                    self.net
                        .inner
                        .counters
                        .delivered
                        .fetch_add(1, Ordering::Relaxed);
                    return self.tx.push(bytes);
                }
            };
            if self.pending.len() < total {
                return Ok(());
            }
            let frame: Vec<u8> = self.pending.drain(..total).collect();
            self.deliver(frame)?;
        }
    }

    /// Deliver one whole frame across the link: partition check, virtual
    /// latency, then at most one fault (reset > drop > duplicate >
    /// reorder > trickle) decided by the deterministic stream.
    fn deliver(&mut self, frame: Vec<u8>) -> io::Result<()> {
        let inner = &self.net.inner;
        let idx = self.frame_index;
        self.frame_index += 1;
        let (blocked, faults) = {
            let st = lock_recover(&inner.state);
            (
                st.blocked
                    .iter()
                    .any(|(a, b)| a == &self.from && b == &self.to),
                st.faults.clone(),
            )
        };
        if blocked {
            inner
                .counters
                .partition_drops
                .fetch_add(1, Ordering::Relaxed);
            self.fault_event(format!(
                "partition swallowed frame {idx} {} -> {}",
                self.from, self.to
            ));
            // A blackhole, not an error: the writer finds out by timeout.
            return Ok(());
        }
        let h = splitmix64(
            inner.seed
                ^ self.link_hash
                ^ self.conn_index.wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let lat = faults.latency.as_nanos() as u64;
        let jit = faults.jitter.as_nanos() as u64;
        let extra = if jit > 0 { (h >> 40) % (jit + 1) } else { 0 };
        if lat + extra > 0 {
            inner.clock.advance_nanos(lat + extra);
        }
        let roll = |lane: u32| ((h >> (lane * 10)) % 1000) as u16;
        if roll(4) < faults.reset_per_mille {
            inner.counters.reset.fetch_add(1, Ordering::Relaxed);
            self.fault_event(format!(
                "reset {} -> {} mid-frame {idx}",
                self.from, self.to
            ));
            let half = frame.len() / 2;
            let _ = self.tx.push(frame[..half].to_vec());
            self.tx.close();
            self.rx.close();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "sim: injected connection reset",
            ));
        }
        if roll(0) < faults.drop_per_mille {
            inner.counters.dropped.fetch_add(1, Ordering::Relaxed);
            self.fault_event(format!("dropped frame {idx} {} -> {}", self.from, self.to));
            return Ok(());
        }
        if roll(1) < faults.duplicate_per_mille {
            inner.counters.duplicated.fetch_add(1, Ordering::Relaxed);
            inner.counters.delivered.fetch_add(2, Ordering::Relaxed);
            self.fault_event(format!(
                "duplicated frame {idx} {} -> {}",
                self.from, self.to
            ));
            self.tx.push(frame.clone())?;
            return self.tx.push(frame);
        }
        if roll(2) < faults.reorder_per_mille {
            inner.counters.reordered.fetch_add(1, Ordering::Relaxed);
            inner.counters.delivered.fetch_add(1, Ordering::Relaxed);
            self.fault_event(format!(
                "reordered frame {idx} {} -> {}",
                self.from, self.to
            ));
            return self.tx.push_before_last(frame);
        }
        if roll(3) < faults.trickle_per_mille {
            inner.counters.trickled.fetch_add(1, Ordering::Relaxed);
            inner.counters.delivered.fetch_add(1, Ordering::Relaxed);
            self.fault_event(format!(
                "trickled frame {idx} {} -> {} ({} bytes)",
                self.from,
                self.to,
                frame.len()
            ));
            for b in frame {
                self.tx.push(vec![b])?;
            }
            return Ok(());
        }
        inner.counters.delivered.fetch_add(1, Ordering::Relaxed);
        self.tx.push(frame)
    }

    fn fault_event(&self, detail: String) {
        let inner = &self.net.inner;
        inner.journal.emit(
            inner.clock.now_nanos(),
            EventKind::NetFault,
            None,
            None,
            detail,
        );
    }
}

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf, self.read_timeout)
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        self.pump()?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Connection for SimConn {
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.read_timeout = d;
        Ok(())
    }

    fn set_write_timeout(&mut self, _d: Option<Duration>) -> io::Result<()> {
        // Simulated writes never block.
        Ok(())
    }

    fn peer(&self) -> String {
        format!("sim:{}", self.to)
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

/// Parameters for one [`run_fleet_chaos`] run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the fault stream, the partition schedule and the fleet's
    /// deterministic bootstraps. Same seed, same chaos.
    pub seed: u64,
    /// Serving nodes in the fleet.
    pub nodes: usize,
    /// Entities seeded across the fleet.
    pub entities: usize,
    /// Chaos rounds; each round ingests one unique marker per entity.
    pub rounds: usize,
    /// Frame-level fault schedule during the chaos phase.
    pub faults: FaultConfig,
    /// Open a partition every this many rounds (0 disables partitions).
    pub partition_every: usize,
    /// How many rounds an opened partition lasts.
    pub partition_rounds: usize,
    /// Forecast every entity each time `round % forecast_every == 0`
    /// (0 disables forecasts during chaos).
    pub forecast_every: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            nodes: 3,
            entities: 12,
            rounds: 12,
            faults: FaultConfig::chaos(),
            partition_every: 4,
            partition_rounds: 2,
            forecast_every: 3,
        }
    }
}

/// Everything a chaos run produced: the invariant report plus the
/// counters that show the run actually exercised the failure paths.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// Verdicts of the four fleet invariants.
    pub report: InvariantReport,
    /// What the network did to the traffic.
    pub faults: FaultStats,
    /// Ingests the router acknowledged (the oracle set for invariant 1).
    pub acked_ingests: u64,
    /// Ingests the router reported failed (allowed to be lost).
    pub nacked_ingests: u64,
    /// Forecasts the router acknowledged during chaos.
    pub acked_forecasts: u64,
    /// Forecasts the nodes actually executed (over the whole run).
    pub executed_forecasts: u64,
    /// Node-side dedup cache hits — retries absorbed exactly-once.
    pub dedup_hits: u64,
    /// Router data-path retries.
    pub retries: u64,
    /// Logical requests that exhausted the retry budget.
    pub retries_exhausted: u64,
    /// Entity groups re-routed after an owner was marked down.
    pub failed_over: u64,
    /// Node-down transitions observed by the router.
    pub node_down_transitions: u64,
    /// Rounds until the fleet re-converged after healing (0 = instantly).
    pub stabilize_rounds: usize,
    /// One-line command reproducing this exact run.
    pub repro: String,
}

/// The four fleet invariants checked after healing.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Invariant 1 violations: acknowledged `(entity, marker)` samples
    /// absent from (or out of order on) the entity's live owner.
    pub lost_acks: Vec<(String, u64)>,
    /// Invariant 2 violations: `(entity, marker)` samples applied more
    /// than once to the same predictor.
    pub duplicate_applies: Vec<(String, u64)>,
    /// Invariant 3 violations: ownership audit findings (missing,
    /// duplicated or misplaced entities), human-readable.
    pub ownership_violations: Vec<String>,
    /// Invariant 4 violation: forecasts acked beyond what nodes executed
    /// (0 = clean).
    pub phantom_forecasts: u64,
}

impl InvariantReport {
    /// Whether all four invariants hold.
    pub fn is_clean(&self) -> bool {
        self.lost_acks.is_empty()
            && self.duplicate_applies.is_empty()
            && self.ownership_violations.is_empty()
            && self.phantom_forecasts == 0
    }

    /// One-line verdict for logs and bench reports.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "all invariants hold".to_string()
        } else {
            format!(
                "{} lost acks, {} duplicate applies, {} ownership violations, {} phantom forecasts",
                self.lost_acks.len(),
                self.duplicate_applies.len(),
                self.ownership_violations.len(),
                self.phantom_forecasts
            )
        }
    }
}

/// The one-line command that replays a chaos seed exactly.
pub fn repro_command(seed: u64) -> String {
    format!(
        "SIM_SEED={seed} cargo test -p rptcn-net --release --test sim_partition seed_matrix -- --nocapture"
    )
}

/// Marker values start here; the seeded bootstrap history is clamped to
/// [0, 1], so anything at or above this is an injected marker.
const MARKER_BASE: u64 = 1000;

/// Extract injected markers, in history order, from one entity's raw
/// target history.
fn markers_of(history: &[f32]) -> Vec<u64> {
    history
        .iter()
        .filter(|v| **v >= MARKER_BASE as f32 - 0.5)
        .map(|v| *v as u64)
        .collect()
}

/// One node's holdings: each held entity paired with the markers found
/// in its history, in order.
pub type NodeHoldings = Vec<(String, Vec<u64>)>;

/// Check the four fleet invariants against the sim-side oracle.
///
/// * `ring` / `nodes` — placement and final node statuses.
/// * `holdings` — per node, each held entity and the markers found in
///   its history, in order.
/// * `acked` — per entity, the markers the router acknowledged, in
///   acknowledgement order.
/// * `acked_forecasts` / `executed_forecasts` — router-acked vs
///   node-executed forecast counts.
pub fn check_fleet_invariants(
    ring: &HashRing,
    nodes: &[(String, NodeStatus)],
    holdings: &[(String, NodeHoldings)],
    acked: &BTreeMap<String, Vec<u64>>,
    acked_forecasts: u64,
    executed_forecasts: u64,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    let alive = |name: &str| nodes.iter().any(|(n, s)| n == name && *s == NodeStatus::Up);
    // Invariants 1 + 2 check the live owner's history per entity.
    let expected: Vec<String> = acked.keys().cloned().collect();
    let mut owner_markers: BTreeMap<&str, &[u64]> = BTreeMap::new();
    for (node, held) in holdings {
        if !alive(node) {
            continue;
        }
        for (entity, markers) in held {
            // On a converged fleet each entity has one live holder; if
            // several exist the ownership audit below reports it, and we
            // check acks against the ring owner's copy.
            let is_owner = ring
                .node_for_where(entity, alive)
                .is_some_and(|owner| owner == node.as_str());
            if is_owner || !owner_markers.contains_key(entity.as_str()) {
                owner_markers.insert(entity.as_str(), markers.as_slice());
            }
        }
    }
    for (entity, acked_markers) in acked {
        let held = owner_markers
            .get(entity.as_str())
            .copied()
            .unwrap_or_default();
        // Invariant 2: no marker applied twice to the same predictor.
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for m in held {
            if !seen.insert(*m) && !report.duplicate_applies.iter().any(|(_, d)| d == m) {
                report.duplicate_applies.push((entity.clone(), *m));
            }
        }
        // Invariant 1: the acked sequence is an in-order subsequence of
        // what the owner holds (unacked-but-executed extras are fine —
        // that is what at-least-once delivery means).
        let mut it = held.iter();
        for m in acked_markers {
            if !it.any(|h| h == m) {
                report.lost_acks.push((entity.clone(), *m));
            }
        }
    }
    // Invariant 3: single live owner per entity.
    let held_ids: Vec<(String, Vec<String>)> = holdings
        .iter()
        .map(|(node, held)| {
            (
                node.clone(),
                held.iter().map(|(id, _)| id.clone()).collect(),
            )
        })
        .collect();
    let audit = ring.audit_ownership(alive, &expected, &held_ids);
    for id in &audit.missing {
        report
            .ownership_violations
            .push(format!("{id}: no live holder"));
    }
    for (id, holders) in &audit.duplicated {
        report
            .ownership_violations
            .push(format!("{id}: multiple live holders {holders:?}"));
    }
    for (id, holder, expected_owner) in &audit.misplaced {
        report.ownership_violations.push(format!(
            "{id}: held by {holder}, ring owner is {expected_owner}"
        ));
    }
    // Invariant 4: the router never acks work nodes did not do.
    report.phantom_forecasts = acked_forecasts.saturating_sub(executed_forecasts);
    report
}

/// How many stabilization rounds [`run_fleet_chaos`] attempts after
/// healing before giving up and reporting whatever violations remain.
const MAX_STABILIZE: usize = 24;

/// Run a whole simulated fleet through seeded chaos and check the four
/// fleet invariants. See the module docs for the scenario shape.
pub fn run_fleet_chaos(cfg: &ChaosConfig) -> Result<ChaosOutcome, NetError> {
    if cfg.nodes == 0 || cfg.entities == 0 {
        return Err(NetError::Serve(
            "chaos run needs at least one node and one entity".into(),
        ));
    }
    let net = SimNet::new(cfg.seed);
    let clock = net.clock().shared();

    // Bring the fleet up over a quiet network so setup is deterministic.
    let mut servers: Vec<(String, NodeServer)> = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let name = format!("n{i}");
        let service = PredictionService::new(ServiceConfig {
            shards: 2,
            refit_every: 0,
            score_on_ingest: false,
            clock: clock.clone(),
            ingest_guard: IngestGuard::Repair,
            ..ServiceConfig::default()
        })
        .map_err(|e| NetError::Serve(format!("start service {name}: {e}")))?;
        let server = NodeServer::start_with(
            NodeConfig {
                listen: name.clone(),
                idle_poll: Duration::from_millis(5),
                ..NodeConfig::default()
            },
            service,
            net.transport(&name),
        )?;
        servers.push((name, server));
    }
    let mut router = FleetRouter::new(RouterConfig {
        vnodes: 32,
        request_timeout: Duration::from_millis(150),
        bulk_timeout: Duration::from_millis(400),
        probe_timeout: Duration::from_millis(80),
        retry_backoff: Duration::from_millis(10),
        replay_window: cfg.rounds + 8,
        seed: cfg.seed,
        bootstrap_len: 32,
        window: 8,
        clock: clock.clone(),
        journal_capacity: 4096,
        transport: net.transport("router"),
        ..RouterConfig::default()
    });
    for (name, server) in &servers {
        router.add_node(name, &server.addr())?;
    }
    let ids: Vec<String> = (0..cfg.entities).map(|k| format!("e{k}")).collect();
    router.seed_entities(&ids)?;

    // Chaos phase.
    net.set_faults(cfg.faults.clone());
    let mut acked: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut acked_ingests = 0u64;
    let mut nacked_ingests = 0u64;
    let mut acked_forecasts = 0u64;
    let mut open_partitions: Vec<(String, String, usize)> = Vec::new();
    for round in 0..cfg.rounds {
        // Heal partitions whose time is up, then maybe open a new one.
        let healing: Vec<(String, String)> = open_partitions
            .iter()
            .filter(|(_, _, until)| round >= *until)
            .map(|(a, b, _)| (a.clone(), b.clone()))
            .collect();
        for (a, b) in healing {
            net.heal(&a, &b);
        }
        open_partitions.retain(|(_, _, until)| round < *until);
        if cfg.partition_every > 0 && round % cfg.partition_every == 1 {
            let h = splitmix64(cfg.seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let target = format!("n{}", ((h >> 8) as usize) % cfg.nodes);
            match h % 3 {
                0 => net.partition("router", &target),
                1 => net.partition_one_way(&target, "router"),
                _ => net.partition_one_way("router", &target),
            }
            let until = round + cfg.partition_rounds.max(1);
            open_partitions.push(("router".to_string(), target, until));
        }
        // One unique marker per entity per round; the oracle records
        // exactly what the router acknowledged.
        for (k, id) in ids.iter().enumerate() {
            let marker = MARKER_BASE + (round * cfg.entities + k) as u64;
            match router.ingest(id, vec![marker as f32]) {
                Ok(()) => {
                    acked.entry(id.clone()).or_default().push(marker);
                    acked_ingests += 1;
                }
                Err(_) => nacked_ingests += 1,
            }
        }
        if cfg.forecast_every > 0 && round % cfg.forecast_every == 0 {
            for (_, result) in router.forecast_batch(&ids) {
                if result.is_ok() {
                    acked_forecasts += 1;
                }
            }
        }
        router.probe();
    }

    // Heal everything and let the fleet converge.
    net.heal_all();
    net.set_faults(FaultConfig::default());
    let mut stabilize_rounds = 0usize;
    for attempt in 0..MAX_STABILIZE {
        let statuses = router.probe();
        if statuses.iter().any(|(_, s)| *s != NodeStatus::Up) {
            stabilize_rounds = attempt + 1;
            continue;
        }
        // Touch every entity so any stragglers heal onto their owner.
        let all_ok = router.forecast_batch(&ids).iter().all(|(_, r)| r.is_ok());
        let converged = {
            let statuses = router.nodes();
            let alive = |name: &str| {
                statuses
                    .iter()
                    .any(|(n, s)| n == name && *s == NodeStatus::Up)
            };
            let held = collect_held_ids(&servers, &ids);
            router
                .ring()
                .audit_ownership(alive, &ids, &held)
                .is_converged()
        };
        if all_ok && converged {
            stabilize_rounds = attempt;
            break;
        }
        stabilize_rounds = attempt + 1;
    }

    // Collect the final state of every node for the invariant check.
    let mut holdings: Vec<(String, NodeHoldings)> = Vec::with_capacity(servers.len());
    let mut executed_forecasts = 0u64;
    let mut dedup_hits = 0u64;
    for (name, server) in &servers {
        let snapshot = server
            .with_service(|s| {
                s.flush()?;
                s.snapshot_entities()
            })
            .map_err(|e| NetError::Serve(format!("snapshot {name}: {e}")))?;
        let held: Vec<(String, Vec<u64>)> = snapshot
            .iter()
            .map(|(id, state)| {
                let target = state.history.first().map(Vec::as_slice).unwrap_or(&[]);
                (id.clone(), markers_of(target))
            })
            .collect();
        holdings.push((name.clone(), held));
        executed_forecasts += server.with_service(|s| s.stats().total(|s| s.forecasts));
        dedup_hits += server.dedup_hits();
    }
    let statuses = router.nodes();
    let report = check_fleet_invariants(
        router.ring(),
        &statuses,
        &holdings,
        &acked,
        acked_forecasts,
        executed_forecasts,
    );
    let counter = |name: &str| router.registry().counter(name).get();
    let outcome = ChaosOutcome {
        seed: cfg.seed,
        report,
        faults: net.stats(),
        acked_ingests,
        nacked_ingests,
        acked_forecasts,
        executed_forecasts,
        dedup_hits,
        retries: counter("router_retries"),
        retries_exhausted: counter("router_retries_exhausted"),
        failed_over: counter("router_failed_over"),
        node_down_transitions: counter("router_node_down_transitions"),
        stabilize_rounds,
        repro: repro_command(cfg.seed),
    };
    router.shutdown_fleet();
    for (_, server) in &mut servers {
        server.shutdown();
        server.join();
    }
    Ok(outcome)
}

/// Which of `ids` each node currently holds (for the ownership audit).
fn collect_held_ids(
    servers: &[(String, NodeServer)],
    ids: &[String],
) -> Vec<(String, Vec<String>)> {
    servers
        .iter()
        .map(|(name, server)| {
            let held = ids
                .iter()
                .filter(|id| server.with_service(|s| s.contains_entity(id)))
                .cloned()
                .collect();
            (name.clone(), held)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NodeClient;
    use crate::frame::Message;

    #[test]
    fn sim_transport_roundtrips_frames() {
        let net = SimNet::new(1);
        let tp = net.transport("client");
        let server_tp = net.transport("server");
        let listener = server_tp.bind("server").expect("bind");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let (id, msg) = crate::frame::read_frame(&mut conn).expect("read");
            assert!(matches!(msg, Message::Health));
            crate::frame::write_frame(&mut conn, id, &Message::HealthOk(Default::default()))
                .expect("write");
            conn.flush().expect("flush");
        });
        let mut client = NodeClient::connect_with(tp.as_ref(), "server", Duration::from_secs(1))
            .expect("connect");
        let reply = client
            .request_with_timeout(&Message::Health, Duration::from_secs(2))
            .expect("request");
        assert!(matches!(reply, Message::HealthOk(_)));
        server.join().expect("server thread");
        assert!(net.stats().delivered >= 2);
    }

    #[test]
    fn partition_refuses_connect_and_heals() {
        let net = SimNet::new(2);
        let server_tp = net.transport("server");
        let _listener = server_tp.bind("server").expect("bind");
        let tp = net.transport("client");
        net.partition("client", "server");
        let err = tp.connect("server", Duration::from_millis(50)).err();
        assert!(err.is_some(), "connect must be refused under partition");
        assert_eq!(net.stats().connects_refused, 1);
        net.heal("client", "server");
        assert!(tp.connect("server", Duration::from_millis(50)).is_ok());
        let kinds: Vec<String> = net
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.name().to_string())
            .collect();
        assert!(kinds.contains(&"net_partition".to_string()));
        assert!(kinds.contains(&"net_healed".to_string()));
    }

    #[test]
    fn one_way_partition_starves_replies_but_allows_connect() {
        let net = SimNet::new(3);
        let server_tp = net.transport("server");
        let listener = server_tp.bind("server").expect("bind");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let (id, _msg) = crate::frame::read_frame(&mut conn).expect("read");
            // The reply vanishes into the one-way partition.
            let _ =
                crate::frame::write_frame(&mut conn, id, &Message::HealthOk(Default::default()));
        });
        net.partition_one_way("server", "client");
        let tp = net.transport("client");
        let mut client = NodeClient::connect_with(tp.as_ref(), "server", Duration::from_millis(50))
            .expect("forward path open, connect succeeds");
        let err = client
            .request_with_timeout(&Message::Health, Duration::from_millis(60))
            .err();
        assert!(err.is_some(), "reply must be swallowed");
        server.join().expect("server thread");
        assert!(net.stats().partition_drops >= 1);
    }

    #[test]
    fn same_seed_same_fault_decisions() {
        // Two separate networks with the same seed and traffic must make
        // identical fault decisions.
        let stats = |seed: u64| {
            let net = SimNet::new(seed);
            net.set_faults(FaultConfig {
                drop_per_mille: 300,
                duplicate_per_mille: 200,
                trickle_per_mille: 200,
                ..FaultConfig::default()
            });
            let server_tp = net.transport("server");
            let listener = server_tp.bind("server").expect("bind");
            let server = std::thread::spawn(move || {
                if let Ok(mut conn) = listener.accept() {
                    // Drain whatever arrives until the peer closes.
                    let mut buf = [0u8; 256];
                    loop {
                        match conn.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                    }
                }
            });
            let tp = net.transport("client");
            {
                let mut conn = tp
                    .connect("server", Duration::from_millis(50))
                    .expect("connect");
                for i in 0..40u64 {
                    let frame =
                        crate::frame::encode_frame(i + 1, &Message::Health).expect("encode");
                    if conn.write_all(&frame).is_err() {
                        break;
                    }
                }
            }
            server.join().expect("server thread");
            net.stats()
        };
        let a = stats(99);
        let b = stats(99);
        let c = stats(100);
        assert_eq!(a, b, "same seed must replay identical faults");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.total_faults() > 0, "faults must actually fire: {a:?}");
    }

    #[test]
    fn trickled_frames_still_decode() {
        let net = SimNet::new(4);
        net.set_faults(FaultConfig {
            trickle_per_mille: 1000,
            ..FaultConfig::default()
        });
        let server_tp = net.transport("server");
        let listener = server_tp.bind("server").expect("bind");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            crate::frame::read_frame(&mut conn).expect("read trickled")
        });
        let tp = net.transport("client");
        let mut conn = tp
            .connect("server", Duration::from_millis(50))
            .expect("connect");
        let frame = crate::frame::encode_frame(7, &Message::Health).expect("encode");
        conn.write_all(&frame).expect("write");
        let (id, msg) = server.join().expect("server thread");
        assert_eq!(id, 7);
        assert!(matches!(msg, Message::Health));
        assert!(net.stats().trickled >= 1);
    }

    #[test]
    fn quiet_chaos_run_is_clean_and_fast() {
        // No faults, no partitions: the harness itself must be invariant-
        // clean, proving violations come from injected chaos handling,
        // not the harness.
        let outcome = run_fleet_chaos(&ChaosConfig {
            seed: 11,
            nodes: 2,
            entities: 4,
            rounds: 3,
            faults: FaultConfig::default(),
            partition_every: 0,
            partition_rounds: 0,
            forecast_every: 2,
        })
        .expect("chaos run");
        assert!(
            outcome.report.is_clean(),
            "quiet run must be clean: {} ({})",
            outcome.report.summary(),
            outcome.repro
        );
        assert_eq!(outcome.acked_ingests, 12);
        assert_eq!(outcome.nacked_ingests, 0);
        assert!(outcome.acked_forecasts >= 8);
    }

    #[test]
    fn invariant_checker_flags_violations() {
        let mut ring = HashRing::new(8);
        ring.add_node("n0");
        let nodes = vec![("n0".to_string(), NodeStatus::Up)];
        let mut acked: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        acked.insert("a".into(), vec![1000, 1001]);
        // n0 holds `a` but lost marker 1001 and applied 1000 twice.
        let holdings = vec![("n0".to_string(), vec![("a".to_string(), vec![1000, 1000])])];
        let report = check_fleet_invariants(&ring, &nodes, &holdings, &acked, 5, 3);
        assert_eq!(report.lost_acks, vec![("a".to_string(), 1001)]);
        assert_eq!(report.duplicate_applies, vec![("a".to_string(), 1000)]);
        assert_eq!(report.phantom_forecasts, 2);
        assert!(!report.is_clean());
        let clean = check_fleet_invariants(
            &ring,
            &nodes,
            &[("n0".to_string(), vec![("a".to_string(), vec![1000, 1001])])],
            &acked,
            3,
            3,
        );
        assert!(clean.is_clean(), "{}", clean.summary());
    }
}
