//! Blocking request/reply client for one node connection.
//!
//! A [`NodeClient`] owns a single [`Connection`] and multiplexes nothing:
//! requests are strictly sequential, each tagged with a request id that
//! the node echoes back. Ids either auto-increment per connection (the
//! standalone [`NodeClient::request`] path) or are supplied by the
//! caller ([`NodeClient::request_with_id`]) so the fleet router can
//! reuse one globally unique id across retries and reconnects and lean
//! on node-side dedup for exactly-once effects. An id mismatch or an
//! unexpected reply kind marks the connection untrustworthy
//! ([`NetError::Protocol`]) and callers are expected to reconnect.
//!
//! Every request leaves through one path, `request_encoded`, which
//! sends bytes the caller already encoded (the router encodes a frame
//! once and resends it on retry). Replies are read through one buffered
//! reader, so a small reply costs one `read`, and the socket timeouts are
//! set only when a request asks for a different one than the last.

use std::io::BufReader;
use std::time::Duration;

use crate::error::NetError;
use crate::frame::{encode_frame_into, read_frame, write_encoded, Message};
use crate::transport::{Connection, TcpTransport, Transport};

/// A blocking client bound to one node connection.
pub struct NodeClient {
    conn: BufReader<Box<dyn Connection>>,
    next_id: u64,
    timeout: Duration,
    /// The read/write timeout the connection currently has.
    applied: Option<Duration>,
    /// Encode buffer of [`NodeClient::request_with_id`], reused.
    frame: Vec<u8>,
}

impl std::fmt::Debug for NodeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeClient")
            .field("peer", &self.conn.get_ref().peer())
            .field("next_id", &self.next_id)
            .field("timeout", &self.timeout)
            .finish()
    }
}

impl NodeClient {
    /// Connect to `addr` (e.g. `127.0.0.1:4710`) over TCP with a connect
    /// timeout; `timeout` also becomes the default per-request
    /// read/write timeout.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, NetError> {
        Self::connect_with(&TcpTransport, addr, timeout)
    }

    /// Connect to `addr` over an explicit [`Transport`] (the fleet
    /// router passes its configured transport here, which is how whole
    /// fleets end up on the in-process simulator).
    pub fn connect_with(
        transport: &dyn Transport,
        addr: &str,
        timeout: Duration,
    ) -> Result<Self, NetError> {
        let conn = transport.connect(addr, timeout)?;
        Ok(NodeClient {
            conn: BufReader::new(conn),
            next_id: 1,
            timeout,
            applied: None,
            frame: Vec::new(),
        })
    }

    /// Send one request and wait for its reply, using the default timeout.
    pub fn request(&mut self, msg: &Message) -> Result<Message, NetError> {
        self.request_with_timeout(msg, self.timeout)
    }

    /// Send one request and wait for its reply with an explicit timeout
    /// (health probes use a much shorter deadline than bulk transfers).
    pub fn request_with_timeout(
        &mut self,
        msg: &Message,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.request_with_id(id, msg, timeout)
    }

    /// Send one request under a caller-chosen id and wait for its reply.
    ///
    /// The id must be non-zero (id 0 is reserved for connection-scoped
    /// error frames). Callers that retry a failed request over a fresh
    /// connection should resend under the *same* id: nodes dedup
    /// mutating requests by id, turning at-least-once delivery into
    /// exactly-once effect.
    pub fn request_with_id(
        &mut self,
        id: u64,
        msg: &Message,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let mut frame = std::mem::take(&mut self.frame);
        let reply = match encode_frame_into(&mut frame, id, msg) {
            Ok(()) => self.request_encoded(id, &frame, timeout),
            Err(e) => Err(e.into()),
        };
        self.frame = frame;
        reply
    }

    /// Send one already-encoded request frame, whose header carries
    /// `request_id`, and wait for its reply.
    pub(crate) fn request_encoded(
        &mut self,
        request_id: u64,
        frame: &[u8],
        timeout: Duration,
    ) -> Result<Message, NetError> {
        if self.applied != Some(timeout) {
            let conn = self.conn.get_mut();
            conn.set_write_timeout(Some(timeout))?;
            conn.set_read_timeout(Some(timeout))?;
            self.applied = Some(timeout);
        }
        write_encoded(self.conn.get_mut(), frame)?;
        let (reply_id, reply) = read_frame(&mut self.conn)?;
        if let Message::Error(fault) = reply {
            // Error frames are authoritative even with a mismatched id:
            // connection-scoped faults (malformed request) use id 0.
            return Err(NetError::Remote(fault));
        }
        if reply_id != request_id {
            return Err(NetError::Protocol(format!(
                "reply id {reply_id} does not match request id {request_id}"
            )));
        }
        Ok(reply)
    }
}
