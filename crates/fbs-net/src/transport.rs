//! Layer-independent datagram transports.
//!
//! FBS "assumes only the availability of an underlying (insecure) datagram
//! transport" (§1) abstracted as `Send()`/`Receive()` in Fig. 4. This
//! module gives that abstraction a concrete trait plus two
//! implementations: an in-memory hub (deterministic tests, examples) and a
//! real UDP socket transport (live demos between processes/machines) —
//! demonstrating that the protocol is genuinely layer-independent.

use crate::error::{NetError, Result};
use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// An insecure datagram service between named peers.
pub trait DatagramTransport: Send {
    /// Transmit `payload` to `peer` (best effort; datagram semantics).
    fn send_to(&self, peer: &str, payload: &[u8]) -> Result<()>;

    /// Non-blocking receive: `Ok(None)` when nothing is pending.
    fn try_recv(&self) -> Result<Option<(String, Vec<u8>)>>;

    /// Blocking receive with timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(String, Vec<u8>)>>;

    /// This endpoint's own name.
    fn local_name(&self) -> &str;
}

/// A datagram in flight through the hub: (sender name, payload).
type HubDatagram = (String, Vec<u8>);

/// A process-local datagram hub: endpoints exchange datagrams through
/// unbounded channels. Loss-free and ordered — impairment testing belongs
/// to [`crate::segment`]; this is the plumbing for abstract-protocol
/// examples.
#[derive(Default)]
pub struct Hub {
    peers: Mutex<HashMap<String, Sender<HubDatagram>>>,
}

impl Hub {
    /// Create an empty hub.
    pub fn new() -> Arc<Self> {
        Arc::new(Hub::default())
    }

    /// Register an endpoint named `name`.
    pub fn endpoint(self: &Arc<Self>, name: &str) -> HubTransport {
        let (tx, rx) = channel();
        self.peers.lock().unwrap().insert(name.to_string(), tx);
        HubTransport {
            hub: Arc::clone(self),
            name: name.to_string(),
            rx,
        }
    }
}

/// An endpoint attached to a [`Hub`].
pub struct HubTransport {
    hub: Arc<Hub>,
    name: String,
    rx: Receiver<HubDatagram>,
}

impl DatagramTransport for HubTransport {
    fn send_to(&self, peer: &str, payload: &[u8]) -> Result<()> {
        let peers = self.hub.peers.lock().unwrap();
        let tx = peers
            .get(peer)
            .ok_or_else(|| NetError::Io(format!("no such peer {peer}")))?;
        tx.send((self.name.clone(), payload.to_vec()))
            .map_err(|e| NetError::Io(e.to_string()))
    }

    fn try_recv(&self) -> Result<Option<(String, Vec<u8>)>> {
        match self.rx.try_recv() {
            Ok(v) => Ok(Some(v)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Io("hub gone".into())),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(String, Vec<u8>)>> {
        match self.rx.recv_timeout(timeout) {
            Ok(v) => Ok(Some(v)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }

    fn local_name(&self) -> &str {
        &self.name
    }
}

/// A real UDP transport: peers are `"ip:port"` strings. Used by the live
/// examples to run FBS between actual processes.
pub struct UdpTransport {
    socket: UdpSocket,
    name: String,
}

impl UdpTransport {
    /// Bind to `addr` (e.g. `"127.0.0.1:7001"`).
    pub fn bind(addr: &str) -> Result<Self> {
        let socket = UdpSocket::bind(addr).map_err(|e| NetError::Io(e.to_string()))?;
        let name = socket
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?
            .to_string();
        Ok(UdpTransport { socket, name })
    }
}

impl DatagramTransport for UdpTransport {
    fn send_to(&self, peer: &str, payload: &[u8]) -> Result<()> {
        self.socket
            .send_to(payload, peer)
            .map_err(|e| NetError::Io(e.to_string()))?;
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<(String, Vec<u8>)>> {
        self.socket
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        let mut buf = vec![0u8; 65_536];
        match self.socket.recv_from(&mut buf) {
            Ok((n, from)) => {
                buf.truncate(n);
                Ok(Some((from.to_string(), buf)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(String, Vec<u8>)>> {
        self.socket
            .set_nonblocking(false)
            .map_err(|e| NetError::Io(e.to_string()))?;
        self.socket
            .set_read_timeout(Some(timeout))
            .map_err(|e| NetError::Io(e.to_string()))?;
        let mut buf = vec![0u8; 65_536];
        match self.socket.recv_from(&mut buf) {
            Ok((n, from)) => {
                buf.truncate(n);
                Ok(Some((from.to_string(), buf)))
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }

    fn local_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_roundtrip() {
        let hub = Hub::new();
        let a = hub.endpoint("alice");
        let b = hub.endpoint("bob");
        a.send_to("bob", b"hi bob").unwrap();
        let (from, data) = b.try_recv().unwrap().unwrap();
        assert_eq!(from, "alice");
        assert_eq!(data, b"hi bob");
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn hub_unknown_peer_errors() {
        let hub = Hub::new();
        let a = hub.endpoint("alice");
        assert!(a.send_to("nobody", b"x").is_err());
    }

    #[test]
    fn hub_recv_timeout_expires() {
        let hub = Hub::new();
        let a = hub.endpoint("alice");
        let got = a.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn udp_loopback_roundtrip() {
        let a = UdpTransport::bind("127.0.0.1:0").unwrap();
        let b = UdpTransport::bind("127.0.0.1:0").unwrap();
        let b_name = b.local_name().to_string();
        a.send_to(&b_name, b"over real udp").unwrap();
        let (from, data) = b
            .recv_timeout(Duration::from_secs(2))
            .unwrap()
            .expect("datagram should arrive on loopback");
        assert_eq!(data, b"over real udp");
        assert_eq!(from, a.local_name());
    }
}
