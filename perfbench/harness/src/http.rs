//! A loopback `arest_serve::Server` and a closed-loop keep-alive
//! client for the traced run's serve probe.

use arest_ledger::Ledger;
use arest_obs::Registry;
use arest_serve::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an answer may take before the request counts as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// The five endpoint kinds the serve probe times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Summary,
    As,
    Addr,
    Status,
    Metrics,
}

impl Endpoint {
    pub const ALL: [Endpoint; 5] =
        [Endpoint::Summary, Endpoint::As, Endpoint::Addr, Endpoint::Status, Endpoint::Metrics];

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Summary => "summary",
            Endpoint::As => "as",
            Endpoint::Addr => "addr",
            Endpoint::Status => "status",
            Endpoint::Metrics => "metrics",
        }
    }
}

fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Reads one HTTP/1.1 response off `stream`, keeping leftovers in `buf`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<(u16, Vec<u8>)> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let status = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| std::io::Error::other("bad status line"))?;
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
                })
                .ok_or_else(|| std::io::Error::other("no content-length"))?;
            let total = end + 4 + len;
            while buf.len() < total {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[end + 4..total].to_vec();
            buf.drain(..total);
            return Ok((status, body));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A closed-loop keep-alive client.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Client { stream, buf: Vec::new() })
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(&request_bytes(target))?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// Requests server shutdown when dropped.
pub struct StopOnDrop(pub arest_serve::ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A server on an ephemeral loopback port, answering from `store`
/// with `ledger` attached.
pub fn bind<'r>(
    store: Arc<arest_serve::Store>,
    registry: &'r Registry,
    ledger: &Ledger,
) -> Server<'r> {
    let mut server = Server::bind("127.0.0.1:0", store, registry, Some(2)).expect("bind loopback");
    server.attach_ledger(Arc::new(Ledger::open(ledger.dir()).expect("reopen ledger")));
    server
}

/// Polls `/status` until it answers 200.
pub fn wait_ready(addr: SocketAddr) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(mut client) = Client::connect(addr) {
            if matches!(client.get("/status"), Ok((200, _))) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}
