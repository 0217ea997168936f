//! A one-request HTTP client for the daemon's own tests.
//!
//! [`one_shot`] sends raw request bytes over a fresh connection and
//! reads one complete response; the `http_torture` suite and the
//! `docs/API.md` replay in `arest-experiments` use it to talk to an
//! in-process server.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Parses a response head: `(status, content_length, head_bytes)`.
/// `None` while incomplete.
fn parse_response_head(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status = status_line.split(' ').nth(1)?.parse::<u16>().ok()?;
    let mut content_length = 0usize;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        }
    }
    Some((status, content_length, head_end + 4))
}

/// Exposed for the tests: issues one request over a fresh
/// connection and returns `(status, headers, body)`.
#[doc(hidden)]
pub fn one_shot(addr: SocketAddr, raw_request: &[u8]) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream.write_all(raw_request).ok()?;
    let mut buf = Vec::new();
    loop {
        if let Some((status, body_len, head_len)) = parse_response_head(&buf) {
            while buf.len() < head_len + body_len {
                let mut chunk = [0u8; 4096];
                match stream.read(&mut chunk) {
                    Ok(0) => return None,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(_) => return None,
                }
            }
            let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
            let body = String::from_utf8_lossy(&buf[head_len..head_len + body_len]).into_owned();
            return Some((status, head, body));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_head_parsing_handles_split_arrival() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        for end in 0..raw.len() {
            let parsed = parse_response_head(&raw[..end]);
            if end < raw.len() - 2 {
                assert!(parsed.is_none(), "head incomplete at {end}");
            }
        }
        let (status, body_len, head_len) = parse_response_head(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body_len, 2);
        assert_eq!(head_len, raw.len() - 2);
    }
}
