//! A minimal, dependency-free HTTP/1.1 front end for the placement
//! service.
//!
//! One request per connection (`Connection: close`), JSON envelope
//! bodies, and a strict byte budget on both the head and the body.
//! Socket-level pathologies map onto the [`ProtocolError`] taxonomy —
//! a stalled sender is a [`Timeout`](ProtocolError::Timeout), an
//! oversized body is [`TooLarge`](ProtocolError::TooLarge) — so the
//! conformance suite can drive them end to end.

use sapsim_api::ProtocolError;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Byte budget for the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct HttpRequest {
    /// The method verb (`GET`, `POST`, ...).
    pub method: String,
    /// The request path (`/v1/request`, `/metrics`, ...).
    pub path: String,
    /// The request body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Read one HTTP request from the socket, enforcing `max_body` and the
/// already-armed read timeout.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<HttpRequest, ProtocolError> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(pos) = head_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(ProtocolError::TooLarge {
                limit: MAX_HEAD_BYTES,
                got: head.len(),
            });
        }
        let n = stream.read(&mut buf).map_err(io_to_protocol)?;
        if n == 0 {
            return Err(ProtocolError::Malformed(
                "connection closed before the request head completed".into(),
            ));
        }
        head.extend_from_slice(&buf[..n]);
    };

    let head_text = std::str::from_utf8(&head[..split])
        .map_err(|_| ProtocolError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ProtocolError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ProtocolError::Malformed("request line has no path".into()))?
        .to_string();

    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| {
                    ProtocolError::Malformed("Content-Length is not an integer".into())
                })?);
            }
        }
    }

    let want = if method == "POST" {
        let len = content_length.ok_or_else(|| {
            ProtocolError::Malformed("POST requires a Content-Length header".into())
        })?;
        if len > max_body {
            return Err(ProtocolError::TooLarge {
                limit: max_body,
                got: len,
            });
        }
        len
    } else {
        0
    };

    let mut body = head[split + 4..].to_vec();
    while body.len() < want {
        let n = stream.read(&mut buf).map_err(io_to_protocol)?;
        if n == 0 {
            return Err(ProtocolError::Malformed(
                "connection closed before the body completed".into(),
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(want);
    Ok(HttpRequest { method, path, body })
}

/// Write one response, head and body in a single write, and close out
/// the exchange.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Arm the per-connection read timeout; failures here are internal
/// (the socket is already broken).
pub fn arm_timeout(stream: &TcpStream, timeout: Duration) -> Result<(), ProtocolError> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| ProtocolError::Internal(format!("cannot arm read timeout: {e}")))
}

/// Map socket read failures onto the protocol taxonomy: a timeout is
/// the slow-loris verdict, anything else is internal.
pub fn io_to_protocol(err: io::Error) -> ProtocolError {
    match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            ProtocolError::Timeout("timed out waiting for request bytes".into())
        }
        _ => ProtocolError::Internal(format!("socket read failed: {err}")),
    }
}

/// The reason phrase for every status the error table can produce.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        500 => "Internal Server Error",
        _ => "Error",
    }
}

fn head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_api::ProtocolError;

    #[test]
    fn every_mapped_status_has_a_reason_phrase() {
        for err in ProtocolError::samples() {
            assert_ne!(reason(err.http_status()), "Error", "{}", err.code());
        }
        assert_eq!(reason(200), "OK");
        assert_eq!(reason(418), "Error");
    }

    #[test]
    fn timeout_kinds_map_to_protocol_timeout() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            let err = io_to_protocol(io::Error::new(kind, "slow"));
            assert_eq!(err.code(), "timeout");
            assert_eq!(err.http_status(), 408);
        }
        let err = io_to_protocol(io::Error::new(io::ErrorKind::ConnectionReset, "gone"));
        assert_eq!(err.code(), "internal");
    }

    #[test]
    fn head_end_finds_the_blank_line() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(head_end(b"partial\r\n"), None);
    }
}
