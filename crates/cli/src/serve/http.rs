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

/// The request line and the headers the service reads, parsed from the
/// front of the bytes received so far.
#[derive(Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// The method verb (`GET`, `POST`, ...).
    pub method: String,
    /// The request path (`/v1/request`, `/metrics`, ...).
    pub path: String,
    /// The `Content-Length` header, if sent.
    pub content_length: Option<usize>,
    /// Where the body starts: one past the blank line ending the head.
    pub body_start: usize,
}

/// Parse the request head at the front of `bytes`, the bytes received so
/// far. `Ok(None)` means the blank line has not arrived and the budget
/// leaves room for it. A head whose blank line ends past
/// [`MAX_HEAD_BYTES`] is [`TooLarge`](ProtocolError::TooLarge); a head
/// that is not UTF-8, lacks a method or path, or carries a
/// `Content-Length` that is not an integer or that disagrees with an
/// earlier one (RFC 9112 §6.3) is [`Malformed`](ProtocolError::Malformed).
pub fn parse_head(bytes: &[u8]) -> Result<Option<RequestHead>, ProtocolError> {
    let budget = &bytes[..bytes.len().min(MAX_HEAD_BYTES)];
    let Some(split) = head_end(budget) else {
        if bytes.len() >= MAX_HEAD_BYTES {
            return Err(ProtocolError::TooLarge {
                limit: MAX_HEAD_BYTES,
                got: bytes.len(),
            });
        }
        return Ok(None);
    };
    let head_text = std::str::from_utf8(&bytes[..split])
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
                let len = value.trim().parse().map_err(|_| {
                    ProtocolError::Malformed("Content-Length is not an integer".into())
                })?;
                if content_length.is_some_and(|earlier| earlier != len) {
                    return Err(ProtocolError::Malformed(
                        "conflicting Content-Length headers".into(),
                    ));
                }
                content_length = Some(len);
            }
        }
    }
    Ok(Some(RequestHead {
        method,
        path,
        content_length,
        body_start: split + 4,
    }))
}

/// Read one HTTP request from the socket, enforcing `max_body` and the
/// already-armed read timeout.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<HttpRequest, ProtocolError> {
    let mut received = Vec::new();
    let mut buf = [0u8; 1024];
    let head = loop {
        if let Some(head) = parse_head(&received)? {
            break head;
        }
        let n = stream.read(&mut buf).map_err(io_to_protocol)?;
        if n == 0 {
            return Err(ProtocolError::Malformed(
                "connection closed before the request head completed".into(),
            ));
        }
        received.extend_from_slice(&buf[..n]);
    };

    let want = if head.method == "POST" {
        let len = head.content_length.ok_or_else(|| {
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

    let mut body = received.split_off(head.body_start);
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
    Ok(HttpRequest {
        method: head.method,
        path: head.path,
        body,
    })
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
    use sapsim_sim::{for_each_seed, SimRng};

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

    /// A `GET /` head of exactly `len` bytes, blank line included.
    fn head_of_len(len: usize) -> Vec<u8> {
        let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(len - 4, b'p');
        head.extend_from_slice(b"\r\n\r\n");
        head
    }

    #[test]
    fn the_head_budget_is_strict() {
        let fits = parse_head(&head_of_len(MAX_HEAD_BYTES)).unwrap().unwrap();
        assert_eq!(fits.body_start, MAX_HEAD_BYTES);
        for len in [MAX_HEAD_BYTES + 1, MAX_HEAD_BYTES + 3, 8_500] {
            let err = parse_head(&head_of_len(len)).unwrap_err();
            assert_eq!(err.code(), "too-large", "{len}-byte head");
        }
        // Without its blank line a head is refused once it reaches the
        // budget, and waited for below it.
        let open = &head_of_len(MAX_HEAD_BYTES + 4)[..MAX_HEAD_BYTES];
        assert_eq!(parse_head(open).unwrap_err().code(), "too-large");
        assert_eq!(parse_head(&open[..MAX_HEAD_BYTES - 1]).unwrap(), None);
    }

    #[test]
    fn content_length_duplicates_must_agree() {
        let head = |lengths: &str| {
            parse_head(format!("POST /v1/request HTTP/1.1\r\n{lengths}\r\n\r\n").as_bytes())
        };
        let agreed = head("Content-Length: 5\r\ncontent-length:5").unwrap();
        assert_eq!(agreed.unwrap().content_length, Some(5));
        let err = head("Content-Length: 5\r\nContent-Length: 39").unwrap_err();
        assert_eq!(err.code(), "bad-request");
        assert!(err.to_string().contains("conflicting"), "{err}");
        assert_eq!(head("Content-Length: x").unwrap_err().code(), "bad-request");
    }

    /// Literal heads the mutator starts from.
    const HEADS: &[&str] = &[
        "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\nConnection: close\r\n\r\n{\"op\":\"x\"}",
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
        "GET /metrics HTTP/1.0\r\n\r\n",
        "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
    ];

    /// One random edit of `head`: flip, insert or delete a byte,
    /// truncate, duplicate a line, or pad a header to near the budget.
    fn mutate(rng: &mut SimRng, head: &[u8]) -> Vec<u8> {
        const BYTES: &[u8] = b"\r\n: 0123456789-GETPOSTContent-Length\xff";
        let mut out = head.to_vec();
        let at = rng.range(0, out.len() as u64 + 1) as usize;
        match rng.range(0, 6) {
            0 if at < out.len() => out[at] ^= 1 << rng.range(0, 8),
            1 => out.insert(at, BYTES[rng.range(0, BYTES.len() as u64) as usize]),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                let line_end = out[at..]
                    .windows(2)
                    .position(|w| w == b"\r\n")
                    .map_or(out.len(), |n| at + n + 2);
                let line = out[at..line_end].to_vec();
                out.splice(at..at, line);
            }
            _ => {
                let pad = rng.range(MAX_HEAD_BYTES as u64 - 64, MAX_HEAD_BYTES as u64 + 64);
                let mut header = b"X-Pad: ".to_vec();
                header.resize(pad as usize, b'p');
                header.extend_from_slice(b"\r\n");
                let after_request_line = out
                    .windows(2)
                    .position(|w| w == b"\r\n")
                    .map_or(0, |n| n + 2);
                out.splice(after_request_line..after_request_line, header);
            }
        }
        out
    }

    #[test]
    fn parse_head_survives_mutated_heads() {
        for_each_seed(4_000, |rng| {
            let head = HEADS[rng.range(0, HEADS.len() as u64) as usize];
            let mut bytes = head.as_bytes().to_vec();
            for _ in 0..rng.range(1, 4) {
                bytes = mutate(rng, &bytes);
            }
            match parse_head(&bytes) {
                Ok(Some(head)) => {
                    assert!(head.body_start <= bytes.len().min(MAX_HEAD_BYTES));
                    assert_eq!(&bytes[head.body_start - 4..head.body_start], b"\r\n\r\n");
                }
                Ok(None) => assert!(bytes.len() < MAX_HEAD_BYTES && head_end(&bytes).is_none()),
                Err(err) => assert!(
                    matches!(err.code(), "too-large" | "bad-request"),
                    "{}: {err}",
                    err.code()
                ),
            }
        });
    }
}
