//! The scripted placement client (`sapsim serve --connect`).
//!
//! A script is a text file of `sapsim.api/v1` envelope lines (blank
//! lines and `#` comments skipped). The client sends each line to a
//! running server — one `POST /v1/request` per line over HTTP, or one
//! JSON line per request over the persistent TCP fast path — and
//! prints each response envelope on its own line. Error envelopes are
//! printed like any other response and do not fail the client: CI
//! compares the full printed transcript (and the final state hash)
//! against the offline applier's. Every request leaves in one write on a
//! `TCP_NODELAY` socket, so no request waits on the server's delayed ACK.

use crate::error::CliError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Load a script: every non-blank, non-comment line, in order.
pub(crate) fn read_script(path: &str) -> Result<Vec<String>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read script `{path}`: {e}")))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Drive a server over HTTP: one `POST /v1/request` per script line.
pub fn run_http(addr: &str, script: &str, out: &mut dyn Write) -> Result<(), CliError> {
    for line in read_script(script)? {
        let body = post_request(addr, &line)?;
        writeln!(out, "{body}").map_err(|e| CliError::Io(e.to_string()))?;
    }
    Ok(())
}

/// Connect to `addr` with `TCP_NODELAY` set.
fn connect(addr: &str) -> Result<TcpStream, CliError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| CliError::Io(format!("cannot connect to `{addr}`: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| CliError::Io(format!("cannot configure connection to `{addr}`: {e}")))?;
    Ok(stream)
}

/// Send `request` in one write.
fn send(stream: &mut TcpStream, addr: &str, request: &str) -> Result<(), CliError> {
    stream
        .write_all(request.as_bytes())
        .map_err(|e| CliError::Io(format!("cannot send to `{addr}`: {e}")))
}

/// Drive a server over the TCP fast path: a single persistent
/// connection, one JSON line per request.
pub(crate) fn run_tcp(addr: &str, script: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let lines = read_script(script)?;
    let stream = connect(addr)?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError::Io(format!("cannot clone connection: {e}")))?,
    );
    let mut writer = stream;
    for line in lines {
        send(&mut writer, addr, &format!("{line}\n"))?;
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| CliError::Io(format!("cannot read from `{addr}`: {e}")))?;
        if n == 0 {
            return Err(CliError::Io(format!(
                "server at `{addr}` closed the connection mid-script"
            )));
        }
        writeln!(out, "{}", response.trim_end()).map_err(|e| CliError::Io(e.to_string()))?;
    }
    Ok(())
}

/// POST one envelope line and return the response body.
pub fn post_request(addr: &str, line: &str) -> Result<String, CliError> {
    let body = exchange(
        addr,
        &format!(
            "POST /v1/request HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{line}",
            line.len(),
        ),
    )?;
    Ok(body.trim_end().to_string())
}

/// GET a path (used for `/healthz` readiness polling and `/metrics`).
pub fn get(addr: &str, path: &str) -> Result<String, CliError> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    )
}

/// Send one HTTP request on a fresh connection and return what follows
/// the response head (the whole response when no head ends in it).
fn exchange(addr: &str, request: &str) -> Result<String, CliError> {
    let mut stream = connect(addr)?;
    send(&mut stream, addr, request)?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| CliError::Io(format!("cannot read from `{addr}`: {e}")))?;
    let text = String::from_utf8_lossy(&raw);
    Ok(text
        .split_once("\r\n\r\n")
        .map_or(&*text, |(_, body)| body)
        .to_string())
}
