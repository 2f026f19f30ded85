//! A blocking HTTP client for the daemon API — used by the `cornet
//! submit/status/watch` subcommands and the end-to-end tests. Speaks the
//! same one-request-per-connection dialect as [`crate::http`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A client bound to one daemon address and one tenant identity.
#[derive(Clone, Debug)]
pub struct DaemonClient {
    addr: String,
    tenant: String,
}

/// A buffered HTTP response from the daemon.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl DaemonClient {
    /// A client for the daemon at `addr` (`host:port`) acting as `tenant`.
    pub fn new(addr: impl Into<String>, tenant: impl Into<String>) -> DaemonClient {
        DaemonClient {
            addr: addr.into(),
            tenant: tenant.into(),
        }
    }

    /// GET `path` and buffer the response.
    pub fn get(&self, path: &str) -> Result<ClientResponse, String> {
        self.request("GET", path, None)
    }

    /// POST `body` (may be empty) to `path` and buffer the response.
    pub fn post(&self, path: &str, body: &str) -> Result<ClientResponse, String> {
        self.request("POST", path, Some(body))
    }

    /// One request over one connection (the server always closes).
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, String> {
        let mut stream = self.connect()?;
        send_request(&mut stream, method, path, &self.tenant, body)?;
        let mut reader = BufReader::new(stream);
        let (status, _headers) = read_head(&mut reader)?;
        let mut body = String::new();
        reader
            .read_to_string(&mut body)
            .map_err(|e| format!("reading response body: {e}"))?;
        Ok(ClientResponse { status, body })
    }

    /// GET `path` as a stream, invoking `on_line` per JSONL line until
    /// the server closes the stream or the callback returns `false`.
    /// Returns the HTTP status.
    pub fn stream(&self, path: &str, mut on_line: impl FnMut(&str) -> bool) -> Result<u16, String> {
        let mut stream = self.connect()?;
        // Follow streams idle between events; allow long gaps.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
        send_request(&mut stream, "GET", path, &self.tenant, None)?;
        let mut reader = BufReader::new(stream);
        let (status, _headers) = read_head(&mut reader)?;
        if status != 200 {
            let mut body = String::new();
            let _ = reader.read_to_string(&mut body);
            return Err(format!("HTTP {status}: {}", body.trim()));
        }
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(status),
                Ok(_) => {
                    if !on_line(line.trim_end_matches(['\r', '\n'])) {
                        return Ok(status);
                    }
                }
                Err(e) => return Err(format!("reading stream: {e}")),
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        Ok(stream)
    }
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    tenant: &str,
    body: Option<&str>,
) -> Result<(), String> {
    let body = body.unwrap_or("");
    // One `write` for head and body (`write!` would issue one per piece).
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: cornetd\r\nX-Cornet-Tenant: {tenant}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| format!("sending request: {e}"))
}

fn read_head(reader: &mut BufReader<TcpStream>) -> Result<(u16, BTreeMap<String, String>), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading status line: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut headers = BTreeMap::new();
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading response headers: {e}"))?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((status, headers))
}
