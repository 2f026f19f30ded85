//! A dependency-free HTTP/1.1 server over `std::net`.
//!
//! The workspace vendors no async runtime and no HTTP stack, so `cornetd`
//! speaks a deliberately small dialect: every connection carries exactly
//! one request and is closed after the response (`Connection: close`),
//! bodies are delimited by `Content-Length`, and responses either carry a
//! full buffered body or stream until close (the JSONL event feed).
//! A fixed worker pool drains an accept queue; slow or hostile peers are
//! bounded by read timeouts and header/body size caps.

use cornet_types::json::JsonWriter;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 8 * 1024 * 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/v1/campaigns`).
    pub path: String,
    /// Query parameters, last occurrence wins.
    pub query: BTreeMap<String, String>,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// A header by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    /// A query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }
}

/// A buffered HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// The error body every non-2xx JSON answer carries: `{"error":"…"}`.
    pub(crate) fn error(status: u16, message: impl std::fmt::Display) -> Response {
        let mut body = String::new();
        let mut w = JsonWriter::compact(&mut body);
        w.begin_object().key("error").display(message).end_object();
        Response::json(status, body)
    }

    /// A JSON-lines response (one JSON document per line).
    pub fn jsonl(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/x-ndjson",
            body: body.into(),
        }
    }
}

/// Streaming body writer handed to [`Reply::Stream`] closures.
pub type BodySink<'a> = &'a mut dyn Write;

/// What a handler returns: a buffered response, or a closure that streams
/// the body until it returns (the connection closes afterwards).
pub enum Reply {
    /// Buffered response with `Content-Length`.
    Full(Response),
    /// Headers are sent immediately (status 200, the given content type),
    /// then the closure writes the body incrementally.
    Stream {
        /// `Content-Type` for the streamed body.
        content_type: &'static str,
        /// Body writer; the connection closes when it returns.
        write: Box<dyn FnOnce(BodySink<'_>) -> std::io::Result<()> + Send>,
    },
}

/// Request handler shared by all workers.
pub type Handler = Arc<dyn Fn(Request) -> Reply + Send + Sync>;

/// The listening server: an accept thread feeding a worker pool.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve with `workers` threads.
    pub fn bind(addr: &str, workers: usize, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        for i in 0..workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
                            rx.recv()
                        };
                        match stream {
                            Ok(stream) => serve_connection(stream, &handler),
                            Err(_) => return, // accept loop gone
                        }
                    })?,
            );
        }
        let accept_stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name("http-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if accept_stop.load(Ordering::SeqCst) {
                            return; // dropping tx stops the workers
                        }
                        if let Ok(stream) = stream {
                            if tx.send(stream).is_err() {
                                return;
                            }
                        }
                    }
                })?,
        );
        Ok(HttpServer {
            addr: local,
            stop,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join every thread. In-flight
    /// requests finish first.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn serve_connection(stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    match read_request(&mut reader) {
        Ok(request) => {
            let reply = handler(request);
            let _ = write_reply(&mut stream, reply);
        }
        Err(e) => {
            let _ = write_reply(&mut stream, Reply::Full(Response::error(400, e)));
        }
    }
    let _ = stream.flush();
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts.next().ok_or("request line without a target")?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), BTreeMap::new()),
    };
    let mut headers = BTreeMap::new();
    let mut head_bytes = line.len();
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading headers: {e}"))?;
        head_bytes += line.len();
        if head_bytes > MAX_HEAD {
            return Err("request head too large".into());
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let length: usize = match headers.get("content-length") {
        Some(v) => v.parse().map_err(|_| "bad content-length")?,
        None => 0,
    };
    if length > MAX_BODY {
        return Err("request body too large".into());
    }
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("reading body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn parse_query(q: &str) -> BTreeMap<String, String> {
    q.split('&')
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (!k.is_empty()).then(|| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

fn write_reply(stream: &mut TcpStream, reply: Reply) -> std::io::Result<()> {
    match reply {
        // `write!` on a socket is one system call per format piece: build
        // the message first and send it with one.
        Reply::Full(r) => {
            let mut message = format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                r.status,
                status_text(r.status),
                r.content_type,
                r.body.len()
            );
            message.push_str(&r.body);
            stream.write_all(message.as_bytes())
        }
        Reply::Stream {
            content_type,
            write: body,
        } => {
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n"
            );
            stream.write_all(head.as_bytes())?;
            // Streams outlive the worker read timeout by design.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(300)));
            body(stream)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|req: Request| {
            if req.path == "/stream" {
                Reply::Stream {
                    content_type: "application/x-ndjson",
                    write: Box::new(|sink: BodySink<'_>| {
                        for i in 0..3 {
                            writeln!(sink, "{{\"n\":{i}}}")?;
                            sink.flush()?;
                        }
                        Ok(())
                    }),
                }
            } else {
                Reply::Full(Response::json(
                    200,
                    format!(
                        "{{\"method\":\"{}\",\"path\":\"{}\",\"from\":\"{}\",\"body_len\":{}}}",
                        req.method,
                        req.path,
                        req.param("from").unwrap_or("-"),
                        req.body.len()
                    ),
                ))
            }
        });
        HttpServer::bind("127.0.0.1:0", 2, handler).unwrap()
    }

    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn parses_requests_and_writes_full_responses() {
        let server = echo_server();
        let addr = server.local_addr();
        let body = "hello";
        let response = raw_request(
            addr,
            &format!(
                "POST /v1/x?from=7 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("\"method\":\"POST\""), "{response}");
        assert!(response.contains("\"path\":\"/v1/x\""), "{response}");
        assert!(response.contains("\"from\":\"7\""), "{response}");
        assert!(response.contains("\"body_len\":5"), "{response}");
        server.shutdown();
    }

    #[test]
    fn streams_until_close() {
        let server = echo_server();
        let response = raw_request(server.local_addr(), "GET /stream HTTP/1.1\r\n\r\n");
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
        assert_eq!(body, "{\"n\":0}\n{\"n\":1}\n{\"n\":2}\n");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = echo_server();
        let response = raw_request(server.local_addr(), "BOGUS\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }
}
