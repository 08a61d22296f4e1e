//! A minimal HTTP/1.1 layer over `std::net` — exactly the subset the
//! daemon needs: parse one request per connection (method, path,
//! `Content-Length`-framed body), write one `Connection: close` response
//! (buffered or streamed). No keep-alive, no chunked *requests*, no TLS;
//! `curl` and every HTTP client speak this subset natively.

use crate::error::ApiError;
use std::io::{BufRead, BufReader, ErrorKind, Read, Take, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a request body. Step queries carry whole layer lists
/// and sweeps carry many queries, but 64 MiB is orders of magnitude past
/// any real sweep.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Time a client has, from accept, to deliver the whole request head.
/// A real client writes its head at once; a peer that connects and
/// stays silent releases its handler after this long.
pub const HEAD_DEADLINE: Duration = Duration::from_millis(500);
/// Read timeout for the body, and write timeout for the response (a
/// `/sweep` client that stops reading releases its handler after
/// this long).
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request: the routing triple plus the raw body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query strings are not used by this protocol and are
    /// kept attached — no route carries one).
    pub path: String,
    /// The raw body bytes (`Content-Length`-framed; empty when absent).
    pub body: Vec<u8>,
}

/// Reads from a stream until a deadline: each read waits at most the
/// time left.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Bytes that are already buffered are still taken after the
        // deadline (a request that waited in the handler queue is not
        // the client's fault); the floor also keeps the timeout nonzero,
        // which `set_read_timeout` requires.
        let left = self
            .at
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// The request head reader: at most [`MAX_HEAD_BYTES`] are ever read
/// through it, so an endless request line costs no more memory than a
/// legal head.
type HeadReader<'a> = BufReader<Take<Deadline<'a>>>;

/// The parsed head: method, path and `Content-Length`.
type Head = (String, String, usize);

/// Reads one request off `stream`, which was accepted at `accepted`.
/// The outer `Err` is a transport failure (peer vanished — nothing can
/// be written back); the inner `Err` is a protocol mistake that deserves
/// a structured 4xx response: a malformed or oversized head (400), a
/// head not complete within [`HEAD_DEADLINE`] of `accepted` (408), or an
/// oversized body (413).
pub fn read_request(
    stream: &TcpStream,
    accepted: Instant,
) -> std::io::Result<Result<Request, ApiError>> {
    let deadline = Deadline {
        stream,
        at: accepted + HEAD_DEADLINE,
    };
    let mut head = BufReader::new(deadline.take(MAX_HEAD_BYTES as u64));
    let (method, path, n) = match read_head(&mut head) {
        Ok(Ok(parsed)) => parsed,
        Ok(Err(e)) => return Ok(Err(e)),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Ok(Err(ApiError::request_timeout(HEAD_DEADLINE)))
        }
        Err(e) => return Err(e),
    };
    if n > MAX_BODY_BYTES {
        return Ok(Err(ApiError::payload_too_large(MAX_BODY_BYTES)));
    }
    // The head reader may already hold the start of the body. The rest
    // is read as it arrives, so memory follows the bytes actually sent,
    // not the declared length.
    let buffered = head.buffer();
    let mut body = buffered[..buffered.len().min(n)].to_vec();
    if body.len() < n {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream
            .take((n - body.len()) as u64)
            .read_to_end(&mut body)?;
        if body.len() < n {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed inside the request body",
            ));
        }
    }
    Ok(Ok(Request { method, path, body }))
}

/// Parses the request line and headers (only `Content-Length` matters
/// to this protocol).
fn read_head(head: &mut HeadReader<'_>) -> std::io::Result<Result<Head, ApiError>> {
    let too_large = || {
        ApiError::bad_request(
            "malformed_request",
            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        )
    };
    let mut line = String::new();
    if head.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before a request line",
        ));
    }
    if !line.ends_with('\n') && head.get_ref().limit() == 0 {
        return Ok(Err(too_large()));
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v.to_string()),
        _ => {
            return Ok(Err(ApiError::bad_request(
                "malformed_request",
                format!("malformed request line `{}`", line.trim_end()),
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(Err(ApiError::bad_request(
            "malformed_request",
            format!("unsupported protocol version `{version}`"),
        )));
    }
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let read = head.read_line(&mut header)?;
        if !header.ends_with('\n') && head.get_ref().limit() == 0 {
            return Ok(Err(too_large()));
        }
        if read == 0 {
            return Ok(Err(ApiError::bad_request(
                "malformed_request",
                "connection closed inside the header block",
            )));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) => content_length = Some(n),
                    Err(_) => {
                        return Ok(Err(ApiError::bad_request(
                            "malformed_request",
                            format!("unparseable Content-Length `{}`", value.trim()),
                        )))
                    }
                }
            }
        }
    }
    Ok(Ok((method, path, content_length.unwrap_or(0))))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete `Connection: close` response with a
/// `Content-Length`-framed body.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len()
    )
    .into_bytes();
    // One write per response: head and body leave in one segment when
    // they fit, with no small-write delay between them.
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// Writes the head of a streamed NDJSON response. The body has no
/// `Content-Length`; `Connection: close` delimits it — each line is
/// flushed as it is produced, and the close marks the end.
pub fn write_stream_head(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Serializes `err` and writes it as a complete response.
pub fn write_error(stream: &mut TcpStream, err: &ApiError) -> std::io::Result<()> {
    write_response(
        stream,
        err.status,
        "application/json",
        err.body().as_bytes(),
    )
}
