//! A hand-rolled HTTP/1.1 server/client substrate for the job gateway.
//!
//! `pmserve` speaks just enough HTTP for `curl` and the `patternlets
//! submit` client: request-line + headers + `Content-Length` bodies on
//! the way in; fixed-length or `chunked` responses on the way out. Every
//! exchange is one connection (`Connection: close`), which keeps the
//! server loop ([`serve`]) free of keep-alive bookkeeping: it is the
//! shared connection loop of [`crate::conns`], whose pooled threads each
//! read one request and answer it, then take the next connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::conns::{self, Limits};

/// Cap on header block + body size: the gateway's documents are tiny, so
/// anything larger is a confused (or hostile) client.
const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 1024 * 1024;

/// Serve `listener` on the shared connection loop ([`crate::conns`],
/// default [`Limits`]): a pool thread reads each connection's request,
/// sent within 10 s, and passes it to `handler`, which writes the
/// response. A connection whose request is unparseable is dropped
/// unanswered.
pub fn serve<H>(listener: TcpListener, name: &str, handler: H) -> std::io::Result<()>
where
    H: Fn(&mut TcpStream, &Request) -> std::io::Result<()> + Send + Sync + 'static,
{
    serve_with(listener, name, Limits::default(), handler)
}

/// [`serve`] within explicit `limits` (the tests' small cap and short
/// first read).
pub fn serve_with<H>(
    listener: TcpListener,
    name: &str,
    limits: Limits,
    handler: H,
) -> std::io::Result<()>
where
    H: Fn(&mut TcpStream, &Request) -> std::io::Result<()> + Send + Sync + 'static,
{
    conns::serve(listener, name, limits, move |mut conn| {
        if let Ok(Some(req)) = read_request(&mut conn) {
            let _ = handler(&mut conn, &req);
        }
    })
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The path, query string included.
    pub path: String,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8 (empty string when absent or invalid).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Read one request from a connection. `Ok(None)` means the client went
/// away or sent something unparseable — the caller just drops the
/// connection either way.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    // The request line and headers share one MAX_HEAD budget, enforced
    // while reading: a line that never ends must not buffer without bound.
    // A line cut short — by the budget or by EOF — is unparseable.
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let mut line = String::new();
    head.read_line(&mut line)?;
    if !line.ends_with('\n') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        head.read_line(&mut header)?;
        if !header.ends_with('\n') {
            return Ok(None);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_BODY {
        return Ok(None);
    }
    let mut body = Vec::new();
    read_claimed(&mut reader, content_length, &mut body)?;
    Ok(Some(Request { method, path, body }))
}

/// Append the `n` bytes a message claims to `body`, which grows as they
/// arrive, so a claim alone sizes nothing; fewer bytes are an error.
fn read_claimed(reader: &mut impl Read, n: usize, body: &mut Vec<u8>) -> std::io::Result<()> {
    if reader.take(n as u64).read_to_end(body)? < n {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length response and flush it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// [`respond`] with `application/json`.
pub fn respond_json(stream: &mut TcpStream, status: u16, json: &str) -> std::io::Result<()> {
    respond(stream, status, "application/json", json.as_bytes())
}

/// A `Transfer-Encoding: chunked` response in progress: the gateway's
/// output-streaming endpoint sends each captured line as its own chunk,
/// so a `curl` watching a running job sees lines as the workers print
/// them.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Send the response head and switch the connection to chunked mode.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            status_text(status),
            content_type,
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send one chunk (empty input is skipped: a zero-size chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Client side: issue one request and read the full response (fixed-
/// length or chunked), returning `(status, body)`.
pub fn http_exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    read_response(&mut stream)
}

/// Read a full response from a connected stream, returning `(status,
/// body)`; see [`read_response_with`].
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut body = Vec::new();
    let status = read_response_with(stream, |_, piece| {
        body.extend_from_slice(piece);
        Ok(())
    })?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Read a response from a connected stream: status line, headers, then a
/// fixed-length, chunked, or read-to-EOF body, handed to `sink` with the
/// status as it arrives, a chunk at a time; returns the status. The head,
/// and each chunk-size line, is held to [`MAX_HEAD`] bytes: a line that
/// runs past its budget is an error.
pub fn read_response_with(
    stream: &mut TcpStream,
    mut sink: impl FnMut(u16, &[u8]) -> std::io::Result<()>,
) -> std::io::Result<u16> {
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let line = response_line(&mut head)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let header = response_line(&mut head)?;
        if header.is_empty() {
            return Ok(status);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    let mut piece = Vec::new();
    match content_length {
        _ if chunked => loop {
            let size_line = response_line(&mut (&mut reader).take(MAX_HEAD as u64))?;
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
            if size == 0 {
                return Ok(status);
            }
            piece.clear();
            read_claimed(&mut reader, size, &mut piece)?;
            sink(status, &piece)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        },
        Some(n) => read_claimed(&mut reader, n, &mut piece)?,
        None => drop(reader.read_to_end(&mut piece)?),
    }
    sink(status, &piece)?;
    Ok(status)
}

/// One response line, read through `head`, a reader limited to what is
/// left of the line's budget: empty at EOF, an error past the budget.
fn response_line<R: BufRead>(head: &mut std::io::Take<R>) -> std::io::Result<String> {
    let mut text = String::new();
    head.read_line(&mut text)?;
    if head.limit() == 0 && !text.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("response head line longer than {MAX_HEAD} bytes"),
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.body_str(), "{\"np\": 2}");
            respond_json(&mut conn, 202, "{\"job\": 1}").unwrap();
        });
        let (status, body) = http_exchange(&addr, "POST", "/jobs", Some("{\"np\": 2}")).unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, "{\"job\": 1}");
        server.join().unwrap();
    }

    #[test]
    fn an_unterminated_request_line_reads_at_most_the_head_cap() {
        const SENT: usize = 1 << 20;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            // 1 MiB of request line with no newline, then EOF.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&vec![b'a'; SENT]).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        assert!(read_request(&mut conn).unwrap().is_none());
        // What read_request left unread is still in the socket.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        client.join().unwrap();
        let consumed = SENT - rest.len();
        // One BufReader buffer (8 KiB) may be read ahead of the cap.
        assert!(
            consumed <= MAX_HEAD + 8 * 1024,
            "read {consumed} bytes of a line with no end"
        );
    }

    #[test]
    fn chunked_stream_reassembles() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_request(&mut conn).unwrap().unwrap();
            let mut w = ChunkedWriter::start(&mut conn, 200, "text/plain").unwrap();
            for part in ["one\n", "two\n", "three\n"] {
                w.chunk(part.as_bytes()).unwrap();
            }
            w.finish().unwrap();
        });
        let (status, body) = http_exchange(&addr, "GET", "/jobs/1/output", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "one\ntwo\nthree\n");
        server.join().unwrap();
    }
}
