//! Hostile input for both HTTP readers. Whatever bytes a client sends —
//! arbitrary, or a request whose body is cut short of the length its
//! `Content-Length` claims — `http::read_request` never panics; and
//! whatever body size a server's response claims, by `Content-Length` or
//! by chunk size, `http::read_response` reads only the bytes that come,
//! and a response line that never ends is an error. Neither allocates on
//! the strength of a claim: no allocation exceeds 64 KiB or twice the
//! bytes the peer sent. And clients that connect and say nothing hold at
//! most the server loop's cap of threads, and only until they time out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};

use patternlets_serve::client::stream_output;
use patternlets_serve::http::{read_request, read_response, Request};
#[cfg(target_os = "linux")]
use patternlets_serve::{conns::Limits, http};
use proptest::prelude::*;

thread_local! {
    /// The largest single allocation this thread made since last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest allocation.
struct Measured;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Measured {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

#[global_allocator]
static ALLOC: Measured = Measured;

/// Send `bytes` over a loopback connection and end it, then `read` from
/// the far side, checking the reader's largest allocation.
fn read_sent<R>(bytes: &[u8], read: impl FnOnce(&mut TcpStream) -> R) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut conn, _) = listener.accept().unwrap();
    // A sender thread of its own, as `bytes` may outgrow the socket
    // buffer; a reader that stops early makes its writes fail.
    let sent = bytes.to_vec();
    let sender = std::thread::spawn(move || {
        let _ = sender.write_all(&sent);
        let _ = sender.shutdown(Shutdown::Write);
    });
    LARGEST.with(|l| l.set(0));
    let got = read(&mut conn);
    let largest = LARGEST.with(|l| l.get());
    drop(conn);
    sender.join().unwrap();
    assert!(
        largest <= (64 << 10).max(2 * bytes.len()),
        "allocated {largest} bytes for a message of {} bytes",
        bytes.len()
    );
    got
}

/// Read one request from `bytes` sent by a client.
fn serve_one(bytes: &[u8]) -> std::io::Result<Option<Request>> {
    read_sent(bytes, read_request)
}

/// A `POST` whose head claims `claim` body bytes, followed by `body`.
fn post(claim: usize, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!("POST /jobs HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n").into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any bytes at all.
    #[test]
    fn arbitrary_bytes_are_read_within_the_bound(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let _ = serve_one(&bytes);
    }

    /// A request cut off anywhere, its body claiming up to twice the cap:
    /// a whole body is read back as sent, a short one is an error.
    #[test]
    fn truncated_requests_are_read_within_the_bound(
        claim in 0usize..=2 << 20,
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        cut in 0.0f64..1.0,
    ) {
        let sent = &body[..body.len().min(claim)];
        let mut bytes = post(claim, sent);
        if cut < 0.5 {
            bytes.truncate((bytes.len() as f64 * cut * 2.0) as usize);
        }
        let whole = bytes.len() == post(claim, sent).len();
        match serve_one(&bytes) {
            Ok(Some(req)) => {
                prop_assert!(whole && sent.len() == claim);
                prop_assert_eq!(req.body, sent.to_vec());
            }
            Ok(None) => prop_assert!(!whole || claim > 1 << 20),
            Err(_) => prop_assert!(sent.len() < claim || !whole),
        }
    }
}

/// The largest body the gateway takes, claimed by eight bytes.
#[test]
fn a_claimed_body_reserves_nothing() {
    let err = serve_one(&post(1 << 20, b"8 bytes!")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// A 100 MiB `Content-Length` claimed by a 51-byte response.
#[test]
fn a_claimed_response_body_reserves_nothing() {
    let bytes = b"HTTP/1.1 200 OK\r\nContent-Length: 104857600\r\n\r\nshort";
    let err = read_sent(bytes, read_response).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// A 100 MiB chunk claimed by a chunked response of a few bytes.
#[test]
fn a_claimed_response_chunk_reserves_nothing() {
    let bytes = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6400000\r\nshort";
    let err = read_sent(bytes, read_response).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// A response head that never ends: a 4 MiB header line.
#[test]
fn an_endless_response_header_is_an_error() {
    let mut bytes = b"HTTP/1.1 200 OK\r\nX-Filler: ".to_vec();
    bytes.resize(bytes.len() + (4 << 20), b'a');
    bytes.extend_from_slice(b"\r\nContent-Length: 5\r\n\r\nhello");
    let err = read_sent(&bytes, read_response).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A chunk-size line that never ends: 4 MiB of leading zeros.
#[test]
fn an_endless_chunk_size_line_is_an_error() {
    let mut bytes = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    bytes.resize(bytes.len() + (4 << 20), b'0');
    bytes.extend_from_slice(b"5\r\nhello\r\n0\r\n\r\n");
    let err = read_sent(&bytes, read_response).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// `patternlets submit`'s output stream, whose chunks go to the terminal
/// as they come, is read the same way: a 100 MiB chunk claimed by a few
/// bytes is an error, and reserves nothing.
#[test]
fn a_claimed_output_chunk_reserves_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        read_request(&mut conn).unwrap().expect("a whole request");
        conn.write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6400000\r\nshort")
            .unwrap();
    });
    let mut out = Vec::new();
    LARGEST.with(|l| l.set(0));
    let err = stream_output(&addr, 1, &mut out).unwrap_err();
    let largest = LARGEST.with(|l| l.get());
    server.join().unwrap();
    assert!(err.contains("stream read"), "{err}");
    assert!(largest <= 64 << 10, "allocated {largest} bytes");
}

/// Whole bodies in both framings read back as sent.
#[test]
fn whole_response_bodies_read_back() {
    let fixed = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
    let got = read_sent(fixed, read_response).unwrap();
    assert_eq!(got, (200, "hello".to_string()));
    let chunked =
        b"HTTP/1.1 202 Accepted\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2\r\nlo\r\n0\r\n\r\n";
    let got = read_sent(chunked, read_response).unwrap();
    assert_eq!(got, (202, "hello".to_string()));
}

/// How many live threads of this process have a name starting `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// The cap plus 8 clients connect and say nothing: the server loop keeps
/// at most the cap of threads for them, and a well-formed request behind
/// them is answered once they have timed out, a cap's worth at a time.
#[cfg(target_os = "linux")]
#[test]
fn silent_connections_hold_at_most_the_cap() {
    use std::time::{Duration, Instant};
    const CAP: usize = 2;
    const FIRST_READ: Duration = Duration::from_millis(300);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let limits = Limits {
        threads: CAP,
        first_read: FIRST_READ,
    };
    http::serve_with(listener, "capped", limits, |conn, _| {
        http::respond(conn, 200, "text/plain", b"ok")
    })
    .unwrap();
    let silent: Vec<TcpStream> = (0..CAP + 8)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let start = Instant::now();
    let request = std::thread::spawn(move || http::http_exchange(&addr, "GET", "/", None));
    let mut most = 0;
    while !request.is_finished() {
        most = most.max(threads_named("capped-conn"));
        assert!(start.elapsed() < Duration::from_secs(30), "never answered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let answered = start.elapsed();
    let (status, body) = request.join().unwrap().expect("the request is answered");
    assert_eq!((status, body.as_str()), (200, "ok"));
    assert!(most <= CAP, "{most} connection threads for a cap of {CAP}");
    assert!(threads_named("capped-conn") <= CAP);
    // Five rounds of two silent connections came first.
    let rounds = ((CAP + 8) / CAP) as u32;
    assert!(
        answered >= FIRST_READ * rounds - FIRST_READ / 2,
        "answered after {answered:?}, before the silent connections timed out"
    );
    drop(silent);
}
