//! The zero-dependency HTTP endpoint: `/metrics`, `/progress`,
//! `/curves`, `/healthz`.
//!
//! Built directly on `std::net::TcpListener` — no HTTP crate, no async
//! runtime. The listener runs non-blocking on the monitor's one thread,
//! polling for connections between short sleeps so shutdown is prompt;
//! each request is tiny (one line plus headers) and answered inline
//! with `Connection: close`. Every answer is built at request time from
//! state the run already keeps, so nothing here holds a copy to go
//! stale.
//!
//! Routes:
//!
//! - `GET /metrics` — Prometheus text exposition (format 0.0.4) of a
//!   [`mlam_telemetry::snapshot`] taken for this scrape, plus monitor
//!   gauges (progress, resident memory, in-flight spans).
//!   `Content-Type: text/plain; version=0.0.4`. The registry is locked
//!   only for the snapshot, and increments through cached handles
//!   never wait for that lock.
//! - `GET /progress` — the current [`ProgressSnapshot`] as JSON.
//! - `GET /curves` — the learning-curve checkpoints recorded so far,
//!   as the `curves.jsonl` lines the run directory will hold
//!   ([`mlam_telemetry::curves::write_curves_jsonl`] of the recorder
//!   attached with [`Monitor::curves`]); empty without a recorder or
//!   before the first checkpoint.
//! - `GET /healthz` — `200 ok`, for readiness loops in CI.
//! - anything else — `404`.
//!
//! [`ProgressSnapshot`]: crate::progress::ProgressSnapshot

use crate::progress::Progress;
use crate::prometheus::{self, Exposition, ResidentMemory};
use crate::spans::{LiveSpanTracker, LiveSpans};
use mlam_telemetry::curves::write_curves_jsonl;
use mlam_telemetry::CurveRecorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Monitor configuration: where to listen and what to expose.
pub struct Monitor {
    addr: String,
    progress: Option<Arc<Progress>>,
    curves: Option<Arc<CurveRecorder>>,
}

impl Monitor {
    /// A monitor that will bind `addr` (e.g. `127.0.0.1:9100`; port 0
    /// picks an ephemeral port, reported by [`MonitorHandle::addr`]).
    pub fn new(addr: &str) -> Monitor {
        Monitor {
            addr: addr.to_string(),
            progress: None,
            curves: None,
        }
    }

    /// Attaches run progress, enabling `/progress` payloads and the
    /// `mlam_progress_*` gauges.
    pub fn progress(mut self, progress: Arc<Progress>) -> Monitor {
        self.progress = Some(progress);
        self
    }

    /// Attaches the run's curve recorder, enabling `/curves` payloads.
    /// The session records every checkpoint into this one store, so the
    /// endpoint serves training progress as it happens.
    pub fn curves(mut self, curves: Arc<CurveRecorder>) -> Monitor {
        self.curves = Some(curves);
        self
    }

    /// Binds the listener, starts the serving thread and installs the
    /// live-span sink.
    pub fn start(self) -> std::io::Result<MonitorHandle> {
        let listener = TcpListener::bind(&self.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (tracker, spans) = LiveSpanTracker::new();
        mlam_telemetry::add_sink(Box::new(tracker));

        let stop = Arc::new(AtomicBool::new(false));
        let server = ServerState {
            spans,
            progress: self.progress,
            curves: self.curves,
            scrapes: AtomicU64::new(0),
            stop: Arc::clone(&stop),
        };
        let thread = std::thread::Builder::new()
            .name("mlam-monitor".into())
            .spawn(move || server.serve(listener))?;

        Ok(MonitorHandle {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }
}

/// A running monitor: keep it alive for the duration of the run, then
/// call [`MonitorHandle::shutdown`].
pub struct MonitorHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MonitorHandle {
    /// The address actually bound (resolves port 0 requests).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

struct ServerState {
    spans: Arc<LiveSpans>,
    progress: Option<Arc<Progress>>,
    curves: Option<Arc<CurveRecorder>>,
    scrapes: AtomicU64,
    stop: Arc<AtomicBool>,
}

impl ServerState {
    fn serve(&self, listener: TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Serve inline: requests are one read + one write,
                    // and scrape concurrency needs are trivial.
                    let _ = self.handle(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => {
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
            }
        }
    }

    fn handle(&self, mut stream: TcpStream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.set_write_timeout(Some(Duration::from_secs(2)))?;
        // The listener is non-blocking and accepted sockets inherit
        // that on some platforms; force blocking so the timeouts rule.
        stream.set_nonblocking(false)?;
        let path = match read_request_path(&mut stream) {
            Some(path) => path,
            None => return Ok(()), // unparseable request: drop it
        };
        let (status, content_type, body) = match path.as_str() {
            "/metrics" => {
                let n = self.scrapes.fetch_add(1, Ordering::Relaxed) + 1;
                let exposition = Exposition {
                    metrics: mlam_telemetry::snapshot(),
                    resident: ResidentMemory::read(),
                    progress: self.progress.as_ref().map(|p| p.snapshot()),
                    inflight_spans: self.spans.counts(),
                    scrapes: n,
                };
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    prometheus::render(&exposition),
                )
            }
            "/progress" => {
                let snap = match &self.progress {
                    Some(p) => p.snapshot(),
                    None => Progress::new(0, false).snapshot(),
                };
                let body = serde_json::to_string(&snap).unwrap_or_else(|_| "{}".to_string());
                ("200 OK", "application/json", body + "\n")
            }
            "/curves" => {
                let mut body = Vec::new();
                if let Some(recorder) = &self.curves {
                    write_curves_jsonl(&mut body, &recorder.series())?;
                }
                (
                    "200 OK",
                    "application/jsonl; charset=utf-8",
                    String::from_utf8(body).expect("serde_json writes UTF-8"),
                )
            }
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(response.as_bytes())?;
        stream.flush()
    }
}

/// The longest request head read; scrapers send no body, so anything
/// longer is garbage.
const MAX_HEAD: usize = 8192;

/// Reads the request head and returns the path from the request line
/// (`GET /metrics?x=1 HTTP/1.1` → `/metrics`), or `None` if the bytes do
/// not look like an HTTP GET.
///
/// Reading stops at the blank line ending the head, at end of input or
/// a read error, and never goes past [`MAX_HEAD`] bytes, so the answer
/// does not depend on how the bytes are split across reads.
fn read_request_path(stream: &mut impl Read) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while buf.len() < MAX_HEAD {
        let want = chunk.len().min(MAX_HEAD - buf.len());
        let n = match stream.read(&mut chunk[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        // Only the new bytes and the three before them can complete
        // the blank line.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if buf[from..].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Strip any query string; routes here take no parameters.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hands out at most `step` bytes per `read`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The path read from `bytes` handed out whole. Every property
    /// also checks that one byte per read, and 7 (which does not divide
    /// the cap), give the same answer.
    fn path_of(bytes: &[u8]) -> Option<String> {
        let whole = read_request_path(&mut &bytes[..]);
        for step in [1, 7] {
            let trickled = read_request_path(&mut Trickle { bytes, step });
            assert_eq!(trickled, whole, "{step} bytes per read vs one whole read");
        }
        whole
    }

    /// Strings of 1..`max` characters from `alphabet`.
    fn word(alphabet: &'static [u8], max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(0..alphabet.len(), 1..max)
            .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i] as char).collect())
    }

    const PATH: &[u8] = b"/abcxyzABCXYZ0189-._~%!$&'()*+,;=:@";
    const METHOD: &[u8] = b"ABCDEGHOPSTU-";

    /// `method target HTTP/1.1`, a header padded with `pad` bytes (so
    /// some heads pass the 8 KiB cap), the blank line, then `rest`.
    fn request(method: &str, target: &str, pad: usize, rest: &[u8]) -> Vec<u8> {
        let mut bytes = format!(
            "{method} {target} HTTP/1.1\r\nHost: monitor\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(pad)
        )
        .into_bytes();
        bytes.extend_from_slice(rest);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary bytes, up to half again the cap, never panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..3 * MAX_HEAD / 2),
        ) {
            path_of(&bytes);
        }

        /// A `GET` head yields its path without the query string,
        /// however long the head and whatever follows it.
        #[test]
        fn get_heads_return_their_path(
            path in word(PATH, 64),
            query in word(b"a=1&b?", 16),
            pad in 0..3 * MAX_HEAD / 2,
            rest in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let bytes = request("GET", &format!("{path}?{query}"), pad, &rest);
            prop_assert_eq!(path_of(&bytes), Some(path.clone()));
            let bytes = request("GET", &path, pad, &rest);
            prop_assert_eq!(path_of(&bytes), Some(path));
        }

        /// A request line longer than the cap is cut at the cap.
        #[test]
        fn long_request_lines_are_cut_at_the_cap(len in MAX_HEAD - 16..2 * MAX_HEAD) {
            let path = format!("/{}", "a".repeat(len));
            let cut = path.len().min(MAX_HEAD - "GET ".len());
            prop_assert_eq!(path_of(&request("GET", &path, 0, b"")), Some(path[..cut].to_string()));
        }

        /// Any other method yields `None`.
        #[test]
        fn other_methods_return_none(
            method in word(METHOD, 8),
            path in word(PATH, 64),
            pad in 0..3 * MAX_HEAD / 2,
        ) {
            prop_assume!(method != "GET");
            prop_assert_eq!(path_of(&request(&method, &path, pad, b"")), None);
        }
    }
}
