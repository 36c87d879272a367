//! End-to-end endpoint test: bind an ephemeral port, scrape the
//! routes over a raw `TcpStream`, and validate what comes back. This
//! is the timing-independent counterpart of the CI monitor-smoke leg.

use mlam_monitor::prometheus;
use mlam_monitor::{Monitor, Progress, ProgressSnapshot};
use mlam_telemetry::curves::{self, write_curves_jsonl};
use mlam_telemetry::{counter, counter_handle, CounterScope, CurveRecorder};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One HTTP GET against the monitor; returns (status line, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn endpoints_serve_metrics_progress_and_health() {
    let progress = Arc::new(Progress::new(13, false));
    let handle = Monitor::new("127.0.0.1:0")
        .progress(Arc::clone(&progress))
        .start()
        .expect("monitor binds an ephemeral port");
    let addr = handle.addr();

    // Health comes up immediately.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    // Every scrape snapshots the registry, so a counter bumped just
    // before it is already there.
    counter!("test.endpoint.queries", 42);
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    prometheus::validate(&text).expect("exposition must parse");
    assert!(text.contains("# TYPE mlam_test_endpoint_queries counter"));
    assert!(text.contains("\nmlam_test_endpoint_queries 42\n"));
    assert!(text.contains("mlam_monitor_scrapes_total"));
    assert!(text.contains("mlam_progress_total 13"));
    // Resident memory comes from the OS, wherever it reports it.
    if std::fs::read_to_string("/proc/self/status").is_ok() {
        let peak: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("mlam_process_resident_peak_bytes "))
            .expect("peak resident gauge present")
            .parse()
            .expect("peak resident gauge numeric");
        assert!(peak > 0, "peak resident bytes read 0");
    }

    // Progress JSON tracks completions and stays monotone.
    let (_, body) = get(addr, "/progress");
    let before: ProgressSnapshot = serde_json::from_str(body.trim()).expect("progress JSON");
    assert_eq!(before.total, 13);
    progress.complete_one();
    progress.complete_one();
    let (_, body) = get(addr, "/progress");
    let after: ProgressSnapshot = serde_json::from_str(body.trim()).expect("progress JSON");
    assert!(after.completed >= before.completed + 2);
    assert!(after.eta_s.is_some(), "ETA exists once something completed");

    // Unknown routes 404; non-GET requests are dropped without a hang.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    handle.shutdown();
    // The port is released: connecting now fails (give the OS a beat).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener should be closed after shutdown"
    );
}

/// The `/curves` body, and what `curves.jsonl` would hold if the run
/// finished now.
fn live_and_on_disk(addr: std::net::SocketAddr, recorder: &CurveRecorder) -> (String, String) {
    let (status, body) = get(addr, "/curves");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let mut file = Vec::new();
    write_curves_jsonl(&mut file, &recorder.series()).unwrap();
    (body, String::from_utf8(file).unwrap())
}

#[test]
fn curves_endpoint_serves_live_series() {
    // Without an attached recorder the endpoint answers an empty body.
    let bare = Monitor::new("127.0.0.1:0").start().expect("monitor binds");
    let (status, body) = get(bare.addr(), "/curves");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "");
    bare.shutdown();

    // With one, the body is the recorder's curves.jsonl lines, byte for
    // byte, at every moment: empty before the first checkpoint, then
    // each checkpoint as soon as it lands.
    let recorder = Arc::new(CurveRecorder::new());
    let handle = Monitor::new("127.0.0.1:0")
        .curves(Arc::clone(&recorder))
        .start()
        .expect("monitor binds");
    let addr = handle.addr();
    assert_eq!(
        live_and_on_disk(addr, &recorder),
        (String::new(), String::new())
    );
    let mut lines = 0;
    for (series, accuracies) in [
        ("table1_quick", [0.55, 0.7, 0.9]),
        ("spectral_quick", [0.5, 0.625, 0.75]),
    ] {
        let scope = CounterScope::new();
        let _counters = scope.enter();
        let _curves = curves::enter_series(series, Arc::clone(&recorder));
        for (iteration, acc) in (1u64..).zip(accuracies) {
            counter_handle("oracle.example_queries").add(8 * iteration);
            curves::checkpoint("perceptron", iteration, acc, None);
            lines += 1;
            let (live, on_disk) = live_and_on_disk(addr, &recorder);
            assert_eq!(live, on_disk);
            assert_eq!(live.lines().count(), lines);
        }
    }
    let (live, _) = live_and_on_disk(addr, &recorder);
    assert!(
        live.contains(
            r#""series":"spectral_quick","label":"perceptron","iteration":3,"queries":48,"#
        ),
        "{live}"
    );
    handle.shutdown();
}

#[test]
fn scrapes_are_counted_and_concurrent_scrapes_survive() {
    let handle = Monitor::new("127.0.0.1:0").start().expect("monitor binds");
    let addr = handle.addr();
    // Hammer the endpoint from several threads; every response must be
    // a complete, valid exposition.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                for _ in 0..5 {
                    let (status, body) = get(addr, "/metrics");
                    assert_eq!(status, "HTTP/1.1 200 OK");
                    prometheus::validate(&body).expect("valid under load");
                }
            });
        }
    });
    let (_, body) = get(addr, "/metrics");
    let scrapes: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("mlam_monitor_scrapes_total "))
        .expect("scrape counter present")
        .parse()
        .expect("scrape counter numeric");
    assert!(scrapes >= 21, "20 hammered + this one, got {scrapes}");
    handle.shutdown();
}
