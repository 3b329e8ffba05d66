//! Process-level end-to-end test: a real server on an ephemeral port,
//! exercised over raw [`TcpStream`]s exactly as an external client would —
//! including the acceptance scenarios: consistent answers during a
//! snapshot swap, cache hits visible in `/metrics`, and a deadline that
//! errors cleanly with the worker staying usable.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pcover_graph::examples::figure1_ids;
use pcover_serve::{Server, ServerConfig};

/// Issues one request and returns `(status code, body)`. One connection
/// per request, `Connection: close` — matching the server's model.
fn request(addr: std::net::SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn get_json(addr: std::net::SocketAddr, target: &str) -> (u16, serde_json::Value) {
    let (status, body) = request(addr, "GET", target, "");
    let value = serde_json::from_str(&body)
        .unwrap_or_else(|e| panic!("non-JSON body for {target}: {e}\n{body}"));
    (status, value)
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing field '{key}' in {v}"))
}

fn uint(v: &serde_json::Value, key: &str) -> u64 {
    field(v, key)
        .as_u64()
        .unwrap_or_else(|| panic!("field '{key}' is not an integer in {v}"))
}

fn text(v: &serde_json::Value, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("field '{key}' is not a string in {v}"))
        .to_owned()
}

fn cover_of(v: &serde_json::Value) -> f64 {
    field(v, "cover").as_f64().expect("cover is a number")
}

fn order_of(v: &serde_json::Value) -> Vec<u64> {
    field(v, "order")
        .as_array()
        .expect("order is an array")
        .iter()
        .map(|id| id.as_u64().expect("item id"))
        .collect()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_capacity: 64,
        cache_capacity: 32,
        default_deadline: None,
        read_timeout: Duration::from_secs(5),
        idle_timeout: Duration::from_secs(5),
        max_requests_per_connection: 1000,
    }
}

fn start_server() -> pcover_serve::ServerHandle {
    let (graph, _) = figure1_ids();
    Server::start(graph, test_config()).expect("server starts")
}

fn start_server_with(config: ServerConfig) -> pcover_serve::ServerHandle {
    let (graph, _) = figure1_ids();
    Server::start(graph, config).expect("server starts")
}

/// A persistent client connection: sends requests with
/// `Connection: keep-alive` and reads `Content-Length`-framed responses
/// one at a time, so several can ride the same TCP stream.
struct KeepAliveConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveConn {
    fn open(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
        self.stream.flush().expect("flush");
    }

    fn send(&mut self, method: &str, target: &str, body: &str) {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        self.send_raw(&[head.as_bytes(), body.as_bytes()].concat());
    }

    /// Reads exactly one response; returns `(status, head text, body)`.
    fn read_response(&mut self) -> (u16, String, String) {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "connection closed while a response was expected");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end - 4]).into_owned();
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let content_length: usize = head
            .split("\r\n")
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("content-length"))
            })
            .expect("every response must carry Content-Length");
        while self.buf.len() < head_end + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body =
            String::from_utf8_lossy(&self.buf[head_end..head_end + content_length]).into_owned();
        self.buf.drain(..head_end + content_length);
        (status, head, body)
    }

    fn get_json(&mut self, target: &str) -> (u16, serde_json::Value) {
        self.send("GET", target, "");
        let (status, _, body) = self.read_response();
        let value = serde_json::from_str(&body)
            .unwrap_or_else(|e| panic!("non-JSON body for {target}: {e}\n{body}"));
        (status, value)
    }

    /// True once the server has hung up (clean EOF, no stray bytes).
    fn at_eof(&mut self) -> bool {
        let mut probe = [0u8; 64];
        match self.stream.read(&mut probe) {
            Ok(0) => true,
            Ok(n) => panic!(
                "expected EOF, got {n} stray bytes: {:?}",
                String::from_utf8_lossy(&probe[..n])
            ),
            Err(e) => panic!("expected clean EOF, got error: {e}"),
        }
    }
}

fn says_close(head: &str) -> bool {
    head.split("\r\n").any(|l| {
        l.split_once(':').is_some_and(|(name, value)| {
            name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
        })
    })
}

#[test]
fn end_to_end_solve_cache_swap_deadline_and_shutdown() {
    let handle = start_server();
    let addr = handle.addr();

    // --- healthz ---------------------------------------------------------
    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(uint(&health, "generation"), 1);
    assert_eq!(text(&health, "status"), "ok");

    // --- solve: miss, then exact hit, then prefix hit --------------------
    let (status, first) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200, "{first}");
    assert_eq!(uint(&first, "generation"), 1);
    assert_eq!(text(&first, "cache"), "miss");
    // Figure 1: greedy/lazy picks B (id 1) then D (id 3), cover 0.873.
    assert_eq!(order_of(&first), vec![1, 3]);
    assert!((cover_of(&first) - 0.873).abs() < 1e-9);

    let (status, second) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200);
    assert_eq!(
        text(&second, "cache"),
        "hit",
        "repeated /solve must hit the cache"
    );
    assert!((cover_of(&second) - cover_of(&first)).abs() < 1e-15);

    let (status, smaller) = get_json(addr, "/solve?k=1");
    assert_eq!(status, 200);
    assert_eq!(
        text(&smaller, "cache"),
        "prefix",
        "k=1 must ride the cached k=2 trajectory"
    );
    assert_eq!(order_of(&smaller), vec![1]);

    // --- cover and minimize ride the same trajectory ---------------------
    let (status, cover) = get_json(addr, "/cover?k=2");
    assert_eq!(status, 200);
    assert!((cover_of(&cover) - cover_of(&first)).abs() < 1e-15);

    let (status, minimized) = get_json(addr, "/minimize?threshold=0.8");
    assert_eq!(status, 200, "{minimized}");
    assert_eq!(
        uint(&minimized, "k"),
        2,
        "cover 0.873 >= 0.8 needs exactly B and D"
    );
    assert!(cover_of(&minimized) >= 0.8);

    // Cache-hit counters are visible in /metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let hit_line = metrics
        .lines()
        .find(|l| l.starts_with("cache_hits "))
        .expect("cache_hits metric");
    let hits: u64 = hit_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("cache_hits value");
    assert!(hits >= 1, "repeated /solve must be counted: {hit_line}");
    assert!(metrics.contains("snapshot_generation 1"));
    assert!(metrics.contains("queue_capacity 64"));
    assert!(metrics.contains("endpoint_solve_latency_ms_le_inf"));
    // Sub-millisecond buckets make p999 resolvable for cache-hit traffic.
    assert!(metrics.contains("endpoint_solve_latency_ms_le_0.05"));
    assert!(metrics.contains("endpoint_solve_latency_ms_le_0.5"));
    // Connection and coalescing accounting are part of the surface.
    assert!(metric_value(&metrics, "connections_total") >= 1);
    assert!(metrics.contains("keepalive_reuse_total"));
    assert!(metrics.contains("coalesced_hits"));
    assert!(metrics.contains("inflight_solves"));

    // --- deadline: clean error, worker reusable afterward ----------------
    let (status, timed_out) = get_json(addr, "/solve?k=2&deadline_ms=0&seed=7");
    assert_eq!(status, 504, "exceeded deadline must be 504: {timed_out}");
    assert!(text(&timed_out, "error").contains("deadline"));
    let (status, after) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200, "worker must be reusable after a deadline");
    assert!((cover_of(&after) - cover_of(&first)).abs() < 1e-15);

    // --- bad input paths --------------------------------------------------
    assert_eq!(get_json(addr, "/solve").0, 400, "missing k");
    // A deleted solver's name is as unknown as any other.
    for algorithm in ["quantum", "partitioned"] {
        let (status, unknown) = get_json(addr, &format!("/solve?k=2&algorithm={algorithm}"));
        assert_eq!(status, 400, "{algorithm}: {unknown}");
        assert!(text(&unknown, "error").contains(algorithm), "{unknown}");
    }
    // `threads` is bounded at parse time, before any pool exists for the
    // count. The bound itself is checked on `lazy`, which builds no pool.
    for threads in ["0", "65", "18446744073709551615"] {
        let target = format!("/solve?k=2&algorithm=parallel&threads={threads}");
        let (status, bad) = get_json(addr, &target);
        assert_eq!(status, 400, "threads={threads}: {bad}");
        assert!(text(&bad, "error").contains("1..=64"), "{bad}");
    }
    let (status, bounded) = get_json(addr, "/solve?k=2&threads=64");
    assert_eq!(status, 200, "threads at the bound is accepted: {bounded}");
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "DELETE", "/solve?k=2", "").0, 405);

    // --- concurrent queries during a snapshot swap -----------------------
    // Readers hammer /solve while the main thread applies a delta that
    // delists D (greedy's second pick). Every response must be internally
    // consistent: generation 1 answers carry the generation-1 cover,
    // generation 2 answers the generation-2 cover — never a mix.
    let gen1_cover = cover_of(&first);
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                (0..25)
                    .map(|_| get_json(addr, "/solve?k=2"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let delta = r#"{"changes":[{"Delist":{"node":3}}]}"#;
    let (status, swapped) = request(addr, "POST", "/admin/delta", delta);
    assert_eq!(status, 200, "{swapped}");
    let swapped: serde_json::Value = serde_json::from_str(&swapped).expect("delta response");
    assert_eq!(
        uint(&swapped, "generation"),
        2,
        "delta must bump the generation"
    );

    // The post-swap answer defines the generation-2 expectation. (The
    // cache tag is unasserted here: a concurrent reader may already have
    // populated generation 2 — invalidation is proven race-free below.)
    let (status, gen2) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200);
    assert_eq!(uint(&gen2, "generation"), 2);
    let gen2_cover = cover_of(&gen2);
    assert!(
        (gen2_cover - gen1_cover).abs() > 1e-6,
        "delisting greedy's second pick must change the optimum"
    );

    for reader in readers {
        for (status, resp) in reader.join().expect("reader thread") {
            assert_eq!(status, 200, "{resp}");
            let expected = match uint(&resp, "generation") {
                1 => gen1_cover,
                2 => gen2_cover,
                g => panic!("impossible generation {g}"),
            };
            assert!(
                (cover_of(&resp) - expected).abs() < 1e-15,
                "mixed-generation answer: {resp}"
            );
        }
    }

    // Generation 2 answers are cached like any other.
    let (_, again) = get_json(addr, "/solve?k=2");
    assert_eq!(text(&again, "cache"), "hit");

    // With no concurrent traffic: a swap invalidates the cached answer for
    // the *same* query — the next solve is a miss on the new generation.
    let delta2 = r#"{"changes":[{"SetNodeWeight":{"node":4,"weight":0.5}}]}"#;
    let (status, swapped2) = request(addr, "POST", "/admin/delta", delta2);
    assert_eq!(status, 200, "{swapped2}");
    let (status, gen3) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200);
    assert_eq!(uint(&gen3, "generation"), 3);
    assert_eq!(
        text(&gen3, "cache"),
        "miss",
        "the swap must invalidate cached answers from older generations"
    );

    // --- graceful shutdown ------------------------------------------------
    let (status, bye) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "{bye}");
    handle.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be gone after shutdown"
    );
}

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("missing metric '{name}' in:\n{metrics}"))
}

#[test]
fn warm_resolve_after_swap_matches_a_cold_server_byte_for_byte() {
    let warm_srv = start_server();
    let cold_srv = start_server();
    let wa = warm_srv.addr();
    let ca = cold_srv.addr();

    // Seed the warm server's cache with a full-budget delta-greedy solve on
    // generation 1; its order + round-0 gains become the warm state.
    let (status, seeded) = get_json(wa, "/solve?k=5&algorithm=delta");
    assert_eq!(status, 200, "{seeded}");
    assert_eq!(text(&seeded, "cache"), "miss");

    // Apply the same edge-only delta to both servers (reweights A→B; no
    // node-weight renormalization, so the warm state's weights stay valid).
    let delta = r#"{"changes":[{"UpsertEdge":{"source":0,"target":1,"weight":0.25}}]}"#;
    assert_eq!(request(wa, "POST", "/admin/delta", delta).0, 200);
    assert_eq!(request(ca, "POST", "/admin/delta", delta).0, 200);

    // Warm server repairs the harvested state; cold server solves fresh.
    let (status, warm) = get_json(wa, "/solve?k=5&algorithm=delta");
    assert_eq!(status, 200, "{warm}");
    assert_eq!(uint(&warm, "generation"), 2);
    assert_eq!(
        text(&warm, "cache"),
        "warm",
        "post-swap delta-greedy solve must repair the warm state"
    );
    let (status, cold) = get_json(ca, "/solve?k=5&algorithm=delta");
    assert_eq!(status, 200, "{cold}");
    assert_eq!(uint(&cold, "generation"), 2);
    assert_eq!(text(&cold, "cache"), "miss");

    // Byte-for-byte equality of the re-serialized answer fields: JSON float
    // printing is shortest-roundtrip, so equal strings mean equal f64 bits.
    for key in ["cover", "order", "variant", "k"] {
        assert_eq!(
            serde_json::to_string(field(&warm, key)).expect("serializable"),
            serde_json::to_string(field(&cold, key)).expect("serializable"),
            "warm and cold must agree byte-for-byte on '{key}'"
        );
    }

    // The repair is visible in /metrics, and every round is accounted for.
    let (_, metrics) = request(wa, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "warm_start_hits"), 1);
    assert_eq!(
        metric_value(&metrics, "warm_rounds_reused")
            + metric_value(&metrics, "warm_rounds_repaired"),
        5,
        "reused + repaired must cover all k rounds"
    );

    // A bitwise no-op delta (same edge, same weight) migrates the cache
    // instead of dropping it: the same query stays an exact hit afterward.
    let noop = r#"{"changes":[{"UpsertEdge":{"source":0,"target":1,"weight":0.25}}]}"#;
    assert_eq!(request(wa, "POST", "/admin/delta", noop).0, 200);
    let (status, carried) = get_json(wa, "/solve?k=5&algorithm=delta");
    assert_eq!(status, 200, "{carried}");
    assert_eq!(uint(&carried, "generation"), 3);
    assert_eq!(
        text(&carried, "cache"),
        "hit",
        "identity swap must carry cached answers across the generation"
    );
    let (_, metrics) = request(wa, "GET", "/metrics", "");
    assert!(
        metric_value(&metrics, "cache_survived_swap") >= 1,
        "{metrics}"
    );

    warm_srv.shutdown();
    warm_srv.join();
    cold_srv.shutdown();
    cold_srv.join();
}

#[test]
fn shutdown_via_handle_drains_and_joins() {
    let handle = start_server();
    let addr = handle.addr();
    assert_eq!(get_json(addr, "/healthz").0, 200);
    handle.shutdown();
    handle.join();
}

#[test]
fn keep_alive_serves_pipelined_and_sequential_requests_on_one_connection() {
    let handle = start_server();
    let addr = handle.addr();
    let mut conn = KeepAliveConn::open(addr);

    // Two requests pipelined back-to-back in a single write: the server
    // must answer both, in order, on the same connection — the second is
    // parsed out of bytes already buffered by the first read.
    conn.send_raw(
        b"GET /solve?k=2 HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n\
          GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    );
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(!says_close(&head), "keep-alive response must not close");
    assert!(
        body.contains("\"order\""),
        "first answer is the solve: {body}"
    );
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200);
    assert!(
        body.contains("\"status\""),
        "second answer is healthz: {body}"
    );

    // A third, separate request still rides the same connection.
    let (status, health) = conn.get_json("/healthz");
    assert_eq!(status, 200);
    assert_eq!(text(&health, "status"), "ok");

    // The reuse is visible in /metrics: one connection, several requests.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metric_value(&metrics, "keepalive_reuse_total") >= 2,
        "{metrics}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_request_after_a_good_one_gets_400_then_close() {
    let handle = start_server();
    let mut conn = KeepAliveConn::open(handle.addr());
    let (status, _, _) = {
        conn.send("GET", "/healthz", "");
        conn.read_response()
    };
    assert_eq!(status, 200);

    // Garbage where the next request line should be: the server must
    // answer 400 with exact framing and then hang up — resynchronizing
    // a corrupted stream is not possible.
    conn.send_raw(b"NOT A REQUEST\r\n\r\n");
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 400, "{body}");
    assert!(
        says_close(&head),
        "a malformed request forces Connection: close"
    );
    assert!(conn.at_eof(), "server must close after a malformed request");
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_keep_alive_connection_is_hung_up_after_the_idle_timeout() {
    let handle = start_server_with(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..test_config()
    });
    let mut conn = KeepAliveConn::open(handle.addr());
    conn.send("GET", "/healthz", "");
    assert_eq!(conn.read_response().0, 200);

    // Stay quiet past the idle timeout: the worker hangs up silently (no
    // response bytes — there is no request to answer) and moves on.
    std::thread::sleep(Duration::from_millis(600));
    assert!(conn.at_eof(), "idle connection must be disconnected");

    // The worker that hung up is immediately reusable.
    let (status, _) = get_json(handle.addr(), "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
    handle.join();
}

#[test]
fn requests_per_connection_cap_closes_after_the_final_response() {
    let handle = start_server_with(ServerConfig {
        max_requests_per_connection: 2,
        ..test_config()
    });
    let mut conn = KeepAliveConn::open(handle.addr());
    conn.send("GET", "/healthz", "");
    let (status, head, _) = conn.read_response();
    assert_eq!(status, 200);
    assert!(!says_close(&head), "first response keeps the connection");

    conn.send("GET", "/healthz", "");
    let (status, head, _) = conn.read_response();
    assert_eq!(status, 200);
    assert!(
        says_close(&head),
        "the cap'th response must announce Connection: close"
    );
    assert!(conn.at_eof(), "server must close once the cap is reached");
    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_body_gets_413_with_exact_framing() {
    let handle = start_server();
    let mut conn = KeepAliveConn::open(handle.addr());
    // Announce a body beyond the 4 MiB cap; the server must refuse from
    // the head alone without waiting for (or reading) the body.
    conn.send_raw(
        b"POST /admin/delta HTTP/1.1\r\nHost: t\r\nContent-Length: 5000000\r\nConnection: keep-alive\r\n\r\n",
    );
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 413, "{body}");
    assert!(says_close(&head), "oversize requests force a close");
    let len: usize = head
        .split("\r\n")
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header");
    assert_eq!(len, body.len(), "framing must be byte-exact");
    assert!(conn.at_eof());
    handle.shutdown();
    handle.join();
}

#[test]
fn snapshot_swap_races_open_persistent_connections_consistently() {
    let handle = start_server();
    let addr = handle.addr();

    let (status, first) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200, "{first}");
    let gen1_cover = cover_of(&first);

    // Persistent connections hammer /solve while the main thread swaps the
    // snapshot underneath them. Each response must be internally
    // consistent — generation and cover always agree — and the connection
    // itself must survive the swap.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = KeepAliveConn::open(addr);
                (0..25)
                    .map(|_| conn.get_json("/solve?k=2"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let delta = r#"{"changes":[{"Delist":{"node":3}}]}"#;
    let (status, swapped) = request(addr, "POST", "/admin/delta", delta);
    assert_eq!(status, 200, "{swapped}");

    let (status, gen2) = get_json(addr, "/solve?k=2");
    assert_eq!(status, 200);
    assert_eq!(uint(&gen2, "generation"), 2);
    let gen2_cover = cover_of(&gen2);

    for reader in readers {
        for (status, resp) in reader.join().expect("reader thread") {
            assert_eq!(status, 200, "{resp}");
            let expected = match uint(&resp, "generation") {
                1 => gen1_cover,
                2 => gen2_cover,
                g => panic!("impossible generation {g}"),
            };
            assert!(
                (cover_of(&resp) - expected).abs() < 1e-15,
                "mixed-generation answer on a persistent connection: {resp}"
            );
        }
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_identical_solves_coalesce_into_one_run() {
    // A graph big enough that one solve takes tens of milliseconds in
    // release (seconds in debug, still inside the client's 10 s read
    // timeout) — plenty of window for every racer to arrive while the
    // leader is still computing.
    let graph =
        pcover_datagen::graphgen::generate_graph(&pcover_datagen::graphgen::GraphGenConfig {
            nodes: 10_000,
            avg_out_degree: 8,
            popularity_exponent: 1.0,
            locality: 16,
            normalized: false,
            seed: 42,
        })
        .expect("generated graph");
    let handle = Server::start(
        graph,
        ServerConfig {
            workers: 8,
            ..test_config()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    const RACERS: usize = 8;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(RACERS));
    let racers: Vec<_> = (0..RACERS)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Connect first so the race is over request handling, not
                // connection setup, then fire simultaneously.
                let mut conn = KeepAliveConn::open(addr);
                barrier.wait();
                let (status, resp) = conn.get_json("/solve?k=150&algorithm=greedy");
                assert_eq!(status, 200, "{resp}");
                text(&resp, "cache")
            })
        })
        .collect();
    let outcomes: Vec<String> = racers
        .into_iter()
        .map(|r| r.join().expect("racer"))
        .collect();

    let misses = outcomes.iter().filter(|o| *o == "miss").count();
    let coalesced = outcomes.iter().filter(|o| *o == "coalesced").count();
    assert_eq!(
        (misses, coalesced),
        (1, RACERS - 1),
        "exactly one solve, everyone else coalesces: {outcomes:?}"
    );

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "cache_misses"), 1, "{metrics}");
    assert_eq!(
        metric_value(&metrics, "coalesced_hits"),
        (RACERS - 1) as u64,
        "{metrics}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn minimize_full_solve_seeds_the_cache_for_solve() {
    let handle = start_server();
    let addr = handle.addr();
    // /minimize runs a full-budget (k = n) lazy solve…
    let (status, min) = get_json(addr, "/minimize?threshold=0.99");
    assert_eq!(status, 200, "{min}");
    // …whose trajectory then answers any /solve for free.
    let (status, solved) = get_json(addr, "/solve?k=3");
    assert_eq!(status, 200);
    assert_eq!(
        text(&solved, "cache"),
        "prefix",
        "minimize's full trajectory must serve /solve k=3"
    );
    handle.shutdown();
    handle.join();
}
