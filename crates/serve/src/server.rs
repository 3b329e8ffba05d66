//! The server: accept loop, bounded work queue with load shedding, worker
//! pool, keep-alive request loop, request routing through the serve memo,
//! and graceful shutdown.
//!
//! Shape: one acceptor thread pushes connections into a bounded
//! [`WorkQueue`]; `workers` threads pop a connection each and serve it
//! with an HTTP/1.1 keep-alive loop — many requests per connection,
//! bounded by [`ServerConfig::max_requests_per_connection`] and an
//! [`ServerConfig::idle_timeout`] between requests, honoring the
//! client's `Connection: close`/`keep-alive` preference. Steady-state
//! request handling allocates nothing: the response head renders into a
//! per-worker buffer and request bytes land in a per-worker
//! [`ConnBuffer`], both reused across connections.
//!
//! Every solve goes through the [`Memo`]: ready reports answer exact and
//! prefix hits, concurrent identical solves coalesce (the first arrival
//! computes, the rest park and share the one result — `coalesced_hits` in
//! `/metrics`), and the leader repairs a warm state when the lineage has
//! one.
//!
//! When the queue is full the *acceptor* answers 503 immediately —
//! shedding costs a constant amount of work no matter how slow the
//! solvers are. Shutdown (via [`ServerHandle::shutdown`] or
//! `POST /admin/shutdown`) flips a flag, closes the queue and the
//! memo, and drains: already-queued requests are still
//! answered, new ones get 503.
//! Everything is in-band `std::net` — the workspace forbids `unsafe`, so
//! there is no signal handler; process managers should use the admin
//! endpoint (or just SIGKILL, which is safe: the graph is immutable on
//! disk and all serving state is in memory).

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcover_core::{
    Observer, Registry, SolveCtx, SolveError, SolveReport, SolverConfig, SolverSpec, Variant,
};
use pcover_graph::delta::GraphDelta;
use pcover_graph::PreferenceGraph;

use crate::http::{write_json, write_response, ConnBuffer, HttpError, Request, Status};
use crate::memo::{CacheOutcome, Lineage, Lookup, Memo};
use crate::metrics::Metrics;
use crate::queue::WorkQueue;
use crate::snapshot::SnapshotManager;

/// Tunables for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue capacity; connections beyond it are shed with 503.
    pub queue_capacity: usize,
    /// Memo capacity: at most this many cached reports and this many warm
    /// lineages (0 disables both).
    pub cache_capacity: usize,
    /// Default per-request wall-clock deadline; `None` means no deadline
    /// unless the request carries `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Socket read timeout while a request is being received (guards
    /// against stalled clients mid-request).
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the worker hangs up and moves on.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it (the
    /// final response says `Connection: close`); values below 1 behave
    /// as 1.
    pub max_requests_per_connection: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline: None,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
        }
    }
}

/// State shared by the acceptor, the workers, and the handle.
struct AppState {
    registry: Registry,
    snapshots: SnapshotManager,
    memo: Memo,
    metrics: Metrics,
    queue: WorkQueue<TcpStream>,
    shutdown: AtomicBool,
    config: ServerConfig,
    local_addr: SocketAddr,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or hit `POST /admin/shutdown`) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    state: Arc<AppState>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.state.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// The service entry point.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns immediately.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn start(graph: PreferenceGraph, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(
            config
                .addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?,
        )?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(AppState {
            registry: Registry::builtin(),
            snapshots: SnapshotManager::new(graph),
            memo: Memo::new(config.cache_capacity),
            metrics: Metrics::default(),
            queue: WorkQueue::new(config.queue_capacity),
            shutdown: AtomicBool::new(false),
            config,
            local_addr,
        });

        // Pre-warm the process-wide rayon pool the parallel solvers use at
        // the default thread count, so the first request that dispatches a
        // pool-backed solver never pays pool construction on the hot path
        // (subsequent solves at the same count reuse the cached pool).
        let _ = pcover_core::pool::shared_pool(SolverConfig::default().threads);

        let workers = (0..state.config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("pcover-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("pcover-serve-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, &state))?
        };

        Ok(ServerHandle {
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// Like [`start`](Self::start) but loads the graph from a file first:
    /// a `.pcov` container (instant cold-start — the CSR is mmapped, not
    /// re-parsed) or a JSON graph. Returns the handle plus the load path
    /// used (`"mmap"`, `"pread"` or `"json"`).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] for bind failures and for unreadable or corrupt
    /// graph files (store errors are wrapped).
    pub fn start_from_path(
        path: &std::path::Path,
        config: ServerConfig,
    ) -> std::io::Result<(ServerHandle, &'static str)> {
        let (graph, how) = pcover_store::read_graph_auto(path, pcover_store::OpenMode::Auto)
            .map_err(std::io::Error::other)?;
        let handle = Self::start(graph, config)?;
        Ok((handle, how))
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.state.snapshots.generation()
    }

    /// Signals shutdown: the queue closes (draining what is queued) and the
    /// acceptor stops. Idempotent; does not block — follow with
    /// [`ServerHandle::join`].
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
    }

    /// Waits for the acceptor and every worker to finish. Call after
    /// [`ServerHandle::shutdown`] (or after something hit the admin
    /// endpoint), otherwise this blocks for the server's lifetime.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Flips the shutdown flag, closes the queue and the memo, and pokes the
/// acceptor loose with a throwaway connection to its own socket.
fn request_shutdown(state: &AppState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    state.queue.close();
    // Parked memo waiters wake and solve for themselves, so the drain
    // cannot strand a request behind a leader that never returns.
    state.memo.close();
    // Unblock the acceptor's blocking `accept` — a connect that may
    // legitimately fail if the acceptor already exited.
    let _ = TcpStream::connect_timeout(&state.local_addr, Duration::from_millis(250));
}

fn accept_loop(listener: &TcpListener, state: &AppState) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(state.config.read_timeout));
        let _ = stream.set_nodelay(true);
        if let Err(mut rejected) = state.queue.push(stream) {
            state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .queue_shed_total
                .fetch_add(1, Ordering::Relaxed);
            // Shedding is the slow path by definition; a stack-local head
            // buffer here keeps the acceptor free of worker state.
            let mut head_buf = Vec::new();
            let _ = write_json(
                &mut rejected,
                &mut head_buf,
                Status::Unavailable,
                true,
                "{\"error\":\"overloaded: request queue full\"}",
            );
        }
    }
}

fn worker_loop(state: &AppState) {
    // One response-head buffer per worker, reused across every request
    // this worker answers (see `http::write_response`).
    // lint: allow(alloc-per-request) — allocated once per worker before the request loop: this IS the reuse buffer
    let mut head_buf = Vec::with_capacity(128);
    // One connection read buffer per worker, reused across connections and
    // requests alike (zero-capacity until the first request grows it, so
    // this is not a per-request allocation either).
    let mut conn = ConnBuffer::new();
    while let Some(mut stream) = state.queue.pop() {
        handle_connection(&mut stream, state, &mut head_buf, &mut conn);
    }
}

/// The keep-alive request loop: serve requests off one connection until
/// the client asks to close (or hangs up), the per-connection request cap
/// is reached, the idle timeout fires between requests, or the server
/// starts shutting down. A malformed or oversized request is answered
/// (400/413, `Connection: close`) and the connection dropped — the stream
/// can no longer be trusted to be framed.
fn handle_connection(
    stream: &mut TcpStream,
    state: &AppState,
    head_buf: &mut Vec<u8>,
    conn: &mut ConnBuffer,
) {
    conn.reset();
    state
        .metrics
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    let cap = state.config.max_requests_per_connection.max(1);
    let mut served = 0usize;
    loop {
        if served == 1 {
            // From the second request on, the socket waits at most the
            // idle timeout between requests; a timeout surfaces as
            // `HttpError::Io` below and closes quietly. Set once per
            // connection — it is a syscall, and the keep-alive loop is
            // the hot path.
            let _ = stream.set_read_timeout(Some(state.config.idle_timeout));
        }
        let request = match conn.read_request(stream) {
            Ok(r) => r,
            // Client went away (clean EOF, reset, or idle/read timeout);
            // nothing to answer.
            Err(HttpError::Io(_) | HttpError::Closed) => return,
            Err(e) => {
                state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                state
                    .metrics
                    .bad_request_total
                    .fetch_add(1, Ordering::Relaxed);
                let status = match e {
                    HttpError::TooLarge(_) => Status::PayloadTooLarge,
                    _ => Status::BadRequest,
                };
                let body = serde_json::json!({ "error": e.to_string() }).to_string();
                let _ = write_json(stream, head_buf, status, true, &body);
                return;
            }
        };
        served += 1;
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        if served > 1 {
            state
                .metrics
                .keepalive_reuse_total
                .fetch_add(1, Ordering::Relaxed);
        }
        // Decide the connection's fate *before* answering so the response
        // can carry the truthful `Connection:` disposition.
        let close = !request.keep_alive || served >= cap || state.shutdown.load(Ordering::SeqCst);
        if route(stream, &request, state, head_buf, close) || close {
            return;
        }
    }
}

/// Routes one request. `close` is the connection disposition every
/// response must carry. Returns `true` when the connection must close
/// regardless of `close` (the shutdown endpoint was hit).
fn route(
    stream: &mut TcpStream,
    req: &Request,
    state: &AppState,
    head_buf: &mut Vec<u8>,
    close: bool,
) -> bool {
    let started = Instant::now();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = serde_json::json!({
                "status": "ok",
                "generation": state.snapshots.generation(),
            })
            .to_string();
            let _ = write_json(stream, head_buf, Status::Ok, close, &body);
        }
        ("GET", "/metrics") => {
            let mut text = state.metrics.render();
            use std::fmt::Write;
            let _ = writeln!(text, "snapshot_generation {}", state.snapshots.generation());
            let _ = writeln!(text, "queue_depth {}", state.queue.depth());
            let _ = writeln!(text, "queue_capacity {}", state.config.queue_capacity);
            let memo = state.memo.stats();
            let _ = writeln!(text, "cache_entries {}", memo.reports);
            let _ = writeln!(text, "cache_evictions {}", memo.evictions);
            let _ = writeln!(text, "warm_states {}", memo.warm_states);
            let _ = writeln!(text, "inflight_solves {}", memo.in_flight);
            let _ = writeln!(text, "workers {}", state.config.workers);
            let _ = write_response(
                stream,
                head_buf,
                Status::Ok,
                "text/plain; charset=utf-8",
                close,
                text.as_bytes(),
            );
        }
        ("GET", "/solve") => {
            let outcome = solve_endpoint(req, state, SolveMode::Full);
            state.metrics.solve.observe(started.elapsed());
            respond(stream, head_buf, close, outcome);
        }
        ("GET", "/cover") => {
            let outcome = solve_endpoint(req, state, SolveMode::CoverOnly);
            state.metrics.cover.observe(started.elapsed());
            respond(stream, head_buf, close, outcome);
        }
        ("GET", "/minimize") => {
            let outcome = minimize_endpoint(req, state);
            state.metrics.minimize.observe(started.elapsed());
            respond(stream, head_buf, close, outcome);
        }
        ("POST", "/admin/delta") => {
            let outcome = delta_endpoint(req, state);
            state.metrics.delta.observe(started.elapsed());
            respond(stream, head_buf, close, outcome);
        }
        ("POST", "/admin/shutdown") => {
            let _ = write_json(
                stream,
                head_buf,
                Status::Ok,
                true,
                "{\"status\":\"shutting down\"}",
            );
            request_shutdown(state);
            return true;
        }
        (
            _,
            "/healthz" | "/metrics" | "/solve" | "/cover" | "/minimize" | "/admin/delta"
            | "/admin/shutdown",
        ) => {
            let _ = write_json(
                stream,
                head_buf,
                Status::MethodNotAllowed,
                close,
                "{\"error\":\"method not allowed\"}",
            );
        }
        _ => {
            let _ = write_json(
                stream,
                head_buf,
                Status::NotFound,
                close,
                "{\"error\":\"no such endpoint\"}",
            );
        }
    }
    false
}

fn respond(
    stream: &mut TcpStream,
    head_buf: &mut Vec<u8>,
    close: bool,
    outcome: Result<String, (Status, String)>,
) {
    match outcome {
        Ok(body) => {
            let _ = write_json(stream, head_buf, Status::Ok, close, &body);
        }
        Err((status, message)) => {
            let body = serde_json::json!({ "error": message }).to_string();
            let _ = write_json(stream, head_buf, status, close, &body);
        }
    }
}

/// An [`Observer`] that cancels the solve once a wall-clock deadline
/// passes; polled by the harness between rounds (and on solver entry).
#[derive(Debug)]
pub struct DeadlineObserver {
    deadline: Instant,
}

impl DeadlineObserver {
    /// Cancels any solve still running at `deadline`.
    pub fn new(deadline: Instant) -> Self {
        Self { deadline }
    }
}

impl Observer for DeadlineObserver {
    fn cancelled(&mut self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// What `/solve`-family endpoints return.
enum SolveMode {
    /// Full report: order + cover.
    Full,
    /// Just the cover value (cheaper response for dashboards).
    CoverOnly,
}

/// The largest `threads` a client may ask for. The shared pool cache
/// keeps one pool per distinct count for the life of the process, so an
/// unbounded value would let a client grow it (and, with real rayon, the
/// process's thread count) one request at a time.
const MAX_THREADS: usize = 64;

struct SolveParams<'r> {
    spec: &'r SolverSpec,
    variant: Variant,
    config: SolverConfig,
    deadline: Option<Duration>,
}

fn parse_common<'r>(
    req: &Request,
    state: &'r AppState,
) -> Result<SolveParams<'r>, (Status, String)> {
    let solver = req.param("algorithm").unwrap_or("lazy");
    let spec = state.registry.get(solver).ok_or_else(|| {
        (
            Status::BadRequest,
            state.registry.unknown_algorithm_message(solver),
        )
    })?;
    let variant = match req.param("variant") {
        None => Variant::Normalized,
        Some(s) => Variant::parse(s)
            .ok_or_else(|| (Status::BadRequest, format!("unknown variant '{s}'")))?,
    };
    let mut config = SolverConfig::default();
    if let Some(s) = req.param("seed") {
        config.seed = s
            .parse()
            .map_err(|_| (Status::BadRequest, format!("bad seed '{s}'")))?;
    }
    if let Some(s) = req.param("threads") {
        config.threads = s
            .parse()
            .ok()
            .filter(|t| (1..=MAX_THREADS).contains(t))
            .ok_or_else(|| {
                (
                    Status::BadRequest,
                    format!("bad threads '{s}': expected 1..={MAX_THREADS}"),
                )
            })?;
    }
    if let Some(s) = req.param("epsilon") {
        let eps: f64 = s
            .parse()
            .map_err(|_| (Status::BadRequest, format!("bad epsilon '{s}'")))?;
        config.epsilon = Some(eps);
    }
    let deadline = match req.param("deadline_ms") {
        Some(s) => {
            let ms: u64 = s
                .parse()
                .map_err(|_| (Status::BadRequest, format!("bad deadline_ms '{s}'")))?;
            Some(Duration::from_millis(ms))
        }
        None => state.config.default_deadline,
    };
    Ok(SolveParams {
        spec,
        variant,
        config,
        deadline,
    })
}

/// Answers one solve against the current snapshot through the [`Memo`].
/// Returns the usable report, the generation it belongs to, and how it was
/// obtained. The snapshot `Arc` is held for the whole solve, so a swap
/// mid-solve cannot mix generations.
///
/// A ready report answers at once (exact or prefix hit), and a running
/// solve of the same `(generation, k, deadline)` key is joined (N racing
/// identical requests cost 1 solve, not N). Otherwise this request leads:
/// it repairs the lineage's warm state when there is one — strictly fewer
/// gain recomputations, bit-identical answer; any repair error other than
/// a deadline falls back to the cold solve — and publishes the result to
/// the memo and every parked follower. A lineage that keeps warm states
/// solves, cold or warm, through the spec's warm entry, and publishes the
/// state the solve hands back for the next generation's leader.
fn memo_solve(
    state: &AppState,
    params: &SolveParams<'_>,
    k: usize,
) -> Result<(Arc<SolveReport>, u64, CacheOutcome), (Status, String)> {
    let snapshot = state.snapshots.current();
    let generation = snapshot.generation;
    let lineage = Lineage::new(params.spec, params.variant, &params.config);
    let deadline_ms = params
        .deadline
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let leader = match state.memo.begin(&lineage, generation, k, deadline_ms) {
        Lookup::Ready(report, outcome) => {
            let counter = match outcome {
                CacheOutcome::Prefix => &state.metrics.cache_prefix_hits,
                _ => &state.metrics.cache_hits,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            return Ok((report, generation, outcome));
        }
        Lookup::Joined(result) => {
            state.metrics.coalesced_hits.fetch_add(1, Ordering::Relaxed);
            return result.map(|report| (report, generation, CacheOutcome::Coalesced));
        }
        Lookup::Leader(leader) => leader,
    };

    let graph = &snapshot.graph;
    let mut observer = params
        .deadline
        .map(|deadline| DeadlineObserver::new(Instant::now() + deadline));
    let mut ctx = match observer.as_mut() {
        Some(observer) => SolveCtx::with_observer(params.config, observer),
        None => SolveCtx::new(params.config),
    };
    let keeps_warm = leader.keeps_warm();
    let mut handing_back = |from| {
        params
            .spec
            .solve_handing_back(params.variant, graph, k, from, &mut ctx)
    };
    let repaired = leader
        .warm()
        .filter(|(warm, _)| warm.accepts(params.variant, graph))
        .map(|from| handing_back(Some(from)));
    let solved = match repaired {
        Some(Ok(warm)) => {
            let m = &state.metrics;
            m.warm_start_hits.fetch_add(1, Ordering::Relaxed);
            m.warm_rounds_reused
                .fetch_add(warm.rounds_reused as u64, Ordering::Relaxed);
            m.warm_rounds_repaired
                .fetch_add(warm.rounds_repaired as u64, Ordering::Relaxed);
            Ok((warm.report, warm.next, CacheOutcome::Warm))
        }
        Some(Err(SolveError::Cancelled)) => Err(SolveError::Cancelled),
        // No usable warm state, or a repair error other than the deadline.
        _ => {
            state.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            if keeps_warm {
                handing_back(None).map(|cold| (cold.report, cold.next, CacheOutcome::Miss))
            } else {
                params
                    .spec
                    .solve(params.variant, graph, k, &mut ctx)
                    .map(|report| (report, None, CacheOutcome::Miss))
            }
        }
    };
    let mut next = None;
    let solved = match solved {
        Ok((report, state, outcome)) => {
            next = state;
            Ok((Arc::new(report), outcome))
        }
        Err(SolveError::Cancelled) => {
            state
                .metrics
                .deadline_cancelled_total
                .fetch_add(1, Ordering::Relaxed);
            Err((
                Status::DeadlineExceeded,
                format!("deadline exceeded after {:?}", params.deadline),
            ))
        }
        Err(e) => Err((Status::BadRequest, e.to_string())),
    };
    leader.publish(
        solved
            .as_ref()
            .map(|(report, _)| Arc::clone(report))
            .map_err(Clone::clone),
        next,
    );
    solved.map(|(report, outcome)| (report, generation, outcome))
}

fn solve_endpoint(
    req: &Request,
    state: &AppState,
    mode: SolveMode,
) -> Result<String, (Status, String)> {
    let params = parse_common(req, state)?;
    let k: usize = match req.param("k") {
        Some(s) => s
            .parse()
            .map_err(|_| (Status::BadRequest, format!("bad k '{s}'")))?,
        None => {
            return Err((
                Status::BadRequest,
                "missing required parameter k".to_owned(),
            ))
        }
    };
    let (report, generation, outcome) = memo_solve(state, &params, k)?;
    // A prefix donor has a larger budget; read the k-answer off its
    // trajectory (§3.2 incremental property).
    let (order, cover) = if report.k() == k {
        (report.order.as_slice(), report.cover)
    } else {
        report
            .prefix(k)
            .ok_or_else(|| (Status::Internal, "prefix donor shorter than k".to_owned()))?
    };
    // Rendered directly rather than through a `serde_json::Value` tree:
    // the order array carries up to k ids, and building k boxed `Value`s
    // per response was the dominant per-request cost for cache-hit
    // traffic (every field here is a number or a registry-validated
    // token, so no escaping is needed).
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"generation\":{generation},\"algorithm\":\"{}\",\"variant\":\"{}\",\"k\":{k},\"cover\":",
        params.spec.name,
        params.variant.name(),
    );
    push_f64(&mut body, cover);
    if matches!(mode, SolveMode::Full) {
        body.push_str(",\"order\":[");
        for (i, id) in order.iter().enumerate() {
            let _ = write!(body, "{}{}", if i > 0 { "," } else { "" }, id.raw());
        }
        body.push(']');
    }
    let _ = write!(body, ",\"cache\":\"{}\"}}", outcome.as_str());
    Ok(body)
}

/// Appends `v` exactly as the workspace JSON serializer renders floats
/// (non-finite → `null`, integral keeps a trailing `.0`), so hand-rendered
/// response bodies stay byte-compatible with `serde_json`-rendered ones.
#[allow(clippy::float_cmp)] // integrality test must match the serializer's bit-exact comparison
fn push_f64(out: &mut String, v: f64) {
    let _ = if !v.is_finite() {
        write!(out, "null")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v}")
    };
}

fn minimize_endpoint(req: &Request, state: &AppState) -> Result<String, (Status, String)> {
    let params = parse_common(req, state)?;
    let threshold: f64 = match req.param("threshold") {
        Some(s) => s
            .parse()
            .map_err(|_| (Status::BadRequest, format!("bad threshold '{s}'")))?,
        None => {
            return Err((
                Status::BadRequest,
                "missing required parameter threshold".to_owned(),
            ))
        }
    };
    if !(0.0..=1.0).contains(&threshold) {
        return Err((
            Status::BadRequest,
            format!("threshold {threshold} is not a probability in [0, 1]"),
        ));
    }
    if !params.spec.caps.prefix_chain {
        return Err((
            Status::BadRequest,
            format!(
                "algorithm '{}' has no incremental trajectory; minimize supports \
                 greedy-family solvers (e.g. lazy, greedy, parallel)",
                params.spec.name
            ),
        ));
    }
    // One full-budget solve answers every threshold — and seeds the cache
    // for all subsequent /solve and /cover calls at any k.
    let n = state.snapshots.current().graph.node_count();
    let (report, generation, outcome) = memo_solve(state, &params, n)?;
    let Some(k_min) = report.smallest_prefix_reaching(threshold) else {
        return Err((
            Status::BadRequest,
            format!(
                "cover threshold {threshold} unreachable; retaining everything covers only {}",
                report.cover
            ),
        ));
    };
    let (order, cover) = report
        .prefix(k_min)
        .ok_or_else(|| (Status::Internal, "minimize prefix out of range".to_owned()))?;
    // Hand-rendered for the same reason as `solve_endpoint`: the retained
    // set can run to thousands of ids, and a `Value` tree per response is
    // the expensive way to print integers.
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"generation\":{generation},\"algorithm\":\"{}\",\"variant\":\"{}\",\"threshold\":",
        params.spec.name,
        params.variant.name(),
    );
    push_f64(&mut body, threshold);
    let _ = write!(body, ",\"k\":{k_min},\"cover\":");
    push_f64(&mut body, cover);
    body.push_str(",\"order\":[");
    for (i, id) in order.iter().enumerate() {
        let _ = write!(body, "{}{}", if i > 0 { "," } else { "" }, id.raw());
    }
    let _ = write!(body, "],\"cache\":\"{}\"}}", outcome.as_str());
    Ok(body)
}

fn delta_endpoint(req: &Request, state: &AppState) -> Result<String, (Status, String)> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| (Status::BadRequest, "delta body is not UTF-8".to_owned()))?;
    let delta = GraphDelta::from_json_str(text)
        .map_err(|e| (Status::BadRequest, format!("bad delta: {e}")))?;
    let receipt = state
        .snapshots
        .apply_delta_swap(&delta)
        .map_err(|e| (Status::BadRequest, format!("delta rejected: {e}")))?;
    let generation = receipt.new.generation;
    let touched = delta.touched_nodes(&receipt.old.graph);
    // One memo call: carry the cached answers across a bitwise-identity
    // swap, add the delta's frontier to the warm states, and drop the
    // superseded generation's reports (see `Memo::record_swap`).
    let survived = state
        .memo
        .record_swap(receipt.old.generation, generation, &touched);
    state
        .metrics
        .cache_survived_swap
        .fetch_add(survived, Ordering::Relaxed);
    state
        .metrics
        .delta_applied_total
        .fetch_add(1, Ordering::Relaxed);
    let body = serde_json::json!({
        "generation": generation,
        "changes": delta.len(),
    });
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_observer_flips_after_the_deadline() {
        let mut obs = DeadlineObserver::new(Instant::now() - Duration::from_millis(1));
        assert!(obs.cancelled());
        let mut obs = DeadlineObserver::new(Instant::now() + Duration::from_secs(60));
        assert!(!obs.cancelled());
    }
}
