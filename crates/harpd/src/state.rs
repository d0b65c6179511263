//! Daemon state: the tenant map, the daemon's telemetry, and the router
//! that turns parsed [`Request`]s into [`Response`]s.
//!
//! Locking is two-level so tenants never block each other: the outer
//! `RwLock` guards only the *map* (create/delete/list take the write
//! lock briefly; everything else a read lock), and each tenant sits
//! behind its own `Mutex`, held for the duration of one allocator
//! operation. A slow convergence in tenant A never delays a schedule
//! query on tenant B.
//!
//! Reads are split from writes *within* a tenant too. Every tenant slot
//! mirrors the allocator's version stamp
//! ([`harp_core::AllocatorHandle::version`]) into an atomic and caches the
//! rendered `GET /schedule` body keyed by that stamp, so a steady-state
//! schedule query is answered without touching the tenant mutex at all
//! (and skips the per-tenant span, since no allocator work happened).
//! `/metrics` scrapes render per-tenant series through `try_lock`,
//! replaying the last snapshot when an in-flight adjustment holds the
//! lock — a scrape never queues behind the allocator. A scrape writes into
//! what the last one left: the daemon's snapshot and the exposition's
//! family index sit behind one scrape mutex, taken before the map's read
//! lock and the slots' snapshot mutexes. Response bodies are
//! assembled with [`harp_obs::json::JsonBuf`] into buffers pooled on
//! [`AppState`] and recycled by the connection loop after each write.
//!
//! Telemetry is one record per request: a route handler (`networks`,
//! `debug`) reports what it did in the record it hands back, and
//! `handle_request_timed` has `telemetry` write it — counters,
//! histograms, flight events, the SLO check — under its one lock, once.

mod debug;
mod networks;
mod telemetry;
mod tenant;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use harp_obs::prometheus::Exposition;
use harp_obs::MetricsSnapshot;

use crate::http::{HttpError, Request, Response};
pub(crate) use telemetry::{micros, DEFAULT_SLO_US};
use telemetry::{Record, RouteClass, Telemetry};
use tenant::TenantSlot;

/// Path segments the router keeps, on the stack: a fixed route has at most
/// three, so a longer path cut to its first five still matches no fixed
/// route and every `..` route it matched whole.
const MAX_SEGMENTS: usize = 5;
/// Response-body buffers kept around for reuse.
const POOL_MAX_BUFFERS: usize = 64;
/// A buffer that grew beyond this capacity is dropped, not pooled, so a
/// single huge trace dump doesn't pin memory forever.
const POOL_MAX_BUFFER_CAPACITY: usize = 256 * 1024;

/// Shared state behind every worker thread.
pub struct AppState {
    tenants: RwLock<BTreeMap<String, Arc<TenantSlot>>>,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    token: String,
    scenario_dir: PathBuf,
    /// Connections accepted but not yet picked up by a worker.
    queue_depth: AtomicI64,
    /// Recycled response-body buffers (see [`AppState::take_buf`]).
    pool: Mutex<Vec<Vec<u8>>>,
    /// What a `/metrics` scrape writes into and the next one overwrites.
    /// Taken first: a scrape then takes the map's read lock and the slots'
    /// snapshot mutexes, in map order.
    scrape: Mutex<Scrape>,
}

/// What a scrape keeps for the next: the daemon's series and the family
/// index the exposition folds the groups into.
#[derive(Default)]
struct Scrape {
    daemon: MetricsSnapshot,
    index: Exposition,
}

/// Overwrites the value of series `name` in place (a histogram keeps its
/// bucket vectors), inserting it the first time.
fn set<T: Clone>(series: &mut BTreeMap<String, T>, name: &str, value: &T) {
    match series.get_mut(name) {
        Some(slot) => slot.clone_from(value),
        None => {
            series.insert(name.to_owned(), value.clone());
        }
    }
}

impl AppState {
    /// Fresh state with the given shutdown token and the directory named
    /// scenarios (`scenario_file` bodies) are resolved under.
    #[must_use]
    pub fn new(token: String, scenario_dir: PathBuf) -> Self {
        Self {
            tenants: RwLock::new(BTreeMap::new()),
            telemetry: Telemetry::new(),
            shutdown: AtomicBool::new(false),
            token,
            scenario_dir,
            queue_depth: AtomicI64::new(0),
            pool: Mutex::new(Vec::new()),
            scrape: Mutex::default(),
        }
    }

    /// A cleared buffer from the response pool (or a fresh one). Handlers
    /// assemble bodies into these; the connection loop hands them back
    /// through [`AppState::recycle_buf`] after the socket write, so a
    /// steady-state request allocates nothing for its body.
    #[must_use]
    pub(crate) fn take_buf(&self) -> Vec<u8> {
        self.pool
            .lock()
            .ok()
            .and_then(|mut p| p.pop())
            .unwrap_or_default()
    }

    /// Returns a response-body buffer to the pool (bounded in count and
    /// per-buffer capacity; anything over the cap is simply dropped).
    pub fn recycle_buf(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_BUFFER_CAPACITY {
            return;
        }
        buf.clear();
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < POOL_MAX_BUFFERS {
                pool.push(buf);
            }
        }
    }

    /// Microseconds since the daemon started — the timebase of request
    /// spans and flight events.
    fn uptime_us(&self) -> u64 {
        self.telemetry.uptime_us()
    }

    /// Replaces the per-request latency SLO (µs). A request slower than
    /// this trips the flight recorder into freezing an incident.
    pub(crate) fn set_slo_us(&self, us: u64) {
        self.telemetry.set_slo_us(us);
    }

    /// A connection entered the accept queue (called by the acceptor).
    pub(crate) fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a connection off the queue.
    pub(crate) fn queue_leave(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections accepted but not yet picked up by a worker.
    #[must_use]
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed).max(0)
    }

    /// Whether a shutdown has been requested.
    #[must_use]
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (also used by the server on accept errors).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Hosted network count.
    #[must_use]
    pub(crate) fn network_count(&self) -> usize {
        self.tenants.read().map(|t| t.len()).unwrap_or(0)
    }

    /// The daemon's metrics now: what `/metrics` serves without a tenant
    /// label, and what is flushed on shutdown: a fresh snapshot, written by
    /// the function a scrape refreshes its kept one with.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let tenants = self.tenants.read().ok();
        self.write_metrics(&mut snap, tenants.as_deref());
        snap
    }

    /// Writes the daemon's metrics into `snap` in place. The node total is
    /// summed from the counts fixed at create over `tenants`, the map the
    /// caller holds (none when it is poisoned), so no tenant lock is taken.
    fn write_metrics(
        &self,
        snap: &mut MetricsSnapshot,
        tenants: Option<&BTreeMap<String, Arc<TenantSlot>>>,
    ) {
        let (networks, nodes) = tenants.map_or((0, 0), |t| {
            (t.len(), t.values().map(|slot| slot.nodes).sum())
        });
        self.telemetry.write_snapshot(snap, networks, nodes);
    }

    fn tenant(&self, id: &str) -> Result<Arc<TenantSlot>, HttpError> {
        self.tenants
            .read()
            .map_err(|_| HttpError::new(500, "tenant map poisoned"))?
            .get(id)
            .cloned()
            .ok_or_else(|| HttpError::new(404, format!("no network for tenant \"{id}\"")))
    }
}

/// Routes one request; this is the whole HTTP surface of the daemon.
/// Always returns a [`Response`] — failures become their status code.
pub fn handle_request(state: &AppState, req: &Request<'_>) -> Response {
    handle_request_timed(state, req, 0)
}

/// Like [`handle_request`], with the time the transport spent parsing the
/// request head and body (`parse_us`) folded into the request's latency
/// observation. Every request gets a fresh correlation id and exactly one
/// telemetry record — counters, latency histograms, flight events, the
/// SLO check — written when its response is ready.
pub(crate) fn handle_request_timed(state: &AppState, req: &Request<'_>, parse_us: u64) -> Response {
    let mut segments = [""; MAX_SEGMENTS];
    let mut len = 0;
    for segment in req
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .take(MAX_SEGMENTS)
    {
        segments[len] = segment;
        len += 1;
    }
    let mut rec = state.telemetry.begin(req.method, &req.path, parse_us);
    let (class, result) = route(state, req, &segments[..len], &mut rec);
    let response = result.unwrap_or_else(|err| Response::from_error(&err, state.take_buf()));
    state.telemetry.record(rec, class, response.status);
    response
}

/// Answers a request the transport could not parse, and counts it like
/// any other (class `other`, the error's status), so a client sending
/// malformed or oversized requests shows in `harpd_requests_total` and
/// `harpd_http_errors`. The transport times no parse it gave up on, so
/// the latency recorded is 0.
pub(crate) fn handle_unparsed(state: &AppState, err: &HttpError) -> Response {
    let response = Response::from_error(err, state.take_buf());
    let rec = state.telemetry.begin("UNPARSED", &err.message, 0);
    state
        .telemetry
        .record(rec, RouteClass::Other, response.status);
    response
}

/// The route table: one match yields the handler's result together with
/// the class the request is metered under. A known resource addressed
/// with the wrong method is a 405 metered under that resource's class.
fn route<'r>(
    state: &AppState,
    req: &Request<'_>,
    segments: &[&'r str],
    rec: &mut Record<'r>,
) -> (RouteClass, Result<Response, HttpError>) {
    use RouteClass::*;
    let wrong_method = || Err(HttpError::new(405, "method not allowed on this resource"));
    match (req.method, segments) {
        ("GET", ["health"]) => (Health, Ok(debug::health(state))),
        ("GET", ["metrics"]) => (Metrics, Ok(debug::metrics(state))),
        ("GET", ["debug", "health"]) => (Debug, Ok(debug::debug_health(state))),
        ("GET", ["debug", "trace", id]) => (Debug, debug::debug_trace(state, id, rec)),
        ("GET", ["debug", "flight"]) => (Debug, debug::debug_flight(state, req)),
        ("GET", ["networks"]) => (List, Ok(networks::list(state))),
        ("POST", ["networks"]) => (Create, networks::create(state, req, rec)),
        ("GET", ["networks", id, "schedule"]) => (Schedule, networks::schedule(state, id, rec)),
        ("POST", ["networks", id, "adjust"]) => (Adjust, networks::adjust(state, id, req, rec)),
        ("DELETE", ["networks", id]) => (Delete, networks::delete(state, id, rec)),
        ("POST", ["shutdown"]) => (Shutdown, debug::shutdown(state, req)),
        (_, ["health"]) => (Health, wrong_method()),
        (_, ["metrics"]) => (Metrics, wrong_method()),
        (_, ["networks", _, "schedule"]) => (Schedule, wrong_method()),
        (_, ["networks", _, "adjust"]) => (Adjust, wrong_method()),
        (_, ["shutdown"]) => (Shutdown, wrong_method()),
        (_, ["debug", ..]) => (Debug, wrong_method()),
        (_, ["health" | "metrics" | "networks" | "shutdown", ..]) => (Other, wrong_method()),
        _ => (Other, Err(HttpError::new(404, "no such route"))),
    }
}

/// What the unit tests of this module and its children share.
#[cfg(test)]
mod test_support {
    pub(super) use super::{handle_request, AppState};
    pub(super) use crate::http::{Request, Response};

    const TINY_SCN: &str =
        "scenario tiny\nseed 1\n[topology]\ngenerator fig1\n[workloads]\ndemand uniform cells=1\n";

    pub(super) fn state() -> AppState {
        AppState::new("secret".into(), "/nonexistent".into())
    }

    pub(super) fn get(path: &str) -> Request<'_> {
        Request {
            method: "GET",
            path: path.into(),
            query: "",
            headers: "",
            body: &[],
            keep_alive: true,
        }
    }

    pub(super) fn post<'a>(path: &'a str, body: &'a str) -> Request<'a> {
        Request {
            method: "POST",
            body: body.as_bytes(),
            ..get(path)
        }
    }

    pub(super) fn create_tiny(state: &AppState, tenant: &str) -> Response {
        let body = format!(
            "{{\"tenant\": \"{tenant}\", \"scenario\": \"{}\"}}",
            TINY_SCN.replace('\n', "\\n")
        );
        handle_request(state, &post("/networks", &body))
    }

    /// Pulls `"correlation_id": N` out of a response body.
    pub(super) fn correlation_of(body: &str) -> u64 {
        let tail = body
            .split("\"correlation_id\": ")
            .nth(1)
            .expect("body carries a correlation id");
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    }

    /// `GET /debug/flight?incident`.
    pub(super) fn incident(state: &AppState) -> Response {
        let mut req = get("/debug/flight");
        req.query = "incident";
        handle_request(state, &req)
    }

    /// The live flight ring as `/debug/flight` serves it (that read is
    /// itself recorded only after the dump is taken).
    pub(super) fn flight_events(state: &AppState) -> Vec<harp_obs::flight::ParsedFlightEvent> {
        let resp = handle_request(state, &get("/debug/flight"));
        assert_eq!(resp.status, 200);
        harp_obs::FlightDoc::parse_str(&String::from_utf8(resp.body).unwrap())
            .expect("flight dump parses")
            .events
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;

    /// The contract other code reads off harpd (the benchmark's traced run
    /// compares `spans_recorded` with its cache model and reconciles
    /// `harpd.requests_total` with what it sent), pinned here.
    #[test]
    fn one_record_per_request_and_events_only_for_what_happened() {
        let state = state();
        let schedule = get("/networks/t1/schedule");
        let adjust = |cells: u32| {
            let body = format!("{{\"node\": 9, \"cells\": {cells}}}");
            handle_request(&state, &post("/networks/t1/adjust", &body)).status
        };
        assert_eq!(create_tiny(&state, "t1").status, 201);
        assert_eq!(handle_request(&state, &schedule).status, 200); // renders
        assert_eq!(handle_request(&state, &schedule).status, 200); // cached
        assert_eq!(adjust(2), 200);
        assert_eq!(adjust(100_000), 409);
        assert_eq!(handle_request(&state, &schedule).status, 200); // renders again

        // A tenant span per schedule render and per committed adjustment,
        // none for the cached read or the rejected adjustment.
        let health = handle_request(&state, &get("/debug/health"));
        let health = String::from_utf8(health.body).unwrap();
        assert!(health.contains("\"spans_recorded\": 3"), "{health}");
        assert!(health.contains("\"schedule_queries\": 3"), "{health}");

        // One "request" event per request, in request order; a lifecycle
        // event before it only where the operation happened.
        let events = flight_events(&state);
        let seen: Vec<(&str, u64)> = events.iter().map(|e| (e.kind.as_str(), e.corr)).collect();
        assert_eq!(
            seen,
            [
                ("create", 1),
                ("request", 1),
                ("request", 2),
                ("request", 3),
                ("adjust", 4),
                ("request", 4),
                ("request", 5),
                ("request", 6),
                ("request", 7),
            ]
        );
        let answered: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == "request")
            .map(|e| e.detail.rsplit(' ').next().unwrap())
            .collect();
        assert_eq!(answered, ["201", "200", "200", "200", "409", "200", "200"]);
        assert_eq!(events[6].detail, "POST /networks/t1/adjust -> 409");

        let snapshot = state.metrics_snapshot();
        assert_eq!(snapshot.counter("harpd.requests_total"), Some(6 + 2));
        assert_eq!(snapshot.counter("harpd.http_errors"), Some(1));
        assert_eq!(snapshot.counter("harpd.schedule_queries"), Some(3));
        assert_eq!(snapshot.counter("harpd.adjustments"), Some(1));
    }

    /// A known resource addressed with the wrong method is metered under
    /// that resource's class; anything else under `other`.
    #[test]
    fn every_request_is_metered_under_exactly_one_route_class() {
        let state = state();
        let cases = [
            ("POST", "/health", 405, "health"),
            ("POST", "/metrics", 405, "metrics"),
            ("DELETE", "/networks/x/schedule", 405, "schedule"),
            ("GET", "/networks/x/adjust", 405, "adjust"),
            ("GET", "/shutdown", 405, "shutdown"),
            ("POST", "/debug/flight", 405, "debug"),
            ("GET", "/debug/nope", 405, "debug"),
            ("PUT", "/networks", 405, "other"),
            ("GET", "/networks/x", 405, "other"),
            ("GET", "/health/extra", 405, "other"),
            ("GET", "/nope", 404, "other"),
            ("GET", "/networks", 200, "list"),
            ("DELETE", "/networks/x", 404, "delete"),
        ];
        for (method, path, status, class) in cases {
            let series = format!("harpd.route.{class}_us");
            let before = state.metrics_snapshot().histograms[&series].count;
            let mut req = get(path);
            req.method = method;
            assert_eq!(
                handle_request(&state, &req).status,
                status,
                "{method} {path}"
            );
            let after = state.metrics_snapshot().histograms[&series].count;
            assert_eq!(after, before + 1, "{method} {path} is a {class} request");
        }
        let snapshot = state.metrics_snapshot();
        assert_eq!(
            snapshot.counter("harpd.requests_total"),
            Some(cases.len() as u64)
        );
        let metered: u64 = snapshot
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("harpd.route."))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(metered, cases.len() as u64);
    }

    #[test]
    fn malformed_and_missing_routes() {
        let state = state();
        assert_eq!(
            handle_request(&state, &post("/networks", "{nope")).status,
            400
        );
        assert_eq!(
            handle_request(&state, &post("/networks", "{\"tenant\": \"x\"}")).status,
            400
        );
        assert_eq!(handle_request(&state, &get("/nope")).status, 404);
        assert_eq!(handle_request(&state, &post("/health", "")).status, 405);
        assert_eq!(
            handle_request(
                &state,
                &post("/networks/ghost/adjust", "{\"node\": 1, \"cells\": 1}")
            )
            .status,
            404
        );
    }
}
