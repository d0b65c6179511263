//! Daemon state: the tenant map, daemon-level metrics, and the router
//! that turns parsed [`Request`]s into [`Response`]s.
//!
//! Locking is two-level so tenants never block each other: the outer
//! `RwLock` guards only the *map* (create/delete/list take the write
//! lock briefly; everything else a read lock), and each tenant sits
//! behind its own `Mutex`, held for the duration of one allocator
//! operation. A slow convergence in tenant A never delays a schedule
//! query on tenant B.
//!
//! Reads are split from writes *within* a tenant too. Every
//! [`TenantSlot`] mirrors the allocator's version stamp
//! ([`AllocatorHandle::version`]) into an atomic and caches the rendered
//! `GET /schedule` body keyed by that stamp, so a steady-state schedule
//! query is answered without touching the tenant mutex at all (and skips
//! the per-tenant span, since no allocator work happened). `/metrics`
//! scrapes render per-tenant series through `try_lock`, replaying the
//! last snapshot when an in-flight adjustment holds the lock — a scrape
//! never queues behind the allocator. Response bodies are assembled with
//! [`JsonBuf`] into buffers pooled on [`AppState`] and recycled by the
//! connection loop after each write.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::time::Instant;

use harp_core::{AllocatorHandle, Requirements, SchedulingPolicy};
use harp_obs::json::{parse, Json, JsonBuf};
use harp_obs::prometheus::{render_exposition, Labels};
use harp_obs::{
    merged_trace_json, FlightEvent, FlightRecorder, MetricsRegistry, MetricsSnapshot, SpanEvent,
    SpanRing, NO_FLIGHT_NODE, NO_NODE,
};
use tsch_sim::{Link, NodeId};
use workloads::scenario_dsl::parse_scenario;

use crate::http::{HttpError, Request, Response};

/// Microsecond bucket bounds for the request-latency histogram:
/// powers of two from 1 µs to ~67 s, wide enough that a large-network
/// convergence never lands in the overflow bucket.
pub const REQUEST_US_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131_072,
    262_144, 524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608, 16_777_216, 33_554_432,
    67_108_864,
];

/// Default per-request latency SLO: a request slower than this trips the
/// flight recorder into freezing an incident snapshot.
pub const DEFAULT_SLO_US: u64 = 2_000_000;

/// Span capacity of the daemon's request-span ring (parse/route/allocator/
/// encode spans, four to five per request).
const DAEMON_SPAN_CAPACITY: usize = 4096;
/// Span capacity handed to each tenant's observed allocator: four times
/// what `/debug/trace/<tenant>` can return. It cannot shrink alone: the
/// benchmark's stage replay (`benchmark/src/layers.rs`) converges with the
/// same capacity, to replay what a create does here.
const ALLOCATOR_SPAN_CAPACITY: usize = 2048;
/// Event capacity of the always-on flight recorder.
const FLIGHT_CAPACITY: usize = 1024;
/// Most recent events returned by `/debug/flight`.
const FLIGHT_DUMP_LIMIT: usize = 512;
/// Most recent spans `/debug/trace/<tenant>` returns per ring, and so the
/// capacity of a tenant's request-span ring: that endpoint is its only
/// reader, and a ring reserves its whole capacity on the first span.
const TRACE_DUMP_LIMIT: usize = 512;
/// Adjustment-storm detector: this many adjustments inside
/// [`STORM_WINDOW_US`] trips the flight recorder.
const STORM_THRESHOLD: usize = 64;
const STORM_WINDOW_US: u64 = 10_000_000;

/// One hosted network: a converged allocator plus per-tenant counters.
pub struct Tenant {
    /// The long-lived allocator.
    pub handle: AllocatorHandle,
    /// The scenario name the network was created from.
    pub scenario_name: String,
    /// Request spans served against this tenant (µs-since-boot timebase),
    /// each stamped with the request's correlation id.
    pub request_spans: SpanRing,
}

impl Tenant {
    /// Spans recorded but evicted across this tenant's rings (the request
    /// ring plus the allocator's observed layers).
    fn spans_dropped(&self) -> u64 {
        let request = self.request_spans.total_recorded() - self.request_spans.len() as u64;
        let allocator: u64 = self
            .handle
            .network()
            .span_rings()
            .iter()
            .map(|r| r.total_recorded() - r.len() as u64)
            .sum();
        request + allocator
    }

    /// Per-tenant metrics as a synthetic snapshot for the `/metrics`
    /// exposition, labelled with `tenant="<id>"` by the caller. The
    /// schedule-query count lives on the [`TenantSlot`] (it advances on
    /// lock-free cache hits), so the caller passes it in.
    fn metrics(&self, schedule_queries: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let summary = self.handle.summary();
        snap.counters
            .insert("harpd.tenant.adjustments".into(), self.handle.adjustments());
        snap.counters.insert(
            "harpd.tenant.mgmt_messages".into(),
            self.handle.mgmt_messages_total(),
        );
        snap.counters.insert(
            "harpd.tenant.cell_messages".into(),
            self.handle.cell_messages_total(),
        );
        snap.counters
            .insert("harpd.tenant.schedule_queries".into(), schedule_queries);
        snap.gauges
            .insert("harpd.tenant.nodes".into(), summary.nodes as f64);
        snap.gauges.insert(
            "harpd.tenant.assignments".into(),
            summary.assignments as f64,
        );
        snap.gauges.insert(
            "harpd.tenant.active_cells".into(),
            summary.active_cells as f64,
        );
        snap.gauges.insert(
            "harpd.tenant.spans_dropped".into(),
            self.spans_dropped() as f64,
        );
        snap
    }
}

/// A tenant plus its read-side caches. The mutex guards the allocator;
/// everything else is reachable without it, which is what keeps schedule
/// queries and metrics scrapes off an adjusting tenant's lock.
pub struct TenantSlot {
    /// The tenant proper, locked for the duration of one allocator op.
    tenant: Mutex<Tenant>,
    /// Mirror of [`AllocatorHandle::version`], written only while the
    /// tenant lock is held (create and adjust — a *rejected* adjustment
    /// also advances it, because the allocator clock moved). Readers
    /// compare it against a cached render's stamp without the mutex.
    version: AtomicU64,
    /// Schedule queries served (atomic so cache hits skip the lock).
    schedule_queries: AtomicU64,
    /// The rendered `GET /schedule` body, keyed by the version stamp it
    /// was rendered under.
    schedule_cache: RwLock<Option<(u64, Arc<Vec<u8>>)>>,
    /// The last rendered per-tenant metrics snapshot, replayed to a
    /// `/metrics` scrape when an adjustment holds the tenant lock.
    metrics_cache: RwLock<Option<Arc<MetricsSnapshot>>>,
}

impl TenantSlot {
    fn new(tenant: Tenant) -> Self {
        let version = tenant.handle.version();
        Self {
            tenant: Mutex::new(tenant),
            version: AtomicU64::new(version),
            schedule_queries: AtomicU64::new(0),
            schedule_cache: RwLock::new(None),
            metrics_cache: RwLock::new(None),
        }
    }

    /// The cached schedule body, when nothing has mutated the allocator
    /// since it was rendered.
    fn cached_schedule(&self) -> Option<Arc<Vec<u8>>> {
        let version = self.version.load(Ordering::Acquire);
        let cache = self.schedule_cache.read().ok()?;
        match cache.as_ref() {
            Some((v, body)) if *v == version => Some(Arc::clone(body)),
            _ => None,
        }
    }

    /// Per-tenant metrics for the `/metrics` scrape: rendered fresh when
    /// the tenant lock is free, replayed from the last render when an
    /// adjustment holds it — a scrape never queues behind the allocator.
    fn scrape_metrics(&self) -> Option<Arc<MetricsSnapshot>> {
        let queries = self.schedule_queries.load(Ordering::Relaxed);
        match self.tenant.try_lock() {
            Ok(tenant) => {
                let snap = Arc::new(tenant.metrics(queries));
                if let Ok(mut cache) = self.metrics_cache.write() {
                    *cache = Some(Arc::clone(&snap));
                }
                Some(snap)
            }
            Err(TryLockError::WouldBlock) => {
                self.metrics_cache.read().ok()?.as_ref().map(Arc::clone)
            }
            Err(TryLockError::Poisoned(_)) => None,
        }
    }

    /// Node count without queueing behind the allocator: live when the
    /// lock is free, else from the last rendered metrics snapshot.
    fn nodes_hint(&self) -> usize {
        match self.tenant.try_lock() {
            Ok(tenant) => tenant.handle.summary().nodes,
            Err(_) => self
                .metrics_cache
                .read()
                .ok()
                .and_then(|c| {
                    c.as_ref()
                        .and_then(|s| s.gauges.get("harpd.tenant.nodes").copied())
                })
                .unwrap_or(0.0) as usize,
        }
    }
}

/// The route classes the daemon meters individually: every request folds
/// into exactly one, giving per-route latency histograms (p50/p95/p99 via
/// the derived exposition gauges) without unbounded label cardinality.
pub const ROUTE_CLASSES: &[&str] = &[
    "health", "metrics", "list", "create", "schedule", "adjust", "delete", "shutdown", "debug",
    "other",
];

/// Folds a request path onto its [`ROUTE_CLASSES`] entry.
#[must_use]
pub fn route_class(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        (_, ["health"]) => "health",
        (_, ["metrics"]) => "metrics",
        ("GET", ["networks"]) => "list",
        ("POST", ["networks"]) => "create",
        (_, ["networks", _, "schedule"]) => "schedule",
        (_, ["networks", _, "adjust"]) => "adjust",
        ("DELETE", ["networks", _]) => "delete",
        (_, ["shutdown"]) => "shutdown",
        (_, ["debug", ..]) => "debug",
        _ => "other",
    }
}

/// Daemon-wide metrics: one registry with pre-registered ids, behind one
/// mutex (the registry itself is not thread-safe).
pub struct DaemonMetrics {
    registry: MetricsRegistry,
    requests_total: harp_obs::CounterId,
    http_errors: harp_obs::CounterId,
    creates: harp_obs::CounterId,
    adjustments: harp_obs::CounterId,
    schedule_queries: harp_obs::CounterId,
    request_us: harp_obs::HistogramId,
    /// Time spent inside the allocator per request (µs) — subtracting its
    /// percentiles from `request_us` is the server-overhead split the
    /// load generator reports.
    allocator_us: harp_obs::HistogramId,
    route_us: Vec<(&'static str, harp_obs::HistogramId)>,
    networks: harp_obs::GaugeId,
    aggregate_nodes: harp_obs::GaugeId,
    spans_dropped: harp_obs::GaugeId,
    flight_dropped: harp_obs::GaugeId,
    flight_trips: harp_obs::GaugeId,
}

impl DaemonMetrics {
    fn new() -> Self {
        let mut registry = MetricsRegistry::new(true);
        // One latency histogram per route class: "harpd.route.adjust_us"
        // etc., so per-route p50/p95/p99 are scrapeable directly.
        const ROUTE_US_NAMES: &[(&str, &str)] = &[
            ("health", "harpd.route.health_us"),
            ("metrics", "harpd.route.metrics_us"),
            ("list", "harpd.route.list_us"),
            ("create", "harpd.route.create_us"),
            ("schedule", "harpd.route.schedule_us"),
            ("adjust", "harpd.route.adjust_us"),
            ("delete", "harpd.route.delete_us"),
            ("shutdown", "harpd.route.shutdown_us"),
            ("debug", "harpd.route.debug_us"),
            ("other", "harpd.route.other_us"),
        ];
        let route_us = ROUTE_US_NAMES
            .iter()
            .map(|(class, name)| (*class, registry.histogram(name, REQUEST_US_BOUNDS)))
            .collect();
        Self {
            requests_total: registry.counter("harpd.requests_total"),
            http_errors: registry.counter("harpd.http_errors"),
            creates: registry.counter("harpd.networks_created"),
            adjustments: registry.counter("harpd.adjustments"),
            schedule_queries: registry.counter("harpd.schedule_queries"),
            request_us: registry.histogram("harpd.request_us", REQUEST_US_BOUNDS),
            allocator_us: registry.histogram("harpd.allocator_us", REQUEST_US_BOUNDS),
            route_us,
            networks: registry.gauge("harpd.networks"),
            aggregate_nodes: registry.gauge("harpd.aggregate_nodes"),
            spans_dropped: registry.gauge("harpd.spans_dropped"),
            flight_dropped: registry.gauge("harpd.flight_events_dropped"),
            flight_trips: registry.gauge("harpd.flight_trips"),
            registry,
        }
    }
}

/// Response-body buffers kept around for reuse.
const POOL_MAX_BUFFERS: usize = 64;
/// A buffer that grew beyond this capacity is dropped, not pooled, so a
/// single huge trace dump doesn't pin memory forever.
const POOL_MAX_BUFFER_CAPACITY: usize = 256 * 1024;

/// Shared state behind every worker thread.
pub struct AppState {
    tenants: RwLock<BTreeMap<String, Arc<TenantSlot>>>,
    metrics: Mutex<DaemonMetrics>,
    shutdown: AtomicBool,
    token: String,
    scenario_dir: PathBuf,
    /// The daemon clock epoch: every span and flight event is stamped in
    /// µs since this instant.
    start: Instant,
    /// Correlation-id source (1-based; 0 is [`harp_obs::NO_CORRELATION`]).
    correlation: AtomicU64,
    /// Daemon-level request spans (parse/route/allocator/encode).
    spans: Mutex<SpanRing>,
    /// The always-on flight recorder.
    flight: Mutex<FlightRecorder>,
    /// Connections accepted but not yet picked up by a worker.
    queue_depth: AtomicI64,
    /// Per-request latency SLO in µs; breaching it trips the recorder.
    slo_us: AtomicU64,
    /// Adjustment timestamps (µs) inside the storm window.
    storm_window: Mutex<VecDeque<u64>>,
    /// Recycled response-body buffers (see [`AppState::take_buf`]).
    pool: Mutex<Vec<Vec<u8>>>,
}

impl AppState {
    /// Fresh state with the given shutdown token and the directory named
    /// scenarios (`scenario_file` bodies) are resolved under.
    #[must_use]
    pub fn new(token: String, scenario_dir: PathBuf) -> Self {
        Self {
            tenants: RwLock::new(BTreeMap::new()),
            metrics: Mutex::new(DaemonMetrics::new()),
            shutdown: AtomicBool::new(false),
            token,
            scenario_dir,
            start: Instant::now(),
            correlation: AtomicU64::new(0),
            spans: Mutex::new(SpanRing::new(DAEMON_SPAN_CAPACITY)),
            flight: Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            queue_depth: AtomicI64::new(0),
            slo_us: AtomicU64::new(DEFAULT_SLO_US),
            storm_window: Mutex::new(VecDeque::new()),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// A cleared buffer from the response pool (or a fresh one). Handlers
    /// assemble bodies into these; the connection loop hands them back
    /// through [`AppState::recycle_buf`] after the socket write, so a
    /// steady-state request allocates nothing for its body.
    #[must_use]
    pub fn take_buf(&self) -> Vec<u8> {
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
    #[must_use]
    pub fn uptime_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Hands out the next correlation id (1-based, never 0).
    #[must_use]
    pub fn next_correlation(&self) -> u64 {
        self.correlation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Replaces the per-request latency SLO (µs). A request slower than
    /// this trips the flight recorder into freezing an incident.
    pub fn set_slo_us(&self, us: u64) {
        self.slo_us.store(us.max(1), Ordering::Relaxed);
    }

    /// A connection entered the accept queue (called by the acceptor).
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a connection off the queue.
    pub fn queue_leave(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections accepted but not yet picked up by a worker.
    #[must_use]
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed).max(0)
    }

    /// Records one event into the flight recorder (seq assigned there).
    fn flight_record(&self, event: FlightEvent) {
        if let Ok(mut flight) = self.flight.lock() {
            flight.record(event);
        }
    }

    /// Trips the flight recorder, tagging the frozen incident and logging
    /// the trip itself as an event.
    fn flight_trip(&self, reason: &str, at: u64, tenant: &str, corr: u64) {
        if let Ok(mut flight) = self.flight.lock() {
            flight.trip(reason);
            let trips = flight.trips() as i64;
            flight.record(FlightEvent {
                seq: 0,
                at,
                kind: "trip",
                tenant: tenant.to_owned(),
                corr,
                node: NO_FLIGHT_NODE,
                detail: reason.to_owned(),
                magnitude: trips,
            });
        }
    }

    /// Slides the storm window and trips the recorder when
    /// [`STORM_THRESHOLD`] adjustments land inside [`STORM_WINDOW_US`].
    fn note_adjustment(&self, at: u64, tenant: &str, corr: u64) {
        let tripped = match self.storm_window.lock() {
            Ok(mut window) => {
                window.push_back(at);
                while window.front().is_some_and(|&t| t + STORM_WINDOW_US < at) {
                    window.pop_front();
                }
                if window.len() >= STORM_THRESHOLD {
                    window.clear();
                    true
                } else {
                    false
                }
            }
            Err(_) => false,
        };
        if tripped {
            self.flight_trip(
                &format!(
                    "adjustment storm: {STORM_THRESHOLD} adjustments within {}s",
                    STORM_WINDOW_US / 1_000_000
                ),
                at,
                tenant,
                corr,
            );
        }
    }

    /// Whether a shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (also used by the server on accept errors).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Hosted network count.
    #[must_use]
    pub fn network_count(&self) -> usize {
        self.tenants.read().map(|t| t.len()).unwrap_or(0)
    }

    /// The final daemon metrics snapshot (flushed on shutdown).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .lock()
            .map(|m| m.registry.snapshot())
            .unwrap_or_default()
    }

    fn record_request(&self, us: u64, alloc_us: u64, class: &'static str, is_error: bool) {
        if let Ok(mut m) = self.metrics.lock() {
            let (req, err, hist, alloc) = (
                m.requests_total,
                m.http_errors,
                m.request_us,
                m.allocator_us,
            );
            m.registry.inc(req, 1);
            if is_error {
                m.registry.inc(err, 1);
            }
            m.registry.observe(hist, us);
            if alloc_us > 0 {
                m.registry.observe(alloc, alloc_us);
            }
            if let Some(&(_, id)) = m.route_us.iter().find(|(c, _)| *c == class) {
                m.registry.observe(id, us);
            }
        }
    }

    fn refresh_network_gauges(&self) {
        let (count, nodes) = {
            let tenants = match self.tenants.read() {
                Ok(t) => t,
                Err(_) => return,
            };
            let nodes: usize = tenants.values().map(|slot| slot.nodes_hint()).sum();
            (tenants.len(), nodes)
        };
        let spans_dropped = self
            .spans
            .lock()
            .map(|s| s.total_recorded() - s.len() as u64)
            .unwrap_or(0);
        let (flight_dropped, flight_trips) = self
            .flight
            .lock()
            .map(|f| (f.dropped(), f.trips()))
            .unwrap_or((0, 0));
        if let Ok(mut m) = self.metrics.lock() {
            let (g_networks, g_nodes) = (m.networks, m.aggregate_nodes);
            let (g_spans, g_fdrop, g_trips) = (m.spans_dropped, m.flight_dropped, m.flight_trips);
            m.registry.set(g_networks, count as f64);
            m.registry.set(g_nodes, nodes as f64);
            m.registry.set(g_spans, spans_dropped as f64);
            m.registry.set(g_fdrop, flight_dropped as f64);
            m.registry.set(g_trips, flight_trips as f64);
        }
    }
}

/// What a handler reports back about where the request's time went and
/// which tenant it touched — folded into the request's spans and flight
/// event by [`handle_request_timed`].
#[derive(Default)]
struct RouteTiming {
    /// Time spent inside the allocator (converge, adjust, summary), µs.
    allocator_us: u64,
    /// Time spent formatting the response body, µs.
    encode_us: u64,
    /// The tenant the request addressed, when any.
    tenant: Option<String>,
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Routes one request; this is the whole HTTP surface of the daemon.
/// Always returns a [`Response`] — failures become their status code.
pub fn handle_request(state: &AppState, req: &Request) -> Response {
    handle_request_timed(state, req, 0)
}

/// Like [`handle_request`], with the time the transport spent parsing the
/// request head and body (`parse_us`) folded into the request's spans and
/// latency observation. Every request gets a fresh correlation id; the
/// parse/route/allocator/encode spans land in the daemon span ring (layer
/// `"harpd"`, µs-since-boot timebase) stamped with that id, a `"request"`
/// event lands in the flight recorder, and a latency-SLO breach trips the
/// recorder into freezing an incident snapshot.
pub fn handle_request_timed(state: &AppState, req: &Request, parse_us: u64) -> Response {
    let corr = state.next_correlation();
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let class = route_class(&req.method, &segments);
    let t0 = state.uptime_us();
    let start = Instant::now();
    let mut timing = RouteTiming::default();
    let result = route(state, req, corr, &mut timing);
    let route_us = elapsed_us(start);
    let response = match result {
        Ok(resp) => resp,
        Err(err) => Response::from_error(&err),
    };
    let status = response.status;
    let total_us = parse_us + route_us;
    state.record_request(total_us, timing.allocator_us, class, status >= 400);

    if let Ok(mut spans) = state.spans.lock() {
        let span =
            |name: &'static str, depth: u32, start_us: u64, end_us: u64, detail: i64| SpanEvent {
                name,
                layer: "harpd",
                node: NO_NODE,
                depth,
                start_asn: start_us,
                end_asn: end_us,
                detail,
                corr,
            };
        let t_in = t0.saturating_sub(parse_us);
        let t_out = t0 + route_us;
        spans.record(span("request", 0, t_in, t_out, i64::from(status)));
        spans.record(span("parse", 1, t_in, t0, req.body.len() as i64));
        spans.record(span("route", 1, t0, t_out, i64::from(status)));
        if timing.allocator_us > 0 {
            spans.record(span(
                "allocator",
                2,
                t0,
                t0 + timing.allocator_us,
                timing.allocator_us as i64,
            ));
        }
        spans.record(span(
            "encode",
            2,
            t_out.saturating_sub(timing.encode_us.min(route_us)),
            t_out,
            response.body.len() as i64,
        ));
    }

    let tenant = timing.tenant.unwrap_or_default();
    let at = t0 + route_us;
    state.flight_record(FlightEvent {
        seq: 0,
        at,
        kind: "request",
        tenant: tenant.clone(),
        corr,
        node: NO_FLIGHT_NODE,
        detail: format!("{} {} -> {status}", req.method, req.path),
        magnitude: total_us as i64,
    });
    let slo = state.slo_us.load(Ordering::Relaxed);
    if total_us > slo {
        state.flight_trip(
            &format!("latency SLO breach: {class} took {total_us}us (slo {slo}us)"),
            at,
            &tenant,
            corr,
        );
    }
    response
}

fn route(
    state: &AppState,
    req: &Request,
    corr: u64,
    timing: &mut RouteTiming,
) -> Result<Response, HttpError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => Ok(health(state)),
        ("GET", ["metrics"]) => Ok(metrics(state)),
        ("GET", ["debug", "health"]) => Ok(debug_health(state)),
        ("GET", ["debug", "trace", id]) => debug_trace(state, id, timing),
        ("GET", ["debug", "flight"]) => debug_flight(state, req),
        ("GET", ["networks"]) => Ok(list_networks(state)),
        ("POST", ["networks"]) => create_network(state, req, corr, timing),
        ("GET", ["networks", id, "schedule"]) => schedule(state, id, corr, timing),
        ("POST", ["networks", id, "adjust"]) => adjust(state, id, req, corr, timing),
        ("DELETE", ["networks", id]) => delete_network(state, id, corr, timing),
        ("POST", ["shutdown"]) => shutdown(state, req),
        (_, ["health" | "metrics" | "networks" | "shutdown" | "debug", ..]) => {
            Err(HttpError::new(405, "method not allowed on this resource"))
        }
        _ => Err(HttpError::new(404, "no such route")),
    }
}

fn health(state: &AppState) -> Response {
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"status\": \"ok\", \"networks\": ")
        .u64(state.network_count() as u64)
        .raw(", \"shutting_down\": ")
        .bool(state.is_shutting_down())
        .raw("}\n");
    Response::json_bytes(200, b.into_bytes())
}

fn metrics(state: &AppState) -> Response {
    state.refresh_network_gauges();
    let mut groups: Vec<(Labels, MetricsSnapshot)> = vec![(Vec::new(), state.metrics_snapshot())];
    if let Ok(tenants) = state.tenants.read() {
        for (id, slot) in tenants.iter() {
            if let Some(snap) = slot.scrape_metrics() {
                groups.push((vec![("tenant".into(), id.clone())], (*snap).clone()));
            }
        }
    }
    Response::text(200, "text/plain; version=0.0.4", render_exposition(&groups))
}

fn list_networks(state: &AppState) -> Response {
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"networks\": [");
    if let Ok(tenants) = state.tenants.read() {
        let mut first = true;
        for (id, slot) in tenants.iter() {
            let Ok(tenant) = slot.tenant.lock() else {
                continue;
            };
            if !first {
                b.raw(", ");
            }
            first = false;
            let s = tenant.handle.summary();
            b.raw("{\"tenant\": ")
                .string(id)
                .raw(", \"scenario\": ")
                .string(&tenant.scenario_name)
                .raw(", \"nodes\": ")
                .u64(s.nodes as u64)
                .raw(", \"adjustments\": ")
                .u64(tenant.handle.adjustments())
                .raw("}");
        }
    }
    b.raw("]}\n");
    Response::json_bytes(200, b.into_bytes())
}

fn body_json(req: &Request) -> Result<Json, HttpError> {
    let text = req.body_str()?;
    parse(text).map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))
}

fn str_field<'j>(json: &'j Json, key: &str) -> Result<&'j str, HttpError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::new(400, format!("missing string field \"{key}\"")))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, HttpError> {
    let v = json
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| HttpError::new(400, format!("missing numeric field \"{key}\"")))?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(HttpError::new(
            400,
            format!("field \"{key}\" must be a non-negative integer"),
        ));
    }
    Ok(v as u64)
}

fn load_scenario_text(state: &AppState, json: &Json) -> Result<(String, String), HttpError> {
    if let Some(inline) = json.get("scenario").and_then(Json::as_str) {
        return Ok(("inline".to_owned(), inline.to_owned()));
    }
    let name = str_field(json, "scenario_file").map_err(|_| {
        HttpError::new(
            400,
            "body needs \"scenario\" (inline) or \"scenario_file\" (named)",
        )
    })?;
    if name.contains('/') || name.contains('\\') || name.contains("..") {
        return Err(HttpError::new(400, "scenario_file must be a bare name"));
    }
    let file = if name.ends_with(".scn") {
        name.to_owned()
    } else {
        format!("{name}.scn")
    };
    let path = state.scenario_dir.join(&file);
    let text = std::fs::read_to_string(&path)
        .map_err(|_| HttpError::new(404, format!("no checked-in scenario named \"{file}\"")))?;
    Ok((name.to_owned(), text))
}

fn create_network(
    state: &AppState,
    req: &Request,
    corr: u64,
    timing: &mut RouteTiming,
) -> Result<Response, HttpError> {
    if state.is_shutting_down() {
        return Err(HttpError::new(409, "daemon is shutting down"));
    }
    let json = body_json(req)?;
    let tenant_id = str_field(&json, "tenant")?.to_owned();
    if tenant_id.is_empty() || tenant_id.len() > 128 {
        return Err(HttpError::new(400, "tenant id must be 1..=128 characters"));
    }
    timing.tenant = Some(tenant_id.clone());
    let (source, text) = load_scenario_text(state, &json)?;
    let scenario = parse_scenario(&text)
        .map_err(|e| HttpError::new(422, format!("scenario does not parse: {e}")))?;
    let config = scenario
        .slotframe_config()
        .map_err(|e| HttpError::new(422, e))?;
    let tree = scenario
        .trees(true)
        .into_iter()
        .next()
        .ok_or_else(|| HttpError::new(422, "scenario yields no topology"))?;
    let requirements: Requirements = scenario.requirements(&tree);
    // Converge observed so /debug/trace/<tenant> can resolve request ids
    // to allocator and control-plane spans from the first message on.
    let alloc_start = Instant::now();
    let handle = AllocatorHandle::converge_observed(
        tree,
        config,
        &requirements,
        SchedulingPolicy::RateMonotonic,
        ALLOCATOR_SPAN_CAPACITY,
    )
    .map_err(|e| HttpError::new(422, format!("scenario demand is infeasible: {e}")))?;
    timing.allocator_us = elapsed_us(alloc_start);

    let scenario_name = if source == "inline" {
        scenario.name.clone()
    } else {
        source
    };
    let summary = handle.summary();
    let static_report = handle.static_report();
    let enc_start = Instant::now();
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"tenant\": ")
        .string(&tenant_id)
        .raw(", \"scenario\": ")
        .string(&scenario_name)
        .raw(", \"nodes\": ")
        .u64(summary.nodes as u64)
        .raw(", \"assignments\": ")
        .u64(summary.assignments as u64)
        .raw(", \"active_cells\": ")
        .u64(summary.active_cells as u64)
        .raw(", \"exclusive\": ")
        .bool(summary.exclusive)
        .raw(", \"static_mgmt_messages\": ")
        .u64(static_report.mgmt_messages)
        .raw(", \"correlation_id\": ")
        .u64(corr)
        .raw("}\n");
    let body = b.into_bytes();
    timing.encode_us = elapsed_us(enc_start);
    state.flight_record(FlightEvent {
        seq: 0,
        at: state.uptime_us(),
        kind: "create",
        tenant: tenant_id.clone(),
        corr,
        node: NO_FLIGHT_NODE,
        detail: scenario_name.clone(),
        magnitude: summary.nodes as i64,
    });

    let tenant = Tenant {
        handle,
        scenario_name,
        request_spans: SpanRing::new(TRACE_DUMP_LIMIT),
    };
    let slot = Arc::new(TenantSlot::new(tenant));
    {
        let mut tenants = state
            .tenants
            .write()
            .map_err(|_| HttpError::new(500, "tenant map poisoned"))?;
        if tenants.contains_key(&tenant_id) {
            return Err(HttpError::new(
                409,
                format!("tenant \"{tenant_id}\" already hosts a network"),
            ));
        }
        tenants.insert(tenant_id, slot);
    }
    if let Ok(mut m) = state.metrics.lock() {
        let c = m.creates;
        m.registry.inc(c, 1);
    }
    Ok(Response::json_bytes(201, body))
}

fn tenant_of(state: &AppState, id: &str) -> Result<Arc<TenantSlot>, HttpError> {
    state
        .tenants
        .read()
        .map_err(|_| HttpError::new(500, "tenant map poisoned"))?
        .get(id)
        .cloned()
        .ok_or_else(|| HttpError::new(404, format!("no network for tenant \"{id}\"")))
}

/// Records one request span into a tenant's ring (µs timebase, layer
/// `"harpd"`), stamped with the request's correlation id.
fn record_tenant_span(
    tenant: &mut Tenant,
    name: &'static str,
    node: u32,
    start_us: u64,
    end_us: u64,
    detail: i64,
    corr: u64,
) {
    tenant.request_spans.record(SpanEvent {
        name,
        layer: "harpd",
        node,
        depth: 0,
        start_asn: start_us,
        end_asn: end_us,
        detail,
        corr,
    });
}

fn schedule(
    state: &AppState,
    id: &str,
    corr: u64,
    timing: &mut RouteTiming,
) -> Result<Response, HttpError> {
    timing.tenant = Some(id.to_owned());
    let slot = tenant_of(state, id)?;
    slot.schedule_queries.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut m) = state.metrics.lock() {
        let c = m.schedule_queries;
        m.registry.inc(c, 1);
    }
    // Fast path: nothing has mutated the allocator since the cached body
    // was rendered — answer without touching the tenant mutex (and
    // without a per-tenant span: no allocator work happened).
    if let Some(body) = slot.cached_schedule() {
        let enc_start = Instant::now();
        let mut out = state.take_buf();
        out.extend_from_slice(&body);
        timing.encode_us = elapsed_us(enc_start);
        return Ok(Response::json_bytes(200, out));
    }
    // Slow path: render under the lock and refill the cache. The version
    // stamp is read while the lock is held, so the cache entry can never
    // claim a newer state than the one it was rendered from.
    let mut tenant = slot
        .tenant
        .lock()
        .map_err(|_| HttpError::new(500, "tenant poisoned"))?;
    let alloc_start = Instant::now();
    let started_us = state.uptime_us();
    let s = tenant.handle.summary();
    let version = tenant.handle.version();
    timing.allocator_us = elapsed_us(alloc_start);
    record_tenant_span(
        &mut tenant,
        "schedule",
        NO_NODE,
        started_us,
        state.uptime_us(),
        s.assignments as i64,
        corr,
    );
    drop(tenant);
    let enc_start = Instant::now();
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"tenant\": ")
        .string(id)
        .raw(", \"nodes\": ")
        .u64(s.nodes as u64)
        .raw(", \"scheduled_links\": ")
        .u64(s.scheduled_links as u64)
        .raw(", \"assignments\": ")
        .u64(s.assignments as u64)
        .raw(", \"active_cells\": ")
        .u64(s.active_cells as u64)
        .raw(", \"slots\": ")
        .u64(u64::from(s.slots))
        .raw(", \"channels\": ")
        .u64(u64::from(s.channels))
        .raw(", \"exclusive\": ")
        .bool(s.exclusive)
        .raw(", \"asn\": ")
        .u64(s.asn)
        .raw("}\n");
    let body = b.into_bytes();
    if let Ok(mut cache) = slot.schedule_cache.write() {
        *cache = Some((version, Arc::new(body.clone())));
    }
    timing.encode_us = elapsed_us(enc_start);
    Ok(Response::json_bytes(200, body))
}

fn adjust(
    state: &AppState,
    id: &str,
    req: &Request,
    corr: u64,
    timing: &mut RouteTiming,
) -> Result<Response, HttpError> {
    timing.tenant = Some(id.to_owned());
    let json = body_json(req)?;
    let node = u64_field(&json, "node")?;
    let cells = u64_field(&json, "cells")?;
    let node = u32::try_from(node).map_err(|_| HttpError::new(400, "node out of range"))?;
    let cells = u32::try_from(cells).map_err(|_| HttpError::new(400, "cells out of range"))?;
    let down = matches!(json.get("direction").and_then(Json::as_str), Some("down"));

    let slot = tenant_of(state, id)?;
    let mut tenant = slot
        .tenant
        .lock()
        .map_err(|_| HttpError::new(500, "tenant poisoned"))?;
    if !tenant.handle.is_adjustable_node(NodeId(node)) {
        return Err(HttpError::new(
            422,
            format!("node {node} is not an adjustable (non-gateway) node of this network"),
        ));
    }
    let link = if down {
        Link::down(NodeId(node))
    } else {
        Link::up(NodeId(node))
    };
    // The correlated adjustment stamps the allocator's "adjust" span and
    // every mgmt/cell op span with this request's id — the thread that
    // lets /debug/trace/<tenant> resolve the id the client got back.
    let alloc_start = Instant::now();
    let started_us = state.uptime_us();
    let result = tenant.handle.adjust_correlated(link, cells, corr);
    timing.allocator_us = elapsed_us(alloc_start);
    // Publish the new stamp while the lock is still held: even a rejected
    // adjustment advances the allocator clock, so any cached schedule
    // body is stale either way.
    slot.version
        .store(tenant.handle.version(), Ordering::Release);
    let bill = result.map_err(|e| {
        HttpError::new(
            409,
            format!("adjustment infeasible, schedule rolled back: {e}"),
        )
    })?;
    record_tenant_span(
        &mut tenant,
        "adjust",
        node,
        started_us,
        state.uptime_us(),
        bill.mgmt_messages as i64,
        corr,
    );
    drop(tenant);
    if let Ok(mut m) = state.metrics.lock() {
        let c = m.adjustments;
        m.registry.inc(c, 1);
    }
    let at = state.uptime_us();
    state.flight_record(FlightEvent {
        seq: 0,
        at,
        kind: "adjust",
        tenant: id.to_owned(),
        corr,
        node: i64::from(node),
        detail: format!("cells={cells}"),
        magnitude: bill.mgmt_messages as i64,
    });
    state.note_adjustment(at, id, corr);
    let enc_start = Instant::now();
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"tenant\": ")
        .string(id)
        .raw(", \"node\": ")
        .u64(u64::from(node))
        .raw(", \"cells\": ")
        .u64(u64::from(cells))
        .raw(", \"mgmt_messages\": ")
        .u64(bill.mgmt_messages)
        .raw(", \"cell_messages\": ")
        .u64(bill.cell_messages)
        .raw(", \"involved_nodes\": ")
        .u64(bill.involved_nodes as u64)
        .raw(", \"layers_touched\": ")
        .u64(bill.layers_touched as u64)
        .raw(", \"slotframes\": ")
        .u64(bill.slotframes)
        .raw(", \"seconds\": ")
        .fixed(bill.seconds, 6)
        .raw(", \"correlation_id\": ")
        .u64(corr)
        .raw("}\n");
    let resp = Response::json_bytes(200, b.into_bytes());
    timing.encode_us = elapsed_us(enc_start);
    Ok(resp)
}

fn delete_network(
    state: &AppState,
    id: &str,
    corr: u64,
    timing: &mut RouteTiming,
) -> Result<Response, HttpError> {
    timing.tenant = Some(id.to_owned());
    // Taken out under the write lock, freed after it: dropping a network
    // takes long enough that every route of every tenant would wait for it.
    let removed = state
        .tenants
        .write()
        .map_err(|_| HttpError::new(500, "tenant map poisoned"))?
        .remove(id);
    let Some(slot) = removed else {
        return Err(HttpError::new(
            404,
            format!("no network for tenant \"{id}\""),
        ));
    };
    drop(slot);
    state.flight_record(FlightEvent {
        seq: 0,
        at: state.uptime_us(),
        kind: "delete",
        tenant: id.to_owned(),
        corr,
        node: NO_FLIGHT_NODE,
        detail: String::new(),
        magnitude: 0,
    });
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"tenant\": ")
        .string(id)
        .raw(", \"deleted\": true}\n");
    Ok(Response::json_bytes(200, b.into_bytes()))
}

/// `GET /debug/health`: per-tenant liveness and queue depths — everything
/// an operator polls first when the service misbehaves.
fn debug_health(state: &AppState) -> Response {
    let (spans_recorded, spans_dropped) = state
        .spans
        .lock()
        .map(|s| (s.total_recorded(), s.total_recorded() - s.len() as u64))
        .unwrap_or((0, 0));
    let (flight_recorded, flight_dropped, flight_trips) = state
        .flight
        .lock()
        .map(|f| (f.total_recorded(), f.dropped(), f.trips()))
        .unwrap_or((0, 0, 0));
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"status\": \"")
        .raw(if state.is_shutting_down() {
            "draining"
        } else {
            "ok"
        })
        .raw("\", \"uptime_us\": ")
        .u64(state.uptime_us())
        .raw(", \"queue_depth\": ")
        .i64(state.queue_depth())
        .raw(", \"spans\": {\"recorded\": ")
        .u64(spans_recorded)
        .raw(", \"dropped\": ")
        .u64(spans_dropped)
        .raw("}, \"flight\": {\"recorded\": ")
        .u64(flight_recorded)
        .raw(", \"dropped\": ")
        .u64(flight_dropped)
        .raw(", \"trips\": ")
        .u64(flight_trips)
        .raw("}, \"tenants\": [");
    if let Ok(tenants) = state.tenants.read() {
        let mut first = true;
        for (id, slot) in tenants.iter() {
            if !first {
                b.raw(", ");
            }
            first = false;
            // try_lock as a liveness probe: a held lock means the tenant
            // is mid-operation (busy), not dead — report it rather than
            // queueing behind it.
            match slot.tenant.try_lock() {
                Ok(tenant) => {
                    let s = tenant.handle.summary();
                    b.raw("{\"tenant\": ")
                        .string(id)
                        .raw(", \"busy\": false, \"nodes\": ")
                        .u64(s.nodes as u64)
                        .raw(", \"adjustments\": ")
                        .u64(tenant.handle.adjustments())
                        .raw(", \"schedule_queries\": ")
                        .u64(slot.schedule_queries.load(Ordering::Relaxed))
                        .raw(", \"spans_recorded\": ")
                        .u64(tenant.request_spans.total_recorded())
                        .raw(", \"spans_dropped\": ")
                        .u64(tenant.spans_dropped())
                        .raw("}");
                }
                Err(_) => {
                    b.raw("{\"tenant\": ").string(id).raw(", \"busy\": true}");
                }
            }
        }
    }
    b.raw("]}\n");
    Response::json_bytes(200, b.into_bytes())
}

/// `GET /debug/trace/<tenant>`: the tenant's span rings — its request
/// spans (µs-since-boot timebase) and the merged allocator + control-plane
/// trace (ASN timebase), both carrying correlation ids.
fn debug_trace(
    state: &AppState,
    id: &str,
    timing: &mut RouteTiming,
) -> Result<Response, HttpError> {
    timing.tenant = Some(id.to_owned());
    let slot = tenant_of(state, id)?;
    let tenant = slot
        .tenant
        .lock()
        .map_err(|_| HttpError::new(500, "tenant poisoned"))?;
    let request_spans = tenant.request_spans.to_json(TRACE_DUMP_LIMIT);
    let allocator = merged_trace_json(&tenant.handle.network().span_rings(), TRACE_DUMP_LIMIT);
    drop(tenant);
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"tenant\": ")
        .string(id)
        .raw(", \"request_timebase\": \"us_since_boot\", \"allocator_timebase\": \"asn\", \"request_spans\": ")
        .raw(&request_spans)
        .raw(", \"allocator_trace\": ")
        .raw(&allocator)
        .raw("}\n");
    Ok(Response::json_bytes(200, b.into_bytes()))
}

/// `GET /debug/flight[?incident]`: the live flight-recorder ring, or the
/// incident snapshot frozen by the first SLO/storm trip.
fn debug_flight(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let want_incident = req.query.iter().any(|(k, _)| k == "incident");
    let flight = state
        .flight
        .lock()
        .map_err(|_| HttpError::new(500, "flight recorder poisoned"))?;
    if want_incident {
        let Some(incident) = flight.incident_json() else {
            return Err(HttpError::new(404, "nothing has tripped the recorder"));
        };
        return Ok(Response::json(200, format!("{incident}\n")));
    }
    Ok(Response::json(
        200,
        format!("{}\n", flight.to_json(FLIGHT_DUMP_LIMIT)),
    ))
}

fn shutdown(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let presented = req
        .query_value("token")
        .or_else(|| req.header("x-harpd-token"))
        .unwrap_or_default();
    if presented != state.token {
        return Err(HttpError::new(403, "shutdown token mismatch"));
    }
    state.request_shutdown();
    Ok(Response::json(
        200,
        "{\"shutting_down\": true}\n".to_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_SCN: &str =
        "scenario tiny\nseed 1\n[topology]\ngenerator fig1\n[workloads]\ndemand uniform cells=1\n";

    fn state() -> AppState {
        AppState::new("secret".into(), PathBuf::from("/nonexistent"))
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn create_tiny(state: &AppState, tenant: &str) -> Response {
        let body = format!(
            "{{\"tenant\": \"{tenant}\", \"scenario\": \"{}\"}}",
            TINY_SCN.replace('\n', "\\n")
        );
        handle_request(state, &post("/networks", &body))
    }

    #[test]
    fn create_query_adjust_delete_round_trip() {
        let state = state();
        let resp = create_tiny(&state, "t1");
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));

        let resp = handle_request(&state, &get("/networks/t1/schedule"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"exclusive\": true"), "{text}");

        let resp = handle_request(
            &state,
            &post("/networks/t1/adjust", "{\"node\": 9, \"cells\": 2}"),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"mgmt_messages\""), "{text}");

        let mut req = get("/networks/t1");
        req.method = "DELETE".into();
        assert_eq!(handle_request(&state, &req).status, 200);
        assert_eq!(
            handle_request(&state, &get("/networks/t1/schedule")).status,
            404
        );
    }

    #[test]
    fn duplicate_tenant_is_conflict() {
        let state = state();
        assert_eq!(create_tiny(&state, "dup").status, 201);
        assert_eq!(create_tiny(&state, "dup").status, 409);
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

    #[test]
    fn scenario_file_names_are_sandboxed() {
        let state = state();
        let resp = handle_request(
            &state,
            &post(
                "/networks",
                "{\"tenant\": \"t\", \"scenario_file\": \"../../etc/passwd\"}",
            ),
        );
        assert_eq!(resp.status, 400);
        let resp = handle_request(
            &state,
            &post(
                "/networks",
                "{\"tenant\": \"t\", \"scenario_file\": \"ghost\"}",
            ),
        );
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn shutdown_requires_token() {
        let state = state();
        let mut req = post("/shutdown", "");
        assert_eq!(handle_request(&state, &req).status, 403);
        assert!(!state.is_shutting_down());
        req.query = vec![("token".into(), "secret".into())];
        assert_eq!(handle_request(&state, &req).status, 200);
        assert!(state.is_shutting_down());
        // Creates are refused while draining.
        assert_eq!(create_tiny(&state, "late").status, 409);
    }

    #[test]
    fn metrics_exposition_is_valid_and_labelled() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        handle_request(&state, &get("/networks/t1/schedule"));
        let resp = handle_request(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        harp_obs::prometheus::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("harpd_requests_total"), "{text}");
        assert!(text.contains("tenant=\"t1\""), "{text}");
        assert!(text.contains("harpd_request_us_p99"), "{text}");
    }

    /// Pulls `"correlation_id": N` out of a response body.
    fn correlation_of(body: &str) -> u64 {
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

    #[test]
    fn adjust_correlation_resolves_in_debug_trace() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        let resp = handle_request(
            &state,
            &post("/networks/t1/adjust", "{\"node\": 9, \"cells\": 2}"),
        );
        assert_eq!(resp.status, 200);
        let corr = correlation_of(&String::from_utf8(resp.body).unwrap());
        assert!(corr > 0);

        let resp = handle_request(&state, &get("/debug/trace/t1"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        let needle = format!("\"corr\": {corr}");
        // The daemon-side request span, the allocator's mgmt/cell ops and
        // the control-plane transport spans must all carry the id.
        let (req_part, alloc_part) = text
            .split_once("\"allocator_trace\"")
            .expect("trace has both sections");
        assert!(
            req_part.contains(&needle),
            "request spans lost corr: {text}"
        );
        assert!(
            alloc_part.contains(&needle),
            "allocator trace lost corr: {text}"
        );
        assert!(alloc_part.contains("mgmt_op"), "{text}");
        // Spans from the earlier create keep corr 0 and thus serialise no
        // corr field at all — only the adjusted request is tagged.
        assert!(alloc_part.contains("\"layer\": \"harp\""), "{text}");
    }

    #[test]
    fn debug_trace_of_a_wrapped_ring_holds_exactly_the_newest_spans() {
        const WRAPPED: usize = 8;
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        // One request span per adjustment, under its correlation id.
        let corrs: Vec<u64> = (0..TRACE_DUMP_LIMIT + WRAPPED)
            .map(|i| {
                let body = format!("{{\"node\": 9, \"cells\": {}}}", 1 + i % 2);
                let resp = handle_request(&state, &post("/networks/t1/adjust", &body));
                assert_eq!(resp.status, 200);
                correlation_of(&String::from_utf8(resp.body).unwrap())
            })
            .collect();

        let resp = handle_request(&state, &get("/debug/trace/t1"));
        assert_eq!(resp.status, 200);
        let doc = harp_obs::json::parse(&String::from_utf8(resp.body).unwrap()).unwrap();
        let requests =
            harp_obs::flame::TraceDoc::from_json(doc.get("request_spans").unwrap()).unwrap();
        let kept: Vec<u64> = requests.spans.iter().map(|s| s.corr).collect();
        assert_eq!(kept, corrs[WRAPPED..], "the newest, oldest first");
        assert_eq!(requests.dropped, WRAPPED as u64);
        // The ring keeps what its reader returns and no more, so what the
        // tenant reports dropped is what a reader can no longer get.
        let slot = tenant_of(&state, "t1").unwrap();
        let tenant = slot.tenant.lock().unwrap();
        assert_eq!(tenant.request_spans.len(), TRACE_DUMP_LIMIT);
        assert_eq!(tenant.spans_dropped(), requests.dropped);
    }

    #[test]
    fn debug_health_reports_tenants_and_counters() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        handle_request(&state, &get("/networks/t1/schedule"));
        let resp = handle_request(&state, &get("/debug/health"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"status\": \"ok\""), "{text}");
        assert!(text.contains("\"tenant\": \"t1\""), "{text}");
        assert!(text.contains("\"busy\": false"), "{text}");
        assert!(text.contains("\"schedule_queries\": 1"), "{text}");
        assert!(text.contains("\"queue_depth\": 0"), "{text}");
    }

    #[test]
    fn debug_flight_dumps_requests_and_404s_without_incident() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        handle_request(
            &state,
            &post("/networks/t1/adjust", "{\"node\": 9, \"cells\": 1}"),
        );
        let resp = handle_request(&state, &get("/debug/flight"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        let doc = harp_obs::FlightDoc::parse_str(&text).expect("flight dump parses");
        assert!(doc.events.iter().any(|e| e.kind == "create"), "{text}");
        assert!(doc.events.iter().any(|e| e.kind == "adjust"), "{text}");
        assert!(doc.events.iter().any(|e| e.kind == "request"), "{text}");

        let mut req = get("/debug/flight");
        req.query = vec![("incident".into(), String::new())];
        assert_eq!(handle_request(&state, &req).status, 404);
    }

    #[test]
    fn slo_breach_trips_flight_recorder() {
        let state = state();
        state.set_slo_us(0); // every request breaches a zero-latency SLO
        assert_eq!(create_tiny(&state, "t1").status, 201);
        let mut req = get("/debug/flight");
        req.query = vec![("incident".into(), String::new())];
        let resp = handle_request(&state, &req);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"reason\": \"latency SLO breach"), "{text}");
        assert!(text.contains("\"dump\""), "{text}");
    }

    #[test]
    fn debug_trace_unknown_tenant_is_404() {
        let state = state();
        assert_eq!(
            handle_request(&state, &get("/debug/trace/ghost")).status,
            404
        );
    }

    #[test]
    fn infeasible_adjustment_is_conflict_not_crash() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        let resp = handle_request(
            &state,
            &post("/networks/t1/adjust", "{\"node\": 9, \"cells\": 100000}"),
        );
        assert_eq!(resp.status, 409);
        // The network still serves.
        assert_eq!(
            handle_request(&state, &get("/networks/t1/schedule")).status,
            200
        );
    }
}
