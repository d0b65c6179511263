//! Daemon telemetry: one [`Record`] per request, written under one lock,
//! by one function.
//!
//! A route handler never touches this module's state: it fills in the
//! request's record, and the router hands that to [`Telemetry::record`]
//! with the route class and status. The one mutex is a leaf lock: nothing
//! else is acquired while it is held, and no tenant lock is held when it
//! is taken.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use harp_obs::{
    CounterId, FlightRecorder, HistogramId, MetricsRegistry, MetricsSnapshot, NO_FLIGHT_NODE,
};

use super::tenant::storm_reason;

/// Microsecond bucket bounds for the request-latency histograms:
/// powers of two from 1 µs to ~67 s, wide enough that a large-network
/// convergence never lands in the overflow bucket.
const REQUEST_US_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131_072,
    262_144, 524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608, 16_777_216, 33_554_432,
    67_108_864,
];

/// Default per-request latency SLO: a request slower than this trips the
/// flight recorder into freezing an incident snapshot.
pub(crate) const DEFAULT_SLO_US: u64 = 2_000_000;

/// Event capacity of the always-on flight recorder.
const FLIGHT_CAPACITY: usize = 1024;
/// Most recent events returned by `/debug/flight`.
const FLIGHT_DUMP_LIMIT: usize = 512;

/// The route classes the daemon meters individually: every request folds
/// into exactly one, giving per-route latency histograms (p50/p95/p99 via
/// the derived exposition gauges) without unbounded label cardinality.
#[derive(Clone, Copy)]
pub(super) enum RouteClass {
    Health,
    Metrics,
    List,
    Create,
    Schedule,
    Adjust,
    Delete,
    Shutdown,
    Debug,
    Other,
}

/// Class name and latency-histogram name, indexed by `RouteClass as usize`.
const ROUTES: [(&str, &str); 10] = [
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

/// The operation a request carried out. A refused or failed request
/// carries none, so counters and lifecycle events only describe what
/// happened.
pub(super) enum Op {
    Created {
        scenario: String,
        nodes: usize,
    },
    Adjusted {
        node: u32,
        cells: u32,
        mgmt_messages: u64,
    },
    Deleted,
    /// A schedule query reached an existing tenant (cache hit or render).
    ScheduleQuery,
}

/// Everything telemetry learns about one request: opened by
/// [`Telemetry::begin`], filled in by the route handler, written once by
/// [`Telemetry::record`].
#[derive(Default)]
pub(super) struct Record<'r> {
    /// The request's correlation id (0 is [`harp_obs::NO_CORRELATION`]).
    pub(super) corr: u64,
    /// The daemon's uptime when the request was routed.
    started: Duration,
    method: &'r str,
    path: &'r str,
    parse_us: u64,
    /// The tenant the request addressed, when any: borrowed from the path,
    /// owned only by a create, whose tenant id arrives in the body.
    pub(super) tenant: Cow<'r, str>,
    /// Time spent inside the allocator (converge, adjust, summary), µs.
    pub(super) allocator_us: u64,
    /// The operation, if it happened.
    pub(super) op: Option<Op>,
    /// Whether this adjustment tripped its tenant's storm window.
    pub(super) storm: bool,
}

impl Record<'_> {
    /// Writes this request's event of `kind` into the slot the flight ring
    /// hands out, and returns the slot's (empty) detail for the caller to
    /// write: both strings keep the capacity of the event the full ring
    /// evicted. `None` when the ring records nothing.
    fn log<'f>(
        &self,
        flight: &'f mut FlightRecorder,
        at: u64,
        kind: &'static str,
        node: Option<u32>,
        magnitude: u64,
    ) -> Option<&'f mut String> {
        let event = flight.next_slot()?;
        event.at = at;
        event.kind = kind;
        event.tenant.push_str(&self.tenant);
        event.corr = self.corr;
        event.node = node.map_or(NO_FLIGHT_NODE, i64::from);
        event.magnitude = magnitude as i64;
        Some(&mut event.detail)
    }
}

/// Whole microseconds of `d`, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// What the one telemetry mutex guards: the metrics registry (not
/// thread-safe itself) and the always-on flight recorder.
struct Guarded {
    registry: MetricsRegistry,
    flight: FlightRecorder,
}

/// The daemon's clock, correlation-id source, latency SLO, the ids of its
/// pre-registered series, and the one lock over what a request writes.
pub(super) struct Telemetry {
    /// The daemon clock epoch: every span and flight event is stamped in
    /// µs since this instant.
    start: Instant,
    correlation: AtomicU64,
    /// Per-request latency SLO in µs; breaching it trips the recorder.
    slo_us: AtomicU64,
    requests_total: CounterId,
    http_errors: CounterId,
    creates: CounterId,
    adjustments: CounterId,
    schedule_queries: CounterId,
    request_us: HistogramId,
    /// Time spent inside the allocator per request (µs) — subtracting its
    /// percentiles from `request_us` is the server-overhead split.
    allocator_us: HistogramId,
    route_us: [HistogramId; ROUTES.len()],
    guarded: Mutex<Guarded>,
}

impl Telemetry {
    pub(super) fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        Self {
            start: Instant::now(),
            correlation: AtomicU64::new(0),
            slo_us: AtomicU64::new(DEFAULT_SLO_US),
            requests_total: registry.counter("harpd.requests_total"),
            http_errors: registry.counter("harpd.http_errors"),
            creates: registry.counter("harpd.networks_created"),
            adjustments: registry.counter("harpd.adjustments"),
            schedule_queries: registry.counter("harpd.schedule_queries"),
            request_us: registry.histogram("harpd.request_us", REQUEST_US_BOUNDS),
            allocator_us: registry.histogram("harpd.allocator_us", REQUEST_US_BOUNDS),
            route_us: ROUTES.map(|(_, name)| registry.histogram(name, REQUEST_US_BOUNDS)),
            guarded: Mutex::new(Guarded {
                registry,
                flight: FlightRecorder::new(FLIGHT_CAPACITY),
            }),
        }
    }

    /// The guarded state. A poisoned lock is entered all the same: every
    /// write under it is a counter bump or a ring append that leaves it
    /// valid at each step, and one panic must not silence the instrument.
    fn lock(&self) -> MutexGuard<'_, Guarded> {
        self.guarded.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Microseconds since the daemon started — the timebase of request
    /// spans and flight events.
    pub(super) fn uptime_us(&self) -> u64 {
        micros(self.start.elapsed())
    }

    /// Replaces the per-request latency SLO (µs).
    pub(super) fn set_slo_us(&self, us: u64) {
        self.slo_us.store(us.max(1), Ordering::Relaxed);
    }

    /// Opens the record of one request: hands out its correlation id
    /// (1-based, never 0) and starts its clock.
    pub(super) fn begin<'r>(&self, method: &'r str, path: &'r str, parse_us: u64) -> Record<'r> {
        Record {
            corr: self.correlation.fetch_add(1, Ordering::Relaxed) + 1,
            started: self.start.elapsed(),
            method,
            path,
            parse_us,
            ..Record::default()
        }
    }

    /// The one write path, under the one lock: counts the request,
    /// observes its latencies, appends the lifecycle event of the
    /// operation that happened (then a storm trip, if its tenant's window
    /// tripped), the `"request"` event, and a trip when the request
    /// breached the latency SLO. Events are written into the slots the
    /// flight ring hands out, so once it is full they allocate nothing.
    pub(super) fn record(&self, r: Record<'_>, class: RouteClass, status: u16) {
        let now = self.start.elapsed();
        let (at, total_us) = (micros(now), r.parse_us + micros(now - r.started));
        let mut guard = self.lock();
        let Guarded { registry, flight } = &mut *guard;
        // Tags the frozen incident and logs the trip itself as an event.
        let trip = |flight: &mut FlightRecorder, reason: String| {
            flight.trip(&reason);
            let trips = flight.trips();
            if let Some(detail) = r.log(flight, at, "trip", None, trips) {
                detail.push_str(&reason);
            }
        };

        registry.inc(self.requests_total, 1);
        if status >= 400 {
            registry.inc(self.http_errors, 1);
        }
        registry.observe(self.request_us, total_us);
        if r.allocator_us > 0 {
            registry.observe(self.allocator_us, r.allocator_us);
        }
        registry.observe(self.route_us[class as usize], total_us);
        match &r.op {
            Some(Op::Created { scenario, nodes }) => {
                registry.inc(self.creates, 1);
                if let Some(detail) = r.log(flight, at, "create", None, *nodes as u64) {
                    detail.push_str(scenario);
                }
            }
            Some(Op::Adjusted {
                node,
                cells,
                mgmt_messages,
            }) => {
                registry.inc(self.adjustments, 1);
                if let Some(detail) = r.log(flight, at, "adjust", Some(*node), *mgmt_messages) {
                    let _ = write!(detail, "cells={cells}");
                }
            }
            Some(Op::Deleted) => {
                r.log(flight, at, "delete", None, 0);
            }
            Some(Op::ScheduleQuery) => registry.inc(self.schedule_queries, 1),
            None => {}
        }
        if r.storm {
            trip(flight, storm_reason(&r.tenant));
        }
        if let Some(detail) = r.log(flight, at, "request", None, total_us) {
            // The whole line at once: a slot the ring has not yet recycled
            // allocates once, not once per piece.
            detail.reserve(r.method.len() + r.path.len() + " -> 200 ".len());
            let _ = write!(detail, "{} {} -> {status}", r.method, r.path);
        }
        let slo = self.slo_us.load(Ordering::Relaxed);
        if total_us > slo {
            let class = ROUTES[class as usize].0;
            trip(
                flight,
                format!("latency SLO breach: {class} took {total_us}us (slo {slo}us)"),
            );
        }
    }

    /// The daemon's series, plus the gauges that are readings rather than
    /// running counts: hosted networks, their node total, the flight
    /// ring's accounting.
    pub(super) fn snapshot(&self, networks: usize, nodes: usize) -> MetricsSnapshot {
        let g = self.lock();
        let mut snap = g.registry.snapshot();
        let mut gauge = |name: &str, value: u64| snap.gauges.insert(name.into(), value as f64);
        gauge("harpd.networks", networks as u64);
        gauge("harpd.aggregate_nodes", nodes as u64);
        gauge("harpd.flight_events_dropped", g.flight.dropped());
        gauge("harpd.flight_trips", g.flight.trips());
        snap
    }

    /// The flight ring's `(recorded, dropped, trips)` for `/debug/health`.
    pub(super) fn flight_accounting(&self) -> (u64, u64, u64) {
        let g = self.lock();
        (
            g.flight.total_recorded(),
            g.flight.dropped(),
            g.flight.trips(),
        )
    }

    /// The live flight ring's most recent events as JSON, or — `incident`
    /// — the snapshot frozen by the first SLO or storm trip, if any.
    pub(super) fn flight_json(&self, incident: bool) -> Option<String> {
        let g = self.lock();
        if incident {
            g.flight.incident_json()
        } else {
            Some(g.flight.to_json(FLIGHT_DUMP_LIMIT))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;

    #[test]
    fn slo_breach_trips_flight_recorder() {
        let state = state();
        state.set_slo_us(0); // every request breaches a zero-latency SLO
        assert_eq!(create_tiny(&state, "t1").status, 201);
        let resp = incident(&state);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"reason\": \"latency SLO breach"), "{text}");
        assert!(text.contains("\"dump\""), "{text}");
    }

    #[test]
    fn storm_window_is_per_tenant() {
        let state = state();
        let tenants = ["a", "b", "c", "d"];
        for tenant in tenants {
            assert_eq!(create_tiny(&state, tenant).status, 201);
        }
        let adjust = |tenant: &str, i: usize| {
            let body = format!("{{\"node\": 9, \"cells\": {}}}", 1 + i % 2);
            let resp = handle_request(&state, &post(&format!("/networks/{tenant}/adjust"), &body));
            assert_eq!(resp.status, 200);
        };
        // A healthy fleet: 64 committed adjustments, 16 per tenant.
        for i in 0..64 {
            adjust(tenants[i % 4], i / 4);
        }
        assert_eq!(
            state.telemetry.flight_accounting().2,
            0,
            "no tenant stormed"
        );
        assert_eq!(incident(&state).status, 404);
        // One tenant's 64th adjustment inside the window is a storm: it
        // trips once, and the window starts over.
        for i in 16..65 {
            adjust("a", i);
        }
        assert_eq!(state.telemetry.flight_accounting().2, 1);
        let text = String::from_utf8(incident(&state).body).unwrap();
        assert!(
            text.contains("\"reason\": \"adjustment storm: tenant \\\"a\\\" committed 64"),
            "{text}"
        );
        let trip = flight_events(&state)
            .into_iter()
            .find(|e| e.kind == "trip")
            .expect("the trip is logged");
        assert_eq!((trip.tenant.as_str(), trip.magnitude), ("a", 1));
    }
}
