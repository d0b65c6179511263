//! One hosted network ([`Tenant`], behind its slot's mutex for the
//! duration of one allocator operation) and what is readable without that
//! mutex ([`TenantSlot`]: version mirror, the two caches, counts).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};

use harp_core::AllocatorHandle;
use harp_obs::prometheus::Labels;
use harp_obs::{MetricsSnapshot, SpanEvent, SpanRing, NO_NODE};

use crate::http::HttpError;

/// Span capacity handed to each tenant's observed allocator: four times
/// what `/debug/trace/<tenant>` can return. It cannot shrink alone: the
/// benchmark's stage replay (`benchmark/src/layers.rs`) converges with the
/// same capacity, to replay what a create does here.
pub(super) const ALLOCATOR_SPAN_CAPACITY: usize = 2048;
/// Most recent spans `/debug/trace/<tenant>` returns per ring, and so the
/// capacity of a tenant's request-span ring: that endpoint is its only
/// reader, and a ring reserves its whole capacity on the first span.
pub(super) const TRACE_DUMP_LIMIT: usize = 512;
/// Adjustment-storm detector: this many committed adjustments of one
/// tenant inside [`STORM_WINDOW_US`] trip the flight recorder.
const STORM_THRESHOLD: usize = 64;
const STORM_WINDOW_US: u64 = 10_000_000;

/// Why a tripped storm window trips the flight recorder, for the incident.
pub(super) fn storm_reason(tenant: &str) -> String {
    let secs = STORM_WINDOW_US / 1_000_000;
    format!("adjustment storm: tenant \"{tenant}\" committed {STORM_THRESHOLD} adjustments within {secs}s")
}

/// One hosted network: a converged allocator plus per-tenant counters.
pub(super) struct Tenant {
    /// The long-lived allocator.
    pub(super) handle: AllocatorHandle,
    /// The scenario name the network was created from.
    pub(super) scenario_name: String,
    /// Request spans served against this tenant (µs-since-boot timebase),
    /// each stamped with the request's correlation id.
    pub(super) request_spans: SpanRing,
    /// Commit times (µs since boot) of this tenant's adjustments inside
    /// the storm window. Guarded by the tenant lock the adjust already
    /// holds; empty, so unallocated, until the first adjustment.
    storm_window: VecDeque<u64>,
}

impl Tenant {
    /// Records one request span into the tenant's ring (µs timebase, layer
    /// `"harpd"`), stamped with the request's correlation id.
    pub(super) fn record_span(
        &mut self,
        name: &'static str,
        node: Option<u32>,
        start_us: u64,
        end_us: u64,
        detail: i64,
        corr: u64,
    ) {
        self.request_spans.record(SpanEvent {
            name,
            layer: "harpd",
            node: node.unwrap_or(NO_NODE),
            depth: 0,
            start_asn: start_us,
            end_asn: end_us,
            detail,
            corr,
        });
    }

    /// Slides the storm window over an adjustment committed at `at` and
    /// says whether it was the [`STORM_THRESHOLD`]th inside
    /// [`STORM_WINDOW_US`]; a trip empties the window, so a sustained storm
    /// trips once per threshold, not once per adjustment.
    pub(super) fn slide_storm_window(&mut self, at: u64) -> bool {
        self.storm_window.push_back(at);
        self.storm_window.retain(|&t| t + STORM_WINDOW_US >= at);
        let tripped = self.storm_window.len() >= STORM_THRESHOLD;
        if tripped {
            self.storm_window.clear();
        }
        tripped
    }

    /// Spans recorded but evicted across this tenant's rings (the request
    /// ring plus the allocator's observed layers).
    pub(super) fn spans_dropped(&self) -> u64 {
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

    /// Writes the per-tenant series of the `/metrics` exposition into
    /// `snap`, in place: a series already there is overwritten, so only
    /// the first write allocates. The schedule-query count lives on the
    /// [`TenantSlot`] (it advances on lock-free cache hits), so the caller
    /// passes it in.
    fn write_metrics(&self, snap: &mut MetricsSnapshot, schedule_queries: u64) {
        let summary = self.handle.summary();
        for (name, v) in [
            ("harpd.tenant.adjustments", self.handle.adjustments()),
            (
                "harpd.tenant.mgmt_messages",
                self.handle.mgmt_messages_total(),
            ),
            (
                "harpd.tenant.cell_messages",
                self.handle.cell_messages_total(),
            ),
            ("harpd.tenant.schedule_queries", schedule_queries),
        ] {
            set(&mut snap.counters, name, v);
        }
        for (name, v) in [
            ("harpd.tenant.nodes", summary.nodes as f64),
            ("harpd.tenant.assignments", summary.assignments as f64),
            ("harpd.tenant.active_cells", summary.active_cells as f64),
            ("harpd.tenant.spans_dropped", self.spans_dropped() as f64),
        ] {
            set(&mut snap.gauges, name, v);
        }
    }
}

/// Overwrites the value of series `name`, inserting it the first time.
fn set<T>(series: &mut BTreeMap<String, T>, name: &str, value: T) {
    match series.get_mut(name) {
        Some(slot) => *slot = value,
        None => {
            series.insert(name.to_owned(), value);
        }
    }
}

/// A tenant plus its read-side caches. The mutex guards the allocator;
/// everything else is reachable without it.
pub(super) struct TenantSlot {
    /// The tenant proper, locked for the duration of one allocator op.
    pub(super) tenant: Mutex<Tenant>,
    /// Mirror of [`AllocatorHandle::version`], written only while the
    /// tenant lock is held (create and adjust — a *rejected* adjustment
    /// also advances it, because the allocator clock moved). Readers
    /// compare it against a cached render's stamp without the mutex.
    pub(super) version: AtomicU64,
    /// Schedule queries served (atomic so cache hits skip the lock).
    pub(super) schedule_queries: AtomicU64,
    /// The rendered `GET /schedule` body, keyed by the version stamp it
    /// was rendered under.
    pub(super) schedule_cache: RwLock<Option<(u64, Arc<[u8]>)>>,
    /// The tenant's `/metrics` series under its `tenant` label, as the
    /// last scrape that found the tenant lock free read them: written in
    /// place by each such scrape, and replayed as they stand by a scrape
    /// that finds an adjustment holding the lock. Empty until first read.
    scrape: Mutex<(Labels, MetricsSnapshot)>,
    /// Nodes in the network, fixed at create: no route changes a tenant's
    /// topology, so the daemon's node gauge never needs the tenant lock.
    pub(super) nodes: usize,
}

impl TenantSlot {
    pub(super) fn new(handle: AllocatorHandle, scenario_name: String, nodes: usize) -> Self {
        Self {
            version: AtomicU64::new(handle.version()),
            tenant: Mutex::new(Tenant {
                handle,
                scenario_name,
                request_spans: SpanRing::new(TRACE_DUMP_LIMIT),
                storm_window: VecDeque::new(),
            }),
            schedule_queries: AtomicU64::new(0),
            schedule_cache: RwLock::new(None),
            scrape: Mutex::default(),
            nodes,
        }
    }

    /// The tenant, for the duration of one allocator operation.
    pub(super) fn lock(&self) -> Result<MutexGuard<'_, Tenant>, HttpError> {
        self.tenant
            .lock()
            .map_err(|_| HttpError::new(500, "tenant poisoned"))
    }

    /// The cached schedule body, when nothing has mutated the allocator
    /// since it was rendered.
    pub(super) fn cached_schedule(&self) -> Option<Arc<[u8]>> {
        let version = self.version.load(Ordering::Acquire);
        let cache = self.schedule_cache.read().ok()?;
        match cache.as_ref() {
            Some((v, body)) if *v == version => Some(Arc::clone(body)),
            _ => None,
        }
    }

    /// The labelled series of tenant `id` for a `/metrics` scrape, held
    /// for the render: read afresh when the tenant lock is free, replayed
    /// as the last scrape left them when an adjustment holds it — a scrape
    /// never queues behind the allocator. `None` for a poisoned tenant, and
    /// for a busy one no scrape has read yet.
    pub(super) fn scrape_metrics(
        &self,
        id: &str,
    ) -> Option<MutexGuard<'_, (Labels, MetricsSnapshot)>> {
        let queries = self.schedule_queries.load(Ordering::Relaxed);
        let mut scrape = self.scrape.lock().ok()?;
        match self.tenant.try_lock() {
            Ok(tenant) => {
                let (labels, snap) = &mut *scrape;
                if labels.is_empty() {
                    labels.push(("tenant".to_owned(), id.to_owned()));
                }
                tenant.write_metrics(snap, queries);
            }
            Err(TryLockError::WouldBlock) => {}
            Err(TryLockError::Poisoned(_)) => return None,
        }
        (!scrape.1.is_empty()).then_some(scrape)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::TRACE_DUMP_LIMIT;

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
        let slot = state.tenant("t1").unwrap();
        let tenant = slot.tenant.lock().unwrap();
        assert_eq!(tenant.request_spans.len(), TRACE_DUMP_LIMIT);
        assert_eq!(tenant.spans_dropped(), requests.dropped);
    }
}
