//! The operator routes: `/health`, `/metrics`, `/debug/*`, `/shutdown`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use harp_obs::json::JsonBuf;
use harp_obs::merged_trace_json;
use harp_obs::prometheus::Group;

use super::telemetry::Record;
use super::tenant::TRACE_DUMP_LIMIT;
use super::{AppState, Scrape};
use crate::http::{HttpError, Request, Response};

pub(super) fn health(state: &AppState) -> Response {
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"status\": \"ok\", \"networks\": ")
        .u64(state.network_count() as u64)
        .raw(", \"shutting_down\": ")
        .bool(state.is_shutting_down())
        .raw("}\n");
    Response::json_bytes(200, b.into_bytes())
}

/// `GET /metrics`: the daemon's series, then each tenant's under its
/// `tenant` label, rendered straight into a pooled buffer. A scrape writes
/// into what the last one left: the daemon's snapshot and the exposition's
/// family index are kept behind the scrape mutex, and each tenant's series
/// on its slot (see `TenantSlot::scrape_metrics`), all overwritten in
/// place. So a steady scrape allocates twice, the vector of slot guards and
/// the vector of groups, each sized once from the tenant count. The
/// document is ordered by family, so the scrape mutex, the tenant map and
/// every slot stay locked for the whole render, taken in that order.
pub(super) fn metrics(state: &AppState) -> Response {
    // A poisoned scrape is entered anyway: every render overwrites it.
    let mut scrape = state.scrape.lock().unwrap_or_else(PoisonError::into_inner);
    let Scrape { daemon, index } = &mut *scrape;
    let tenants = state.tenants.read().ok();
    state.write_metrics(daemon, tenants.as_deref());
    let slots = tenants.as_deref().map_or(0, BTreeMap::len);
    let mut scraped = Vec::with_capacity(slots);
    scraped.extend(
        tenants
            .iter()
            .flat_map(|t| t.iter())
            .filter_map(|(id, slot)| slot.scrape_metrics(id)),
    );
    let mut groups: Vec<Group<'_>> = Vec::with_capacity(1 + scraped.len());
    groups.push((&[], daemon));
    groups.extend(scraped.iter().map(|s| (&s.0[..], &s.1)));
    let mut text = String::from_utf8(state.take_buf()).unwrap_or_default();
    index.write(&mut text, &groups);
    Response::text(200, "text/plain; version=0.0.4", text)
}

/// `GET /debug/health`: per-tenant liveness and queue depths — everything
/// an operator polls first when the service misbehaves.
pub(super) fn debug_health(state: &AppState) -> Response {
    let (flight_recorded, flight_dropped, flight_trips) = state.telemetry.flight_accounting();
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
        .raw(", \"flight\": {\"recorded\": ")
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
                    b.raw("{\"tenant\": ")
                        .string(id)
                        .raw(", \"busy\": false, \"nodes\": ")
                        .u64(slot.nodes as u64)
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
pub(super) fn debug_trace<'r>(
    state: &AppState,
    id: &'r str,
    rec: &mut Record<'r>,
) -> Result<Response, HttpError> {
    rec.tenant = id.into();
    let slot = state.tenant(id)?;
    let tenant = slot.lock()?;
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
pub(super) fn debug_flight(state: &AppState, req: &Request<'_>) -> Result<Response, HttpError> {
    let incident = req.query_value("incident").is_some();
    let dump = state
        .telemetry
        .flight_json(incident)
        .ok_or_else(|| HttpError::new(404, "nothing has tripped the recorder"))?;
    Ok(Response::json(200, format!("{dump}\n")))
}

pub(super) fn shutdown(state: &AppState, req: &Request<'_>) -> Result<Response, HttpError> {
    let presented = req
        .query_value("token")
        .or_else(|| req.header("x-harpd-token").map(Cow::Borrowed))
        .unwrap_or_default();
    if *presented != *state.token {
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
    use super::super::test_support::*;
    use super::super::*;

    #[test]
    fn shutdown_requires_token() {
        let state = state();
        let mut req = post("/shutdown", "");
        assert_eq!(handle_request(&state, &req).status, 403);
        assert!(!state.is_shutting_down());
        req.query = "token=secret";
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

    fn scrape(state: &AppState) -> String {
        let resp = handle_request(state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        harp_obs::prometheus::validate_exposition(&text).expect("valid exposition");
        text
    }

    /// The value of the sample line of `series` (name and labels).
    fn sample(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {series}: {text}"))
    }

    /// The groups the last scrape rendered, rendered cold: the daemon's
    /// snapshot as it kept it, and each tenant's series read again (no
    /// request since has moved them).
    fn cold_render(state: &AppState) -> String {
        let daemon = state.scrape.lock().unwrap().daemon.clone();
        let mut groups = vec![(Vec::new(), daemon)];
        for (id, slot) in state.tenants.read().unwrap().iter() {
            let scraped = slot.scrape_metrics(id).expect("a free tenant");
            groups.push(scraped.clone());
        }
        harp_obs::prometheus::render_exposition(&groups)
    }

    /// A kept index forgets a deleted tenant and takes in a new one: the
    /// scrape after a delete and a create equals a cold render of its
    /// groups.
    #[test]
    fn a_scrape_after_a_delete_and_a_create_equals_a_cold_render() {
        let state = state();
        for tenant in ["t1", "t2"] {
            assert_eq!(create_tiny(&state, tenant).status, 201);
        }
        let first = scrape(&state);
        assert!(first.contains("tenant=\"t1\""), "{first}");
        assert_eq!(first, cold_render(&state));
        let delete = Request {
            method: "DELETE",
            ..get("/networks/t1")
        };
        assert_eq!(handle_request(&state, &delete).status, 200);
        assert_eq!(create_tiny(&state, "t3").status, 201);
        let second = scrape(&state);
        assert!(!second.contains("tenant=\"t1\""), "{second}");
        assert!(second.contains("tenant=\"t3\""), "{second}");
        assert_eq!(second, cold_render(&state));
    }

    /// The tenant families stay in the kept index when the last tenant
    /// goes, and print nothing, not even their declarations.
    #[test]
    fn a_scrape_after_the_last_delete_declares_no_tenant_family() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        assert!(scrape(&state).contains("# TYPE harpd_tenant_nodes gauge"));
        let delete = Request {
            method: "DELETE",
            ..get("/networks/t1")
        };
        assert_eq!(handle_request(&state, &delete).status, 200);
        let text = scrape(&state);
        let declared: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.starts_with("# HELP harpd_tenant_") || l.starts_with("# TYPE harpd_tenant_")
            })
            .collect();
        assert!(declared.is_empty(), "{declared:?}");
        assert_eq!(text, cold_render(&state));
    }

    /// The kept daemon snapshot is refreshed, histograms bucket by bucket:
    /// a second scrape counts the requests served since the first, the
    /// first scrape among them, and its `+Inf` bucket still equals its
    /// count.
    #[test]
    fn a_second_scrape_counts_the_requests_since_the_first() {
        const READS: u64 = 5;
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        let counts = |text: &str| {
            let count = sample(text, "harpd_request_us_count");
            let inf = sample(text, "harpd_request_us_bucket{le=\"+Inf\"}");
            assert_eq!(inf, count, "the +Inf bucket holds every request");
            count
        };
        let first = counts(&scrape(&state));
        for _ in 0..READS {
            assert_eq!(
                handle_request(&state, &get("/networks/t1/schedule")).status,
                200
            );
        }
        let second = counts(&scrape(&state));
        assert_eq!(second, first + 1 + READS);
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

        assert_eq!(incident(&state).status, 404);
    }

    #[test]
    fn debug_trace_unknown_tenant_is_404() {
        let state = state();
        assert_eq!(
            handle_request(&state, &get("/debug/trace/ghost")).status,
            404
        );
    }
}
