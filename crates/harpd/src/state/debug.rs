//! The operator routes: `/health`, `/metrics`, `/debug/*`, `/shutdown`.

use std::borrow::Cow;
use std::sync::atomic::Ordering;

use harp_obs::json::JsonBuf;
use harp_obs::merged_trace_json;
use harp_obs::prometheus::{write_exposition, Group};

use super::telemetry::Record;
use super::tenant::TRACE_DUMP_LIMIT;
use super::AppState;
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
/// `tenant` label, rendered straight into a pooled buffer. The tenants'
/// series are read in place (see `TenantSlot::scrape_metrics`), so a scrape
/// allocates nothing per tenant. The document is ordered by family, so the
/// tenant map and every slot stay locked for the whole render.
pub(super) fn metrics(state: &AppState) -> Response {
    let daemon = state.metrics_snapshot();
    let tenants = state.tenants.read().ok();
    let scraped: Vec<_> = tenants
        .iter()
        .flat_map(|t| t.iter())
        .filter_map(|(id, slot)| slot.scrape_metrics(id))
        .collect();
    let mut groups: Vec<Group<'_>> = Vec::with_capacity(1 + scraped.len());
    groups.push((&[], &daemon));
    groups.extend(scraped.iter().map(|s| (&s.0[..], &s.1)));
    let mut text = String::from_utf8(state.take_buf()).unwrap_or_default();
    write_exposition(&mut text, &groups);
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
