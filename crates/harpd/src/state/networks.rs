//! The tenant routes — create, schedule, adjust, delete, list — and the
//! request-body helpers they share. A handler's only contact with
//! telemetry is the request's [`Record`], which it fills in.

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use harp_core::{AllocatorHandle, Requirements, SchedulingPolicy};
use harp_obs::json::{parse, Json, JsonBuf};
use tsch_sim::{Link, NodeId};
use workloads::scenario_dsl::parse_scenario;

use super::telemetry::{micros, Op, Record};
use super::tenant::{TenantSlot, ALLOCATOR_SPAN_CAPACITY};
use super::AppState;
use crate::http::{HttpError, Request, Response};

pub(super) fn list(state: &AppState) -> Response {
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
            b.raw("{\"tenant\": ")
                .string(id)
                .raw(", \"scenario\": ")
                .string(&tenant.scenario_name)
                .raw(", \"nodes\": ")
                .u64(slot.nodes as u64)
                .raw(", \"adjustments\": ")
                .u64(tenant.handle.adjustments())
                .raw("}");
        }
    }
    b.raw("]}\n");
    Response::json_bytes(200, b.into_bytes())
}

fn body_json<'b>(req: &Request<'b>) -> Result<Json<'b>, HttpError> {
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

/// The scenario text of a create body and, for a named scenario, its
/// name. An inline scenario is borrowed from the parsed body.
fn load_scenario_text<'j>(
    state: &AppState,
    json: &'j Json,
) -> Result<(Option<&'j str>, Cow<'j, str>), HttpError> {
    if let Some(inline) = json.get("scenario").and_then(Json::as_str) {
        return Ok((None, Cow::Borrowed(inline)));
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
    Ok((Some(name), Cow::Owned(text)))
}

fn already_hosted(tenant_id: &str) -> HttpError {
    HttpError::new(
        409,
        format!("tenant \"{tenant_id}\" already hosts a network"),
    )
}

pub(super) fn create(
    state: &AppState,
    req: &Request<'_>,
    rec: &mut Record<'_>,
) -> Result<Response, HttpError> {
    if state.is_shutting_down() {
        return Err(HttpError::new(409, "daemon is shutting down"));
    }
    let json = body_json(req)?;
    let tenant_id = str_field(&json, "tenant")?.to_owned();
    if tenant_id.is_empty() || tenant_id.len() > 128 {
        return Err(HttpError::new(400, "tenant id must be 1..=128 characters"));
    }
    // The id is a path segment of every other tenant route, and the path
    // is decoded before it is split, so no route could reach this tenant.
    if tenant_id.contains('/') {
        return Err(HttpError::new(400, "field \"tenant\" must not contain '/'"));
    }
    rec.tenant = tenant_id.clone().into();
    // Refuse a taken id before paying for a convergence. Two racing
    // creates of one id can both pass here; the check at the insert below
    // is the race-free one (and the one that reports a poisoned map).
    if state
        .tenants
        .read()
        .is_ok_and(|tenants| tenants.contains_key(&tenant_id))
    {
        return Err(already_hosted(&tenant_id));
    }
    let (file_name, text) = load_scenario_text(state, &json)?;
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
    rec.allocator_us = micros(alloc_start.elapsed());

    let scenario_name = match file_name {
        Some(name) => name.to_owned(),
        None => scenario.name,
    };
    let summary = handle.summary();
    let static_report = handle.static_report();
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
        .u64(rec.corr)
        .raw("}\n");
    let body = b.into_bytes();

    let slot = TenantSlot::new(handle, scenario_name.clone(), summary.nodes);
    {
        let mut tenants = state
            .tenants
            .write()
            .map_err(|_| HttpError::new(500, "tenant map poisoned"))?;
        if tenants.contains_key(&tenant_id) {
            return Err(already_hosted(&tenant_id));
        }
        tenants.insert(tenant_id, Arc::new(slot));
    }
    rec.op = Some(Op::Created {
        scenario: scenario_name,
        nodes: summary.nodes,
    });
    Ok(Response::json_bytes(201, body))
}

pub(super) fn schedule<'r>(
    state: &AppState,
    id: &'r str,
    rec: &mut Record<'r>,
) -> Result<Response, HttpError> {
    rec.tenant = id.into();
    let slot = state.tenant(id)?;
    slot.schedule_queries.fetch_add(1, Ordering::Relaxed);
    rec.op = Some(Op::ScheduleQuery);
    // Fast path: nothing has mutated the allocator since the cached body
    // was rendered — answer without touching the tenant mutex (and
    // without a per-tenant span: no allocator work happened).
    if let Some(body) = slot.cached_schedule() {
        let mut bytes = state.take_buf();
        bytes.extend_from_slice(&body);
        return Ok(Response::json_bytes(200, bytes));
    }
    // Slow path: render under the lock and refill the cache. The version
    // stamp is read while the lock is held, so the cache entry can never
    // claim a newer state than the one it was rendered from.
    let mut tenant = slot.lock()?;
    let alloc_start = Instant::now();
    let started_us = state.uptime_us();
    let s = tenant.handle.summary();
    let version = tenant.handle.version();
    rec.allocator_us = micros(alloc_start.elapsed());
    tenant.record_span(
        "schedule",
        None,
        started_us,
        state.uptime_us(),
        s.assignments as i64,
        rec.corr,
    );
    drop(tenant);
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
        *cache = Some((version, Arc::from(&body[..])));
    }
    Ok(Response::json_bytes(200, body))
}

pub(super) fn adjust<'r>(
    state: &AppState,
    id: &'r str,
    req: &Request<'_>,
    rec: &mut Record<'r>,
) -> Result<Response, HttpError> {
    rec.tenant = id.into();
    let json = body_json(req)?;
    let node = u64_field(&json, "node")?;
    let cells = u64_field(&json, "cells")?;
    let node = u32::try_from(node).map_err(|_| HttpError::new(400, "node out of range"))?;
    let cells = u32::try_from(cells).map_err(|_| HttpError::new(400, "cells out of range"))?;
    let down = match json.get("direction").map(Json::as_str) {
        None | Some(Some("up")) => false,
        Some(Some("down")) => true,
        Some(_) => {
            return Err(HttpError::new(
                400,
                "field \"direction\" must be \"up\" or \"down\"",
            ))
        }
    };

    let slot = state.tenant(id)?;
    let mut tenant = slot.lock()?;
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
    let result = tenant.handle.adjust_correlated(link, cells, rec.corr);
    rec.allocator_us = micros(alloc_start.elapsed());
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
    let committed_us = state.uptime_us();
    tenant.record_span(
        "adjust",
        Some(node),
        started_us,
        committed_us,
        bill.mgmt_messages as i64,
        rec.corr,
    );
    rec.storm = tenant.slide_storm_window(committed_us);
    let config = tenant.handle.network().config();
    drop(tenant);
    rec.op = Some(Op::Adjusted {
        node,
        cells,
        mgmt_messages: bill.mgmt_messages,
    });
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
        .u64(bill.slotframes(config))
        .raw(", \"seconds\": ")
        .fixed(bill.elapsed_seconds(config), 6)
        .raw(", \"correlation_id\": ")
        .u64(rec.corr)
        .raw("}\n");
    Ok(Response::json_bytes(200, b.into_bytes()))
}

pub(super) fn delete<'r>(
    state: &AppState,
    id: &'r str,
    rec: &mut Record<'r>,
) -> Result<Response, HttpError> {
    rec.tenant = id.into();
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
    rec.op = Some(Op::Deleted);
    let mut b = JsonBuf::reuse(state.take_buf());
    b.raw("{\"tenant\": ")
        .string(id)
        .raw(", \"deleted\": true}\n");
    Ok(Response::json_bytes(200, b.into_bytes()))
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::*;

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
        req.method = "DELETE";
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
        // The refused create converged nothing and logged nothing but its
        // request: one network was created, and the flight ring says so.
        let events = flight_events(&state);
        let of_dup = |kind: &str| {
            events
                .iter()
                .filter(|e| e.kind == kind && e.tenant == "dup")
                .count()
        };
        assert_eq!(of_dup("create"), 1);
        assert_eq!(of_dup("request"), 2);
        let snapshot = state.metrics_snapshot();
        assert_eq!(snapshot.counter("harpd.networks_created"), Some(1));
        assert_eq!(snapshot.histograms["harpd.allocator_us"].count, 1);
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
    fn a_tenant_id_no_route_could_reach_is_refused() {
        let state = state();
        for id in ["a/b", "/", "a/"] {
            let resp = create_tiny(&state, id);
            assert_eq!(resp.status, 400, "{id}");
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains("\\\"tenant\\\""), "{id}: {text}");
        }
        assert_eq!(state.network_count(), 0);
        // A refused id leaks nothing the routes could not delete.
        assert_eq!(create_tiny(&state, "a").status, 201);
        let mut req = get("/networks/a");
        req.method = "DELETE";
        assert_eq!(handle_request(&state, &req).status, 200);
        assert_eq!(state.network_count(), 0);
    }

    #[test]
    fn adjust_accepts_only_up_or_down() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        let adjust = |body: &str| handle_request(&state, &post("/networks/t1/adjust", body));
        for direction in ["\"sideways\"", "7", "null", "\"Up\""] {
            let body = format!("{{\"node\": 9, \"cells\": 2, \"direction\": {direction}}}");
            let resp = adjust(&body);
            assert_eq!(resp.status, 400, "{direction}");
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains("direction"), "{direction}: {text}");
        }
        let list = handle_request(&state, &get("/networks"));
        let text = String::from_utf8(list.body).unwrap();
        assert!(text.contains("\"adjustments\": 0"), "{text}");
        for body in [
            "{\"node\": 9, \"cells\": 2}",
            "{\"node\": 9, \"cells\": 3, \"direction\": \"up\"}",
            "{\"node\": 9, \"cells\": 2, \"direction\": \"down\"}",
        ] {
            assert_eq!(adjust(body).status, 200, "{body}");
        }
    }

    #[test]
    fn infeasible_adjustment_is_conflict_not_crash() {
        let state = state();
        assert_eq!(create_tiny(&state, "t1").status, 201);
        // The second makes N7's row, N9's cells plus N10's, overflow a u32.
        for cells in ["100000", "4294967295"] {
            let body = format!("{{\"node\": 9, \"cells\": {cells}}}");
            let resp = handle_request(&state, &post("/networks/t1/adjust", &body));
            assert_eq!(resp.status, 409, "{cells}");
            // The network still serves.
            assert_eq!(
                handle_request(&state, &get("/networks/t1/schedule")).status,
                200,
                "{cells}"
            );
        }
    }

    #[test]
    fn a_demand_whose_rows_overflow_a_u32_is_unprocessable() {
        let state = state();
        let scenario = "scenario huge\\nseed 1\\n[topology]\\ngenerator fig1\\n[workloads]\\n\
                        demand uniform cells=4294967295\\n";
        let body = format!("{{\"tenant\": \"huge\", \"scenario\": \"{scenario}\"}}");
        let resp = handle_request(&state, &post("/networks", &body));
        assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(state.network_count(), 0);
    }
}
