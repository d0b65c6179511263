//! Live-observability loopback tests: boot the daemon on real sockets and
//! pin (1) that the correlation id an adjust response returns resolves via
//! `/debug/trace/<tenant>` to the allocator spans and control-plane ops
//! that request produced, and (2) that concurrent multi-tenant load —
//! creates, reads, adjustments and deletes on four workers — wraps the
//! flight-recorder ring without corrupting its dump or starving
//! `/debug/health`, leaks no network and is counted request for request.

use std::time::Duration;

use harpd::client::HttpClient;
use harpd::server::{Server, ServerConfig, ServerSummary};

const SCN: &str = "scenario loopback\nseed 7\n[topology]\ngenerator random nodes=40 layers=6 max_children=4 seed=0xBEEF count=1\n[workloads]\ndemand uniform cells=1\n";

fn create_body(tenant: &str) -> String {
    format!(
        "{{\"tenant\": \"{tenant}\", \"scenario\": \"{}\"}}",
        SCN.replace('\n', "\\n")
    )
}

fn boot(workers: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<ServerSummary>) {
    let server = Server::bind(ServerConfig::loopback(
        workers,
        "loop-token",
        "/nonexistent",
    ))
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn correlation_of(body: &str) -> u64 {
    body.split("\"correlation_id\": ")
        .nth(1)
        .expect("correlation id in body")
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn adjust_correlation_resolves_over_the_wire() {
    let (addr, join) = boot(2);
    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));

    let created = client
        .post("/networks", &create_body("t1"))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    let create_corr = correlation_of(&created.body);

    let bill = client
        .post("/networks/t1/adjust", "{\"node\": 5, \"cells\": 2}")
        .expect("adjust");
    assert_eq!(bill.status, 200, "{}", bill.body);
    let corr = correlation_of(&bill.body);
    assert!(
        corr > create_corr,
        "ids are monotonic: {create_corr} {corr}"
    );

    // The id resolves through the tenant trace to both the daemon-side
    // request spans and the allocator/control-plane spans it caused.
    let trace = client.get("/debug/trace/t1").expect("trace");
    assert_eq!(trace.status, 200);
    let needle = format!("\"corr\": {corr}");
    let (request_part, allocator_part) = trace
        .body
        .split_once("\"allocator_trace\"")
        .expect("trace has request and allocator sections");
    assert!(
        request_part.contains(&needle),
        "request spans lost the id: {}",
        trace.body
    );
    assert!(
        allocator_part.contains(&needle),
        "allocator trace lost the id: {}",
        trace.body
    );
    assert!(allocator_part.contains("mgmt_op"), "{}", trace.body);

    // The flight recorder tagged the adjust with the same id.
    let flight = client.get("/debug/flight").expect("flight");
    assert_eq!(flight.status, 200);
    let doc = harp_obs::FlightDoc::parse_str(&flight.body).expect("dump parses");
    assert!(
        doc.events
            .iter()
            .any(|e| e.kind == "adjust" && e.corr == corr && e.tenant == "t1"),
        "{}",
        flight.body
    );

    // No incident yet: nothing tripped.
    assert_eq!(client.get("/debug/flight?incident").unwrap().status, 404);

    let health = client.get("/debug/health").expect("health");
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"tenant\": \"t1\""),
        "{}",
        health.body
    );

    assert_eq!(
        client
            .post("/shutdown?token=loop-token", "")
            .unwrap()
            .status,
        200
    );
    join.join().expect("clean join");
}

/// Runs `work(i)` for the four tenants on four client threads at once and
/// returns how many requests they sent in total.
fn four_clients(work: impl Fn(usize) -> u64 + Copy + Send + 'static) -> u64 {
    let handles: Vec<_> = (0..4)
        .map(|i| std::thread::spawn(move || work(i)))
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread"))
        .sum()
}

#[test]
fn concurrent_load_wraps_flight_ring_and_stays_consistent() {
    let (addr, join) = boot(4);
    // Every request logs one flight event; 4 tenants x ~300 requests
    // comfortably exceeds the 1024-event ring and forces wraparound
    // while four workers interleave recordings.
    let mut sent = four_clients(move |i| {
        let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
        let created = client
            .post("/networks", &create_body(&format!("w{i}")))
            .expect("create");
        assert_eq!(created.status, 201, "{}", created.body);
        for _ in 0..300 {
            let resp = client
                .get(&format!("/networks/w{i}/schedule"))
                .expect("schedule");
            assert_eq!(resp.status, 200);
        }
        // Writes race the other tenants' reads and writes: raise and
        // relax one deep link, every step feasible.
        for cells in [2, 1, 2, 1] {
            let bill = client
                .post(
                    &format!("/networks/w{i}/adjust"),
                    &format!("{{\"node\": 5, \"cells\": {cells}}}"),
                )
                .expect("adjust");
            assert_eq!(bill.status, 200, "{}", bill.body);
        }
        1 + 300 + 4
    });

    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
    let flight = client.get("/debug/flight").expect("flight");
    let doc = harp_obs::FlightDoc::parse_str(&flight.body).expect("dump parses");
    assert!(
        doc.total_recorded > 1024,
        "expected wraparound, recorded {}",
        doc.total_recorded
    );
    assert!(doc.dropped > 0, "ring never wrapped: {}", flight.body);
    assert!(
        doc.events.len() <= 512,
        "dump over limit: {}",
        doc.events.len()
    );
    // Sequence numbers stay strictly increasing across the wrap even with
    // four workers racing the recorder.
    for pair in doc.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq disorder: {:?}", pair);
    }
    // Per-tenant tagging survived interleaving: an event names one of the
    // four tenants, or none (service-wide). Which of them the last 512
    // events name depends on which client finished first, so that all four
    // were served is read off /debug/health below.
    let tenants = ["w0", "w1", "w2", "w3"];
    for e in &doc.events {
        assert!(
            e.tenant.is_empty() || tenants.contains(&e.tenant.as_str()),
            "event of an unknown tenant: {e:?}"
        );
    }
    assert!(doc.events.iter().any(|e| !e.tenant.is_empty()));

    // Health reports all four tenants live with their query counts.
    let health = client.get("/debug/health").expect("health");
    for i in 0..4 {
        assert!(
            health.body.contains(&format!("\"tenant\": \"w{i}\"")),
            "{}",
            health.body
        );
    }
    assert!(
        health.body.contains("\"schedule_queries\": 300"),
        "{}",
        health.body
    );

    // The dropped-event gauge surfaced in /metrics.
    let metrics = client.get("/metrics").expect("metrics");
    harp_obs::prometheus::validate_exposition(&metrics.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", metrics.body));
    assert!(
        metrics.body.contains("harpd_flight_events_dropped"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("harpd_route_schedule_us_bucket"),
        "{}",
        metrics.body
    );

    // Four concurrent deletes, then the daemon's own tally at shutdown:
    // nothing leaked, and it served exactly what the clients sent — the
    // three reads above and the shutdown included.
    sent += four_clients(move |i| {
        let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
        let deleted = client.delete(&format!("/networks/w{i}")).expect("delete");
        assert!(deleted.is_success(), "{}", deleted.body);
        1
    });
    assert_eq!(
        client
            .post("/shutdown?token=loop-token", "")
            .unwrap()
            .status,
        200
    );
    let summary = join.join().expect("clean join");
    assert_eq!(summary.networks, 0, "every tenant was deleted");
    assert_eq!(
        summary.metrics.counter("harpd.requests_total"),
        Some(sent + 4),
        "client and server request counts reconcile"
    );
}
