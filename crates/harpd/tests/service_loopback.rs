//! Full-stack loopback test: boot the daemon on an OS-assigned port, run
//! the tenant lifecycle over real sockets, validate `/metrics` as
//! Prometheus exposition, and drain it cleanly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod common;

use common::{boot, create_body};
use harpd::client::HttpClient;

#[test]
fn lifecycle_metrics_and_graceful_drain() {
    let (addr, join) = boot(2);
    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));

    let health = client.get("/health").expect("health");
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"status\": \"ok\""),
        "{}",
        health.body
    );

    let created = client
        .post("/networks", &create_body("t1"))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    assert!(
        created.body.contains("\"exclusive\": true"),
        "{}",
        created.body
    );

    // Unknown tenant and malformed JSON travel the full stack as 4xx.
    assert_eq!(client.get("/networks/ghost/schedule").unwrap().status, 404);
    assert_eq!(client.post("/networks", "{oops").unwrap().status, 400);

    let sched = client.get("/networks/t1/schedule").expect("schedule");
    assert_eq!(sched.status, 200);
    assert!(sched.body.contains("\"nodes\": 40"), "{}", sched.body);

    let bill = client
        .post("/networks/t1/adjust", "{\"node\": 5, \"cells\": 2}")
        .expect("adjust");
    assert_eq!(bill.status, 200, "{}", bill.body);
    assert!(bill.body.contains("\"mgmt_messages\""), "{}", bill.body);

    // /metrics must be valid Prometheus exposition with tenant labels.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    harp_obs::prometheus::validate_exposition(&metrics.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", metrics.body));
    assert!(
        metrics.body.contains("harpd_requests_total"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("tenant=\"t1\""), "{}", metrics.body);
    assert!(
        metrics.body.contains("harpd_request_us_bucket"),
        "{}",
        metrics.body
    );

    // A wrong shutdown token is refused and the server keeps serving.
    assert_eq!(
        client.post("/shutdown?token=wrong", "").unwrap().status,
        403
    );
    assert_eq!(client.get("/health").unwrap().status, 200);

    let down = client
        .post("/shutdown?token=loop-token", "")
        .expect("shutdown");
    assert_eq!(down.status, 200);
    let summary = join.join().expect("server thread joins cleanly");
    assert_eq!(summary.networks, 1);
    assert!(summary.metrics.counter("harpd.requests_total").unwrap() >= 8);
    assert!(summary.exposition().contains("harpd_requests_total"));
}

#[test]
fn concurrent_tenants_do_not_serialize_errors() {
    let (addr, join) = boot(4);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
                let created = client
                    .post("/networks", &create_body(&format!("w{i}")))
                    .expect("create");
                assert_eq!(created.status, 201, "{}", created.body);
                for _ in 0..5 {
                    let resp = client
                        .get(&format!("/networks/w{i}/schedule"))
                        .expect("schedule");
                    assert_eq!(resp.status, 200);
                }
                let bill = client
                    .post(
                        &format!("/networks/w{i}/adjust"),
                        "{\"node\": 3, \"cells\": 2}",
                    )
                    .expect("adjust");
                assert_eq!(bill.status, 200, "{}", bill.body);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker client thread");
    }
    let mut client = HttpClient::new(addr);
    let listed = client.get("/networks").expect("list");
    for i in 0..4 {
        assert!(
            listed.body.contains(&format!("\"tenant\": \"w{i}\"")),
            "{}",
            listed.body
        );
    }
    assert_eq!(
        client
            .post("/shutdown?token=loop-token", "")
            .unwrap()
            .status,
        200
    );
    join.join().expect("clean join");
}

#[test]
fn raw_socket_malformed_requests_get_4xx_not_hangs() {
    let (addr, join) = boot(1);
    let malformed = [
        "BROKEN\r\n\r\n",
        "GET /health HTTP/9.9\r\n\r\n",
        "GET /health HTTP/1.1\r\nno-colon-here\r\n\r\n",
    ];
    for raw in malformed {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{raw:?} -> {response:?}"
        );
        assert!(response.contains("connection: close"), "{response:?}");
    }

    // A split-read request still completes over the wire.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let raw = "GET /health HTTP/1.1\r\nconnection: close\r\n\r\n";
    let (a, b) = raw.split_at(12);
    stream.write_all(a.as_bytes()).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stream.write_all(b.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");

    let mut client = HttpClient::new(addr);
    assert_eq!(
        client
            .post("/shutdown?token=loop-token", "")
            .unwrap()
            .status,
        200
    );
    // The daemon counted what it refused to parse: each malformed request
    // is a request, an error and an observation of the `other` route; the
    // split-read health check and the shutdown are the other two requests.
    let metrics = join.join().expect("clean join").metrics;
    let refused = malformed.len() as u64;
    assert_eq!(metrics.counter("harpd.http_errors"), Some(refused));
    assert_eq!(metrics.counter("harpd.requests_total"), Some(refused + 2));
    assert_eq!(metrics.histograms["harpd.route.other_us"].count, refused);
}

#[test]
fn the_binary_rejects_a_flag_it_does_not_define() {
    // `--tokn` used to be ignored: the daemon served with the default token.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_harpd"))
        .args(["--tokn", "s3cret"])
        .output()
        .expect("harpd spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "it must not bind and announce a port"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`--tokn`") && stderr.contains("usage:"),
        "{stderr}"
    );
}
