//! `harpd_smoke`: CI's walk of the real `harpd` binary.
//!
//! Boots a `harpd` *child process* (`--harpd <bin>`, on `--port`, default
//! 47464), waits for the socket, walks the whole API surface once against
//! `scenarios/fig10_dynamic.scn` (inline body *and* named file, looked up
//! under `--scenario-dir`), checks every response is 2xx and `/metrics` is
//! valid Prometheus text, resolves the adjust response's correlation id
//! through `/debug/trace/<tenant>` to the allocator spans it caused, pulls
//! `/debug/health` and `/debug/flight` (optionally saving the dumps with
//! `--artifact-dir DIR` for `harp_trace` to render), then drives the
//! token-guarded shutdown and requires a clean (code 0) child exit. Exit
//! status is the CI verdict — no curl, no jq.
//!
//! It generates no load. What a client of `harpd` sees under load is
//! measured by `benchmark/` (see its README), which also holds every op to
//! a reference response digest; concurrency under several workers is
//! exercised by `crates/harpd/tests/debug_loopback.rs`.

use std::time::Duration;

use harp_bench::harness::{workspace_path, Args};
use harp_obs::prometheus::validate_exposition;
use harpd::client::{ClientResponse, HttpClient};

const USAGE: &str =
    "usage: harpd_smoke --harpd <bin> [--port <n>] [--scenario-dir <dir>] [--artifact-dir <dir>]";

fn expect_2xx(what: &str, result: Result<ClientResponse, String>) -> ClientResponse {
    match result {
        Ok(resp) if resp.is_success() => {
            println!("smoke: {what}: {}", resp.status);
            resp
        }
        Ok(resp) => {
            eprintln!("smoke: {what}: HTTP {} — {}", resp.status, resp.body);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("smoke: {what}: transport error: {e}");
            std::process::exit(1);
        }
    }
}

/// Boots a `harpd` child and walks the API surface once. Exits non-zero
/// on the first non-2xx, invalid exposition, or unclean child exit.
fn main() {
    let args = Args::parse(USAGE);
    let harpd_bin = args.value("--harpd").unwrap_or_else(|| {
        eprintln!("smoke: --harpd <path-to-binary> is required\n{USAGE}");
        std::process::exit(2);
    });
    let port: u16 = args.value("--port").map_or(47464, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("smoke: --port takes a port number, got {v:?}");
            std::process::exit(2);
        })
    });
    let scenario_dir = args.value("--scenario-dir").map_or_else(
        || workspace_path("scenarios").display().to_string(),
        str::to_owned,
    );
    let token = "ci-smoke";

    let mut child = std::process::Command::new(harpd_bin)
        .args([
            "--addr",
            "127.0.0.1",
            "--port",
            &port.to_string(),
            "--workers",
            "4",
            "--token",
            token,
            "--scenario-dir",
            &scenario_dir,
        ])
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("smoke: spawn {harpd_bin}: {e}");
            std::process::exit(2);
        });

    let addr: std::net::SocketAddr = format!("127.0.0.1:{port}").parse().expect("loopback addr");
    let ready = (0..300).any(|_| {
        std::thread::sleep(Duration::from_millis(100));
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok()
    });
    if !ready {
        eprintln!("smoke: harpd did not open {addr} within 30s");
        let _ = child.kill();
        std::process::exit(1);
    }

    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(60));

    let health = expect_2xx("GET /health", client.get("/health"));
    if !health.body.contains("\"status\": \"ok\"") {
        eprintln!("smoke: /health body unexpected: {}", health.body);
        std::process::exit(1);
    }

    let metrics = expect_2xx("GET /metrics", client.get("/metrics"));
    if let Err(e) = validate_exposition(&metrics.body) {
        eprintln!("smoke: /metrics is not valid Prometheus text: {e}");
        std::process::exit(1);
    }

    // Create one network from the inline scenario body and one from the
    // checked-in name — both paths CI must keep working.
    let scn_path = std::path::Path::new(&scenario_dir).join("fig10_dynamic.scn");
    let scn = std::fs::read_to_string(&scn_path).unwrap_or_else(|e| {
        eprintln!("smoke: read {}: {e}", scn_path.display());
        std::process::exit(2);
    });
    let inline_body = format!(
        "{{\"tenant\": \"smoke-inline\", \"scenario\": \"{}\"}}",
        harp_obs::json::escape_json(&scn)
    );
    expect_2xx(
        "POST /networks (inline fig10_dynamic)",
        client.post("/networks", &inline_body),
    );
    expect_2xx(
        "POST /networks (named fig10_dynamic)",
        client.post(
            "/networks",
            "{\"tenant\": \"smoke-named\", \"scenario_file\": \"fig10_dynamic\"}",
        ),
    );

    let sched = expect_2xx(
        "GET /networks/smoke-inline/schedule",
        client.get("/networks/smoke-inline/schedule"),
    );
    if !sched.body.contains("\"exclusive\": true") {
        eprintln!("smoke: schedule is not collision-free: {}", sched.body);
        std::process::exit(1);
    }

    let bill = expect_2xx(
        "POST /networks/smoke-inline/adjust",
        client.post(
            "/networks/smoke-inline/adjust",
            "{\"node\": 15, \"cells\": 2}",
        ),
    );
    if !bill.body.contains("\"mgmt_messages\"") {
        eprintln!(
            "smoke: adjustment bill missing mgmt_messages: {}",
            bill.body
        );
        std::process::exit(1);
    }

    let metrics = expect_2xx("GET /metrics (after traffic)", client.get("/metrics"));
    if let Err(e) = validate_exposition(&metrics.body) {
        eprintln!("smoke: post-traffic /metrics invalid: {e}");
        std::process::exit(1);
    }
    if !metrics.body.contains("tenant=\"smoke-inline\"") {
        eprintln!("smoke: /metrics lacks per-tenant series");
        std::process::exit(1);
    }

    // The adjust's correlation id must resolve through the live trace
    // endpoint to the allocator work it caused.
    let corr = bill
        .body
        .split("\"correlation_id\": ")
        .nth(1)
        .and_then(|t| {
            t.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or_else(|| {
            eprintln!(
                "smoke: adjust response lacks a correlation id: {}",
                bill.body
            );
            std::process::exit(1);
        });
    let trace = expect_2xx(
        "GET /debug/trace/smoke-inline",
        client.get("/debug/trace/smoke-inline"),
    );
    let needle = format!("\"corr\": {corr}");
    let resolves = trace
        .body
        .split_once("\"allocator_trace\"")
        .is_some_and(|(req, alloc)| req.contains(&needle) && alloc.contains(&needle));
    if !resolves {
        eprintln!(
            "smoke: correlation id {corr} does not resolve to allocator spans: {}",
            trace.body
        );
        std::process::exit(1);
    }

    let health = expect_2xx("GET /debug/health", client.get("/debug/health"));
    if !health.body.contains("\"tenant\": \"smoke-inline\"") {
        eprintln!(
            "smoke: /debug/health lacks tenant liveness: {}",
            health.body
        );
        std::process::exit(1);
    }

    let flight = expect_2xx("GET /debug/flight", client.get("/debug/flight"));
    let doc = harp_obs::FlightDoc::parse_str(&flight.body).unwrap_or_else(|e| {
        eprintln!("smoke: /debug/flight dump does not parse: {e}");
        std::process::exit(1);
    });
    if !doc
        .events
        .iter()
        .any(|e| e.kind == "adjust" && e.corr == corr)
    {
        eprintln!("smoke: flight recorder missed the adjust: {}", flight.body);
        std::process::exit(1);
    }

    // Save the dumps for CI to render and upload as artifacts.
    if let Some(dir) = args.value("--artifact-dir") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("smoke: create {}: {e}", dir.display());
            std::process::exit(2);
        });
        for (name, body) in [
            ("flight.json", &flight.body),
            ("trace_smoke-inline.json", &trace.body),
            ("health.json", &health.body),
        ] {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("smoke: write {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("smoke: wrote {}", path.display());
        }
    }

    expect_2xx(
        "POST /shutdown",
        client.post(&format!("/shutdown?token={token}"), ""),
    );
    let status = child.wait().unwrap_or_else(|e| {
        eprintln!("smoke: wait on harpd: {e}");
        std::process::exit(1);
    });
    if !status.success() {
        eprintln!("smoke: harpd exited uncleanly: {status}");
        std::process::exit(1);
    }
    println!("smoke: harpd drained cleanly; all checks passed");
}
