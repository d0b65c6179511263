//! One replayed pass of a service workload against an in-process `harpd`.
//!
//! Each pass boots a fresh [`harpd::server::Server`] (one worker, ephemeral
//! loopback port), creates and verifies the resident set, sends the op
//! sequence closed-loop over one keep-alive connection from the calling
//! thread, scrapes `/metrics`, and drains the server. The client and the
//! one worker are never runnable together for long — each waits for the
//! other — and take turns on the CPU the process is pinned to (see
//! [`crate::pin`]).
//!
//! Set-up, the final scrape and the shutdown go through
//! [`harpd::client::HttpClient`]. The timed ops go through [`Wire`], which
//! writes the generated request bytes as they are and reads the answer into
//! one reused buffer, so that an op's time holds no request formatting and
//! no response copy. The one worker serves one connection at a time, so
//! each of the three phases closes its connection before the next opens
//! one.
//!
//! Loopback is not a real link: there is no wire latency, no loss and no
//! NIC. What the op time contains beyond harpd's own work is two socket
//! writes and reads through the kernel and a context switch each way.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use harp_obs::json::{parse as parse_json, Json};
use harp_obs::MetricsSnapshot;
use harpd::client::{ClientResponse, HttpClient};
use harpd::server::{Server, ServerConfig};

use crate::gen::{Class, Request, ServicePlan};
use crate::pass::{Fnv, Pass};
use crate::trace::{Recorder, NONE};

const TOKEN: &str = "benchmark";

/// The value of the unlabelled series `name` in a Prometheus exposition.
#[must_use]
pub fn exposition_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// The keep-alive connection of the timed ops.
struct Wire {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    /// Connections opened beyond the first: harpd closes the connection
    /// after any error response.
    reconnects: u64,
    /// Request plus response bytes.
    bytes: u64,
    requests: u64,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(stream)
    }

    fn open(addr: SocketAddr) -> Result<Self, String> {
        Ok(Self {
            addr,
            stream: Self::connect(addr)?,
            buf: Vec::with_capacity(64 * 1024),
            reconnects: 0,
            bytes: 0,
            requests: 0,
        })
    }

    /// Sends one request and returns `(status, body)`. When harpd answers
    /// `connection: close` the wire reconnects before returning, so the op
    /// that drew the error pays for the connection it cost.
    fn send(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.requests += 1;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut fill = |buf: &mut Vec<u8>, what: &str| -> Result<(), String> {
            match self.stream.read(&mut chunk) {
                Ok(0) => Err(format!("server closed {what}")),
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    Ok(())
                }
                Err(e) => Err(format!("read: {e}")),
            }
        };
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            fill(&mut self.buf, "before the response head")?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_owned())?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let header = |name: &str| {
            head.split("\r\n")
                .skip(1)
                .filter_map(|l| l.split_once(':'))
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.trim())
        };
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "response without content-length".to_owned())?;
        let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            fill(&mut self.buf, "mid-body")?;
        }
        self.bytes += (request.len() + body_start + length) as u64;
        if close {
            self.stream = Self::connect(self.addr)?;
            self.reconnects += 1;
        }
        Ok((status, &self.buf[body_start..body_start + length]))
    }
}

/// What one pass measured and received.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// The workload-independent part.
    pub core: Pass,
    /// Ops that drew a designed refusal (409 on an infeasible adjustment).
    pub refused_ops: u64,
    /// Adjustments that committed without a management message.
    pub local_adjusts: u64,
    /// Adjustments that committed after exchanging management messages.
    pub escalated_adjusts: u64,
    /// Request + response bytes of the ops.
    pub wire_bytes: u64,
    /// Connections the ops opened beyond the first.
    pub reconnects: u64,
    /// The `/metrics` exposition scraped after the last op.
    pub exposition: String,
    /// The daemon's own registry at shutdown.
    pub daemon_metrics: MetricsSnapshot,
}

fn expect_status(class: Class) -> u16 {
    match class {
        Class::Create => 201,
        Class::Delete | Class::Adjust | Class::Schedule | Class::Metrics => 200,
    }
}

/// The number under `key` in a JSON response body.
fn field(body: &[u8], key: &str) -> Option<u64> {
    let json = parse_json(std::str::from_utf8(body).ok()?).ok()?;
    json.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

fn send_setup(client: &mut HttpClient, req: &Request) -> Result<ClientResponse, String> {
    let body = (!req.body.is_empty()).then_some(req.body.as_str());
    client.request(req.method, &req.path, body)
}

/// Runs one pass of `plan` against a fresh daemon.
///
/// # Errors
///
/// A message on any transport failure, a set-up request that is not
/// answered as expected, or a request count that does not reconcile with
/// the daemon's own `harpd_requests_total`.
pub fn run_pass(plan: &ServicePlan, rec: &mut Recorder) -> Result<PassResult, String> {
    let mut out = PassResult::default();
    out.core.offered = plan.ops.len() as u64;

    let setup_start = Instant::now();
    // The scenario directory is never read: every create carries its
    // scenario inline.
    let server = Server::bind(ServerConfig::loopback(1, TOKEN, "scenarios"))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let state = server.state();
    let daemon = std::thread::Builder::new()
        .name("harpd-acceptor".into())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn: {e}"))?;

    // From here on every exit path must drain the daemon, so the client
    // runs in a closure and the shutdown follows unconditionally. What the
    // client allocates is not the daemon's and stays out of the count.
    let client = crate::alloc::uncounted(|| -> Result<(), String> {
        out.core.op_ns.reserve(plan.ops.len());
        out.core.op_digest.reserve(plan.ops.len());
        let mut control = HttpClient::new(addr);
        for req in &plan.setup {
            let response = send_setup(&mut control, req)?;
            if response.status != expect_status(req.class) {
                return Err(format!(
                    "set-up {:?} for tenant {} answered {}: {}",
                    req.class, req.tenant, response.status, response.body
                ));
            }
            if !response.body.contains("\"exclusive\": true") {
                return Err(format!(
                    "set-up {:?} for tenant {} is not collision-free",
                    req.class, req.tenant
                ));
            }
        }
        out.core.setup_ns = setup_start.elapsed().as_nanos() as u64;
        drop(control);

        let mut wire = Wire::open(addr)?;
        out.core.alloc_before_ops = crate::alloc::read();
        let pass_start = Instant::now();
        for (index, &(start, len)) in plan.ops.iter().enumerate() {
            let requests = &plan.requests[start as usize..(start + len) as usize];
            let mut digest = Fnv::default();
            let mut refused = false;
            let mut failure = None;
            let op_start = Instant::now();
            let mut op_end = op_start;
            for req in requests {
                let (status, body) = wire.send(&req.bytes)?;
                // Stop the clock before looking at the body: checking is
                // the benchmark's work, not the system's.
                op_end = Instant::now();
                digest.write(&status.to_le_bytes());
                if req.class != Class::Metrics {
                    // The exposition carries uptime and latency histograms,
                    // which legitimately differ pass to pass.
                    digest.write_masked(body);
                }
                if status == expect_status(req.class) {
                    match req.class {
                        Class::Create => {
                            out.core.mgmt_msgs += field(body, "static_mgmt_messages").unwrap_or(0);
                        }
                        Class::Adjust => {
                            let msgs = field(body, "mgmt_messages").unwrap_or(0);
                            out.core.mgmt_msgs += msgs;
                            if msgs == 0 {
                                out.local_adjusts += 1;
                            } else {
                                out.escalated_adjusts += 1;
                            }
                        }
                        Class::Delete | Class::Schedule | Class::Metrics => {}
                    }
                    // Collision freedom, wherever the daemon reports it.
                    if matches!(req.class, Class::Create | Class::Schedule)
                        && !contains(body, b"\"exclusive\": true")
                    {
                        failure = Some(format!(
                            "op {index}: {:?} response is not exclusive",
                            req.class
                        ));
                    }
                } else if req.class == Class::Adjust && status == 409 {
                    refused = true;
                } else {
                    failure = Some(format!(
                        "op {index}: {:?} answered {status}: {}",
                        req.class,
                        String::from_utf8_lossy(body).trim_end()
                    ));
                }
            }
            rec.span("loopback.op", index as u32, NONE, op_start, op_end);
            out.core
                .op_ns
                .push(op_end.duration_since(op_start).as_nanos() as u64);
            out.core.op_digest.push(digest.0);
            if let Some(failure) = failure {
                out.core.fail(|| failure);
            } else if refused {
                out.refused_ops += 1;
            } else {
                out.core.succeeded += 1;
            }
        }
        out.core.wall_ns = pass_start.elapsed().as_nanos() as u64;
        out.core.alloc_after_ops = crate::alloc::read();
        out.wire_bytes = wire.bytes;
        out.reconnects = wire.reconnects;
        let sent = plan.setup.len() as u64 + wire.requests;
        drop(wire);

        // Reconcile: the daemon counts a request after answering it, so the
        // scrape reports every request before itself.
        let mut control = HttpClient::new(addr);
        let scrape = control.get("/metrics")?;
        if scrape.status != 200 {
            return Err(format!("final scrape answered {}", scrape.status));
        }
        let served = exposition_value(&scrape.body, "harpd_requests_total")
            .ok_or_else(|| "exposition lacks harpd_requests_total".to_owned())?;
        if served as u64 != sent {
            return Err(format!(
                "client sent {sent} requests, harpd_requests_total says {served}"
            ));
        }
        out.exposition = scrape.body;
        control
            .post(&format!("/shutdown?token={TOKEN}"), "")
            .map(|_| ())
    });

    // Drain whether or not the pass succeeded. The shutdown route is the
    // normal path; the state flag plus a wake-up connection covers a pass
    // that lost its connection, so the acceptor thread never outlives us.
    state.request_shutdown();
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    let summary = daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?;
    out.daemon_metrics = summary.metrics;
    client.map(|()| out)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_found_in_json_and_exposition() {
        let json = b"{\"cells\": 3, \"mgmt_messages\": 12, \"seconds\": 0.5}";
        assert_eq!(field(json, "mgmt_messages"), Some(12));
        assert_eq!(field(json, "absent"), None);
        let text = "# TYPE harpd_requests_total counter\nharpd_requests_total 42\nharpd_request_us_sum 1234\n";
        assert_eq!(exposition_value(text, "harpd_requests_total"), Some(42.0));
        assert_eq!(exposition_value(text, "harpd_request_us_sum"), Some(1234.0));
        assert_eq!(exposition_value(text, "harpd_request"), None);
    }
}
