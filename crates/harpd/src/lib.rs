//! `harpd`: the HARP allocator as a long-running, multi-tenant service.
//!
//! Every other binary in this workspace runs one experiment and exits.
//! This crate keeps allocators *alive*: a hand-rolled, zero-dependency
//! HTTP/1.1 server over [`std::net::TcpListener`] hosting many
//! independent HARP networks keyed by tenant id, each a
//! [`harp_core::AllocatorHandle`] that converged once and then absorbs
//! adjustments request by request — the deployment model the paper's
//! gateway occupies (one allocator per industrial cell, §VI).
//!
//! The HTTP surface:
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /health` | liveness + hosted-network count |
//! | `GET /metrics` | Prometheus text: daemon series + per-tenant series labelled `tenant="id"` |
//! | `GET /networks` | list hosted networks |
//! | `POST /networks` | create from an inline scenario body or a checked-in `scenario_file` name |
//! | `GET /networks/{id}/schedule` | converged-schedule summary |
//! | `POST /networks/{id}/adjust` | raise/lower one link's cells; returns the control-message bill |
//! | `DELETE /networks/{id}` | drop a network |
//! | `POST /shutdown?token=…` | token-guarded graceful drain |
//!
//! Module layout mirrors the request path: [`http`] parses bytes into
//! requests (strict, incremental, hard limits), [`state`] routes them
//! against the tenant map and writes one telemetry record per request
//! (its private submodules: the tenant and its caches, the telemetry
//! record and its one lock, the network routes, the operator routes),
//! [`server`] owns the acceptor/worker threads and the graceful drain,
//! [`client`] is the matching minimal client the benchmark and tests
//! speak through.
//!
//! # Examples
//!
//! Boot a loopback daemon, create a network, adjust it, shut down:
//!
//! ```
//! use harpd::client::HttpClient;
//! use harpd::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::loopback(2, "tok", "scenarios")).unwrap();
//! let addr = server.local_addr().unwrap();
//! let join = std::thread::spawn(move || server.run());
//!
//! let mut client = HttpClient::new(addr);
//! let scn = "scenario demo\n[topology]\ngenerator fig1\n[workloads]\ndemand uniform cells=1\n";
//! let body = format!("{{\"tenant\": \"demo\", \"scenario\": \"{}\"}}", scn.replace('\n', "\\n"));
//! assert_eq!(client.post("/networks", &body).unwrap().status, 201);
//! let bill = client.post("/networks/demo/adjust", "{\"node\": 9, \"cells\": 2}").unwrap();
//! assert!(bill.body.contains("mgmt_messages"));
//! assert_eq!(client.post("/shutdown?token=tok", "").unwrap().status, 200);
//! let summary = join.join().unwrap();
//! assert!(summary.metrics.counter("harpd.requests_total").unwrap() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;
pub mod state;
