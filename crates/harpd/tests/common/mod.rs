//! The daemon and the tenant both loopback suites start from.

use harpd::server::{Server, ServerConfig, ServerSummary};

const SCN: &str = "scenario loopback\nseed 7\n[topology]\ngenerator random nodes=40 layers=6 max_children=4 seed=0xBEEF count=1\n[workloads]\ndemand uniform cells=1\n";

pub fn create_body(tenant: &str) -> String {
    format!(
        "{{\"tenant\": \"{tenant}\", \"scenario\": \"{}\"}}",
        SCN.replace('\n', "\\n")
    )
}

pub fn boot(workers: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<ServerSummary>) {
    let server = Server::bind(ServerConfig::loopback(
        workers,
        "loop-token",
        "/nonexistent",
    ))
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}
