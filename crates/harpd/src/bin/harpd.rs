//! The `harpd` binary: bind, serve, drain, print the final metrics.
//!
//! ```text
//! harpd [--addr 127.0.0.1] [--port 0] [--workers 4] \
//!       [--token <secret>] [--scenario-dir scenarios] [--slo-us 2000000]
//! ```
//!
//! Prints `harpd listening on <addr>:<port>` once ready (the load
//! generator and CI smoke poll for the socket, but the line makes logs
//! self-describing), serves until a token-matched `POST /shutdown`, then
//! prints the final Prometheus snapshot to stdout and exits 0.

use std::process::ExitCode;

use harpd::server::{Server, ServerConfig};

const USAGE: &str = "usage: harpd [--addr ADDR] [--port PORT] [--workers N] [--token SECRET] [--scenario-dir DIR] [--slo-us MICROS]";

/// The configuration the flags describe, or `None` for `--help`.
fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut addr = "127.0.0.1".to_owned();
    let mut port = "0".to_owned();
    let mut config = ServerConfig::loopback(4, "harpd", "scenarios");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--addr" => addr = value()?,
            "--port" => port = value()?,
            "--token" => config.token = value()?,
            "--scenario-dir" => config.scenario_dir = value()?.into(),
            "--workers" => {
                config.workers = value()?
                    .parse()
                    .map_err(|_| "--workers takes a number".to_owned())?;
            }
            "--slo-us" => {
                config.slo_us = value()?
                    .parse()
                    .map_err(|_| "--slo-us takes microseconds".to_owned())?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    config.addr = format!("{addr}:{port}");
    Ok(Some(config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("harpd: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let addr = config.addr.clone();
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("harpd: bind {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(local) => println!("harpd listening on {local}"),
        Err(e) => eprintln!("harpd: local_addr: {e}"),
    }

    let summary = server.run();
    println!("harpd: drained with {} network(s) hosted", summary.networks);
    print!("{}", summary.exposition());
    ExitCode::SUCCESS
}
