//! The blocking TCP server: one acceptor, a fixed worker pool, graceful
//! drain on shutdown.
//!
//! Connections flow acceptor → `mpsc` channel → workers; each worker
//! owns one connection at a time and serves keep-alive requests off it
//! until the peer closes, errors, or shutdown begins. Shutdown is
//! cooperative: the `/shutdown` handler flips the [`AppState`] flag, the
//! worker that served it wakes the acceptor with one loopback connect
//! (accept on `std::net` has no timeout), the acceptor drops the channel
//! sender, and workers finish their in-flight requests — responses
//! during the drain carry `connection: close` — before joining. The
//! final metrics snapshot survives in [`ServerSummary`].

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use harp_obs::prometheus::write_exposition;
use harp_obs::MetricsSnapshot;

use crate::http::{read_more, try_parse, Parsed};
use crate::state::{handle_request_timed, handle_unparsed, micros, AppState};

/// How the server binds and behaves.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Shared secret the `/shutdown` endpoint requires.
    pub token: String,
    /// Directory `scenario_file` create bodies resolve under.
    pub scenario_dir: std::path::PathBuf,
    /// Per-read socket timeout; bounds how long a worker waits on a slow
    /// or silent peer.
    pub read_timeout: Duration,
    /// Per-request latency SLO in microseconds; a slower request trips
    /// the flight recorder into freezing an incident snapshot.
    pub slo_us: u64,
}

impl ServerConfig {
    /// A loopback config on an OS-assigned port (tests, load generator).
    #[must_use]
    pub fn loopback(workers: usize, token: &str, scenario_dir: &str) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            token: token.to_owned(),
            scenario_dir: std::path::PathBuf::from(scenario_dir),
            read_timeout: Duration::from_secs(5),
            slo_us: crate::state::DEFAULT_SLO_US,
        }
    }
}

/// What the server reports after draining.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// The daemon-level metrics at shutdown.
    pub metrics: MetricsSnapshot,
    /// Networks still hosted when the server stopped.
    pub networks: usize,
}

impl ServerSummary {
    /// The final snapshot as Prometheus exposition text (printed by the
    /// binary on exit — the "flush" of the service's last state).
    #[must_use]
    pub fn exposition(&self) -> String {
        let mut text = String::new();
        write_exposition(&mut text, &[(&[], &self.metrics)]);
        text
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    state: Arc<AppState>,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// The bind error (address in use, permission).
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(AppState::new(
            config.token.clone(),
            config.scenario_dir.clone(),
        ));
        state.set_slo_us(config.slo_us);
        Ok(Self {
            listener,
            config,
            state,
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// The socket's `local_addr` error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (tests reach the shutdown flag through this).
    #[must_use]
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Runs until a `/shutdown` request drains the server. Blocks the
    /// calling thread (which acts as the acceptor).
    pub fn run(self) -> ServerSummary {
        let local_addr = self.listener.local_addr().ok();
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let wake_sent = Arc::new(AtomicBool::new(false));

        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for i in 0..self.config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            let wake_sent = Arc::clone(&wake_sent);
            let read_timeout = self.config.read_timeout;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("harpd-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&rx, &state, &wake_sent, local_addr, read_timeout);
                    })
                    .expect("spawn worker thread"),
            );
        }

        // Acceptor loop: hand streams to workers until shutdown.
        for stream in self.listener.incoming() {
            if self.state.is_shutting_down() {
                // The wake connection (or any straggler) lands here; drop
                // it unserved and stop accepting.
                break;
            }
            match stream {
                Ok(s) => {
                    // Depth counts connections accepted but not yet picked
                    // up by a worker — the backlog `/debug/health` reports.
                    self.state.queue_enter();
                    if tx.send(s).is_err() {
                        self.state.queue_leave();
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Listener is wedged; drain and stop rather than spin.
                    self.state.request_shutdown();
                    break;
                }
            }
        }
        drop(tx); // workers drain queued streams, then see the channel close
        for worker in workers {
            let _ = worker.join();
        }
        ServerSummary {
            metrics: self.state.metrics_snapshot(),
            networks: self.state.network_count(),
        }
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    state: &Arc<AppState>,
    wake_sent: &Arc<AtomicBool>,
    local_addr: Option<std::net::SocketAddr>,
    read_timeout: Duration,
) {
    loop {
        // Hold the receiver lock only while taking one stream.
        let stream = {
            let Ok(guard) = rx.lock() else { return };
            guard.recv()
        };
        let Ok(stream) = stream else { return };
        state.queue_leave();
        serve_connection(stream, state, read_timeout);
        if state.is_shutting_down() && !wake_sent.swap(true, Ordering::SeqCst) {
            // First worker to observe shutdown unblocks the acceptor.
            if let Some(addr) = local_addr {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
        }
    }
}

fn serve_connection(mut stream: TcpStream, state: &Arc<AppState>, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(4 * 1024);
    // CPU time over every incremental parse of the current message,
    // excluding socket waits: the `parse` span of the request trace.
    let mut parse_us: u64 = 0;
    loop {
        let started = Instant::now();
        let parsed = try_parse(&buf);
        parse_us = parse_us.saturating_add(micros(started.elapsed()));
        let err = match parsed {
            Ok(Parsed::Complete(req, consumed)) => {
                let mut resp = handle_request_timed(state, &req, parse_us);
                if !req.keep_alive || state.is_shutting_down() {
                    resp.close = true;
                }
                let wrote = resp.write_to(&mut stream).is_ok();
                // The request borrows the buffer, so its bytes go only now.
                drop(req);
                buf.drain(..consumed);
                parse_us = 0;
                // The body buffer came from the state's pool (handlers
                // assemble into `take_buf` buffers); hand it back so the
                // next response reuses the allocation.
                state.recycle_buf(std::mem::take(&mut resp.body));
                if !wrote || resp.close {
                    return;
                }
                continue;
            }
            Ok(Parsed::Incomplete) => match read_more(&mut stream, &mut buf) {
                Ok(true) => continue,
                Ok(false) => return, // clean close or idle timeout
                Err(err) => err,
            },
            Err(err) => err,
        };
        // Counted, then answered best-effort; framing is gone, so close.
        let _ = handle_unparsed(state, &err).write_to(&mut stream);
        return;
    }
}
