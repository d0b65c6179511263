//! Allocation bill of `harpd`'s request path, per route class, on the
//! socket-free path the benchmark replays: request bytes → `try_parse` →
//! `handle_request` → the body buffer back to the pool, as the connection
//! loop does after its write.
//!
//! A request allocates only what it keeps. A parsed request borrows the
//! connection buffer, the route splits its path on the stack, telemetry
//! writes into the flight event the full ring evicts, and a response body
//! is assembled in a pooled buffer. So a cached schedule read allocates
//! nothing, a schedule render allocates the cached copy of its body, and a
//! `/metrics` scrape allocates per metric family, not per tenant or series.
//! A change that goes back to owned request strings, a segment vector, a
//! fresh event per record or a string per sample line shows up here first.

use harpd::http::{try_parse, Parsed};
use harpd::state::{handle_request, AppState};
use testkit::alloc::counted;

/// Nodes per tenant: the benchmark's resident shape (256 nodes, 8 layers,
/// at most 4 children, the paper's 199 x 16 slotframe, one cell per link).
const NODES: u32 = 256;
/// The flight ring's capacity in `harpd`, which the warm-up fills twice.
const FLIGHT_CAPACITY: usize = 1024;

fn tenant(serial: usize) -> String {
    format!("n{serial:05}")
}

fn create(serial: usize) -> Vec<u8> {
    let scn = format!(
        "scenario t\\nseed {serial}\\n[topology]\\ngenerator random nodes={NODES} layers=8 max_children=4 seed={serial} count=1\\n[scheduler]\\nslots 199\\nchannels 16\\n[workloads]\\ndemand uniform cells=1\\n"
    );
    let body = format!(
        "{{\"tenant\": \"{}\", \"scenario\": \"{scn}\"}}",
        tenant(serial)
    );
    format!(
        "POST /networks HTTP/1.1\r\nhost: harpd\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn read(serial: usize) -> Vec<u8> {
    format!(
        "GET /networks/{}/schedule HTTP/1.1\r\nhost: harpd\r\n\r\n",
        tenant(serial)
    )
    .into_bytes()
}

fn adjust(serial: usize, node: u32, cells: u32) -> Vec<u8> {
    let body = format!("{{\"node\": {node}, \"cells\": {cells}, \"direction\": \"up\"}}");
    format!(
        "POST /networks/{}/adjust HTTP/1.1\r\nhost: harpd\r\ncontent-length: {}\r\n\r\n{body}",
        tenant(serial),
        body.len()
    )
    .into_bytes()
}

const SCRAPE: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: harpd\r\n\r\n";

/// Serves `bytes` as one request and returns its status and allocations.
fn serve(state: &AppState, bytes: &[u8]) -> (u16, u64) {
    counted(|| {
        let Ok(Parsed::Complete(request, consumed)) = try_parse(bytes) else {
            panic!("{} does not parse", String::from_utf8_lossy(bytes));
        };
        assert_eq!(consumed, bytes.len());
        let mut response = handle_request(state, &request);
        state.recycle_buf(std::mem::take(&mut response.body));
        response.status
    })
}

/// Serves `bytes` expecting `status`, and returns its allocations.
fn allocs(state: &AppState, bytes: &[u8], status: u16) -> u64 {
    let (got, allocs) = serve(state, bytes);
    assert_eq!(got, status, "{}", String::from_utf8_lossy(bytes));
    allocs
}

/// The allocations of the second of two scrapes: the first writes each
/// tenant's series for the first time and grows the pooled body buffer.
fn scrape(state: &AppState) -> u64 {
    allocs(state, SCRAPE, 200);
    allocs(state, SCRAPE, 200)
}

#[test]
fn a_request_allocates_only_what_it_keeps() {
    /// Mean allocations of a cached schedule read: none (15 while the
    /// request was owned strings, the route a vector of segments and each
    /// flight event two fresh strings).
    const HIT_BUDGET: f64 = 1.0;
    /// Mean allocations of the read after an adjustment: the cached copy of
    /// the body (17 before).
    const MISS_BUDGET: f64 = 4.0;
    /// One scrape of 48 tenants: the daemon's snapshot and the families of
    /// the exposition (8,262 with a snapshot, a label set and a string per
    /// sample line for every tenant).
    const SCRAPE_BUDGET: u64 = 400;
    /// Mean allocations of an adjustment, committed or refused: 15.9
    /// (144.5 with Alg. 2's idle area, lists and layouts and the control
    /// plane's deliveries in fresh vectors, 157.1 with the report's B-tree
    /// sets too), + 10 %.
    const ADJUST_BUDGET: f64 = 17.5;
    /// What 40 more tenants may add to a scrape: the vector of groups and
    /// each family's vector of series double a few more times, nothing is
    /// allocated per tenant.
    const SCRAPE_GROWTH_BUDGET: u64 = 32;

    let state = AppState::new("secret".into(), "scenarios".into());
    for serial in 0..8 {
        allocs(&state, &create(serial), 201);
    }
    // Two turns of the flight ring, so every event lands in a slot whose
    // strings have held one of its shape before: the reads below record
    // into a full ring, and their count is its bill too.
    for i in 0..2 * FLIGHT_CAPACITY {
        allocs(&state, &read(i % 8), 200);
    }
    let reads: Vec<Vec<u8>> = (0..256).map(|i| read(i % 8)).collect();
    let hits: u64 = reads.iter().map(|r| allocs(&state, r, 200)).sum();
    let hit = hits as f64 / reads.len() as f64;

    let (mut adjusted, mut missed, mut adjusts) = (0u64, 0u64, 0u64);
    for i in 0..64 {
        let serial = i % 8;
        let request = adjust(serial, 1 + (i as u32 * 7) % 255, 1 + (i as u32) % 3);
        let (status, a) = serve(&state, &request);
        assert!(status == 200 || status == 409, "adjust answered {status}");
        // Even a refused adjustment moves the clock, so the read misses.
        adjusted += a;
        adjusts += 1;
        missed += allocs(&state, &read(serial), 200);
    }
    let (adjust, miss) = (
        adjusted as f64 / adjusts as f64,
        missed as f64 / adjusts as f64,
    );

    let scrape_8 = scrape(&state);
    for serial in 8..48 {
        allocs(&state, &create(serial), 201);
    }
    let scrape_48 = scrape(&state);

    println!(
        "allocations per request: schedule hit {hit:.1}, schedule miss {miss:.1}, adjust {adjust:.1}, metrics scrape (8 tenants) {scrape_8}, (48 tenants) {scrape_48}"
    );
    assert!(
        hit <= HIT_BUDGET,
        "a cached read allocates {hit:.1} times, budget {HIT_BUDGET}"
    );
    assert!(
        miss <= MISS_BUDGET,
        "a schedule render allocates {miss:.1} times, budget {MISS_BUDGET}"
    );
    assert!(
        adjust <= ADJUST_BUDGET,
        "an adjustment allocates {adjust:.1} times, budget {ADJUST_BUDGET}"
    );
    assert!(
        scrape_48 <= SCRAPE_BUDGET,
        "a 48-tenant scrape allocates {scrape_48} times, budget {SCRAPE_BUDGET}"
    );
    assert!(
        scrape_48.saturating_sub(scrape_8) <= SCRAPE_GROWTH_BUDGET,
        "40 more tenants cost a scrape {} allocations, budget {SCRAPE_GROWTH_BUDGET}",
        scrape_48.saturating_sub(scrape_8)
    );
}
