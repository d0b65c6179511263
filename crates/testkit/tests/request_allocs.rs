//! Allocation bill of `harpd`'s request path, per route class, on the
//! socket-free path the benchmark replays: request bytes → `try_parse` →
//! `handle_request` → the body buffer back to the pool, as the connection
//! loop does after its write.
//!
//! A request allocates only what it keeps. A parsed request borrows the
//! connection buffer, the route splits its path on the stack, telemetry
//! writes its events' text into the arena the flight recorder reserved when
//! the daemon was built, and a response body
//! is assembled in a pooled buffer. So a cached schedule read allocates
//! nothing, a schedule render allocates the cached copy of its body, and a
//! `/metrics` scrape allocates per metric family, not per tenant or series.
//! A create allocates per table it keeps, so the same at every tree size:
//! the parsed body's strings borrowed from it, one token buffer per
//! scenario, tree tables sized from the node count. An adjustment's body
//! costs its object's member list, and the network adjusts in buffers it
//! keeps. A change that goes back to owned request strings, a segment
//! vector, a string per event, a fresh snapshot per scrape, a string per
//! sample line or a table
//! grown by doubling shows up here first.

use harpd::http::{try_parse, Parsed};
use harpd::state::{handle_request, AppState};
use testkit::alloc::counted;

/// Nodes per tenant: the benchmark's resident shape (256 nodes, 8 layers,
/// at most 4 children, the paper's 199 x 16 slotframe, one cell per link).
const NODES: u32 = 256;
/// The flight ring's capacity in `harpd`.
const FLIGHT_CAPACITY: usize = 1024;

fn tenant(serial: usize) -> String {
    format!("n{serial:05}")
}

/// A create in the benchmark's shape: the scenario is named after the
/// tenant, and both seeds are hexadecimal.
fn create(serial: usize, nodes: u32) -> Vec<u8> {
    let tenant = tenant(serial);
    let scn = format!(
        "scenario {tenant}\\nseed 0x{serial:X}\\n[topology]\\ngenerator random nodes={nodes} layers=8 max_children=4 seed=0x{serial:X} count=1\\n[scheduler]\\nslots 199\\nchannels 16\\n[workloads]\\ndemand uniform cells=1\\n"
    );
    let body = format!("{{\"tenant\": \"{tenant}\", \"scenario\": \"{scn}\"}}");
    format!(
        "POST /networks HTTP/1.1\r\nhost: harpd\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn delete(serial: usize) -> Vec<u8> {
    format!(
        "DELETE /networks/{} HTTP/1.1\r\nhost: harpd\r\n\r\n",
        tenant(serial)
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

/// The `i`th adjustment of the request tests' draws, on tenant `serial`.
fn draw(serial: usize, i: usize) -> Vec<u8> {
    adjust(serial, 1 + (i as u32 * 7) % 255, 1 + (i as u32) % 3)
}

const SCRAPE: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: harpd\r\n\r\n";
const INCIDENT: &[u8] = b"GET /debug/flight?incident HTTP/1.1\r\nhost: harpd\r\n\r\n";

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

/// A daemon hosting 8 tenants (serials 0 to 7) whose flight ring has
/// turned twice: the requests that follow evict an event for each one they
/// record, as on a daemon that has run for a while, and each tenant's
/// schedule is cached.
fn warm() -> AppState {
    let state = AppState::new("secret".into(), "scenarios".into());
    for serial in 0..8 {
        allocs(&state, &create(serial, NODES), 201);
    }
    for i in 0..2 * FLIGHT_CAPACITY {
        allocs(&state, &read(i % 8), 200);
    }
    state
}

#[test]
fn a_request_allocates_only_what_it_keeps() {
    /// Mean allocations of a cached schedule read: none (15 while the
    /// request was owned strings, the route a vector of segments and each
    /// flight event two fresh strings).
    const HIT_BUDGET: f64 = 0.0;
    /// Mean allocations of the read after an adjustment: the cached copy of
    /// the body, + 10 % (17 before).
    const MISS_BUDGET: f64 = 1.1;
    /// One scrape of 48 tenants: 2, the vector of slot guards and the
    /// vector of groups (154 while each scrape cloned the daemon's snapshot
    /// and rebuilt the exposition's family index, 8,262 with a snapshot, a
    /// label set and a string per sample line for every tenant), + 10 %
    /// (400 before).
    const SCRAPE_BUDGET: u64 = 2;
    /// Mean allocations of an adjustment, committed or refused: 5.3
    /// (5.9 while a grown partition re-laid its children, 13.0 while the JSON parser copied the body's strings, a full
    /// repack packed in fresh vectors, the undo log took a fresh buffer
    /// per event and an error body was formatted, 14.0 while the JSON
    /// parser grew the body's key strings by doubling, 15.9 while the schedule kept a vector per stacked cell
    /// too, 144.5 with Alg. 2's idle area, lists and layouts and the
    /// control plane's deliveries in fresh vectors, 157.1 with the
    /// report's B-tree sets too), + 10 %.
    const ADJUST_BUDGET: f64 = 5.9;
    /// What 40 more tenants may add to a scrape: nothing, since both
    /// vectors are sized once from the tenant count and the kept families
    /// have grown to hold them (27 while the vector of guards and each
    /// family's vector of series doubled afresh; 32 before).
    const SCRAPE_GROWTH_BUDGET: u64 = 0;
    /// One create through the whole request path, the same at 64, 128 and
    /// 256 nodes: 51 (54 while the JSON parser copied the body's keys and
    /// the tenant id, 98/102/106 while the scenario parser tokenized into a
    /// vector per line, the JSON parser grew strings by doubling, the tree
    /// tables grew from length 1 and harpd copied the inline scenario),
    /// + 10 %.
    const CREATE_BUDGET: u64 = 56;

    let state = warm();
    let reads: Vec<Vec<u8>> = (0..256).map(|i| read(i % 8)).collect();
    let hits: u64 = reads.iter().map(|r| allocs(&state, r, 200)).sum();
    let hit = hits as f64 / reads.len() as f64;

    let (mut adjusted, mut missed, mut adjusts) = (0u64, 0u64, 0u64);
    for i in 0..64 {
        let serial = i % 8;
        let request = draw(serial, i);
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
        allocs(&state, &create(serial, NODES), 201);
    }
    let scrape_48 = scrape(&state);
    let creates = create_row(&state);

    println!(
        "allocations per request: schedule hit {hit:.1}, schedule miss {miss:.1}, adjust {adjust:.1}, metrics scrape (8 tenants) {scrape_8}, (48 tenants) {scrape_48}, create 64/128/256 nodes {}/{}/{}",
        creates[0], creates[1], creates[2]
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
        scrape_48 <= scrape_8 + SCRAPE_GROWTH_BUDGET,
        "40 more tenants cost a scrape {} allocations, budget {SCRAPE_GROWTH_BUDGET}",
        scrape_48.saturating_sub(scrape_8)
    );
    assert!(
        creates.iter().all(|&c| c == creates[0]),
        "a create allocates {creates:?} times at {CREATE_SIZES:?} nodes, not the same at every size"
    );
    assert!(
        creates[0] <= CREATE_BUDGET,
        "a create allocates {} times, budget {CREATE_BUDGET}",
        creates[0]
    );
}

/// A fresh daemon records without allocating: 8 tenants created and their
/// schedules read once, which renders and caches them, then 256 cached
/// reads: 280 of the flight ring's 1,024 events, so the ring has not
/// turned and no event evicts another. Each cached read allocates
/// nothing, since its event's text goes into the arena the recorder
/// reserved when the daemon was built (512, two a read, while an event held
/// two strings of its own until the ring had turned once).
#[test]
fn a_fresh_daemon_records_without_allocating() {
    let state = AppState::new("secret".into(), "scenarios".into());
    for serial in 0..8 {
        allocs(&state, &create(serial, NODES), 201);
        allocs(&state, &read(serial), 200);
    }
    let reads: Vec<Vec<u8>> = (0..256).map(|i| read(i % 8)).collect();
    let hits: u64 = reads.iter().map(|r| allocs(&state, r, 200)).sum();
    println!("allocations of 256 schedule hits on a fresh daemon: {hits}");
    assert_eq!(hits, 0, "256 cached reads on a fresh daemon allocate");
}

/// What a resident tenant costs: the bytes a warm daemon still holds per
/// 256-node tenant after its create, its first schedule read and 64
/// adjustments, each followed by a read. Every ring a tenant keeps holds
/// what `/debug/trace` returns and no more, so the rest is the node tables,
/// the schedule and its cached body.
#[test]
fn a_tenant_keeps_what_its_readers_read() {
    /// Bytes per tenant: 195,553 (251,213 while the node tables kept
    /// partitions, placements and runs of cells in 32-bit words, node
    /// records of 120 bytes against 72 and link rows of 56 against 32;
    /// 275,789 while a span named its layer
    /// and name in two string slices, 72 bytes a span against 48, so each
    /// of its two 512-span rings held 36,864 bytes against 24,576; 276,269
    /// while a grown partition re-laid its children, 286,237 while every
    /// node record held 40 bytes of counters, 396,829 while the allocator's
    /// span ring held 2,048 spans, four times what its dump returns),
    /// + 10 % (276,334 and 303,368 before).
    const RESIDENT_BUDGET: i64 = 215_108;
    const TENANTS: usize = 8;

    let state = warm();
    // One storm first: its trip freezes the flight recorder's incident, a
    // copy of the daemon's ring that no tenant below should be billed for.
    for i in 0..64 {
        serve(&state, &draw(0, i));
    }
    allocs(&state, INCIDENT, 200);
    let before = testkit::alloc::live();
    for serial in 8..8 + TENANTS {
        allocs(&state, &create(serial, NODES), 201);
        allocs(&state, &read(serial), 200);
        for i in 0..64 {
            let (status, _) = serve(&state, &draw(serial, i));
            assert!(status == 200 || status == 409, "adjust answered {status}");
            allocs(&state, &read(serial), 200);
        }
    }
    let resident = (testkit::alloc::live() - before) / TENANTS as i64;
    println!("resident bytes per tenant {resident}");
    assert!(
        resident <= RESIDENT_BUDGET,
        "a tenant holds {resident} bytes, budget {RESIDENT_BUDGET}"
    );
}

/// Tree sizes of the create row: the benchmark's `create_churn` mix.
const CREATE_SIZES: [u32; 3] = [64, 128, 256];
/// Creates billed per size, each deleted again before the next.
const CREATE_REPEATS: usize = 3;

/// The allocations of one create at each of [`CREATE_SIZES`], on a daemon
/// whose flight ring is full; every create of a size must cost the same.
fn create_row(state: &AppState) -> [u64; 3] {
    let mut row = [0; 3];
    for (k, &nodes) in CREATE_SIZES.iter().enumerate() {
        let counts: Vec<u64> = (0..CREATE_REPEATS)
            .map(|r| {
                let serial = 1000 + k * CREATE_REPEATS + r;
                let a = allocs(state, &create(serial, nodes), 201);
                allocs(state, &delete(serial), 200);
                a
            })
            .collect();
        row[k] = counts[0];
        assert!(
            counts.iter().all(|&c| c == row[k]),
            "creates at {nodes} nodes allocate {counts:?} times"
        );
    }
    row
}

/// The layers a request's allocations are filed under, in the order the
/// bill prints them, each with the frames that belong to it. A frame is
/// matched against the layers in this order, so the JSON parser is not
/// filed under obs, nor tree building under tsch-sim.
#[cfg(debug_assertions)]
const LAYERS: [(&str, &[&str]); 8] = [
    ("harpd", &["harpd::"]),
    ("JSON", &["harp_obs::json::"]),
    ("scenario DSL", &["workloads::scenario_dsl::"]),
    (
        "topology",
        &["workloads::topo_gen::", "tsch_sim::topology::"],
    ),
    ("HARP", &["harp_core::"]),
    ("packing", &["packing::"]),
    ("tsch-sim", &["tsch_sim::"]),
    ("obs", &["harp_obs::"]),
];

/// Files one allocation under its layer in [`LAYERS`]: the innermost frame
/// of this workspace decides. Frames outside it (std, the allocator) are
/// skipped; an allocation no workspace frame claims is harpd's, whose
/// request path called it.
#[cfg(debug_assertions)]
fn layer_of(backtrace: &str) -> usize {
    let outside = |frame: &str| {
        let path = frame.trim_start_matches('<');
        ["core::", "alloc::", "std::"]
            .iter()
            .any(|p| path.starts_with(p))
    };
    backtrace
        .lines()
        .filter_map(|line| line.trim_start().split_once(": ").map(|(_, f)| f))
        .filter(|f| !outside(f))
        .find_map(|frame| {
            LAYERS
                .iter()
                .position(|(_, frames)| frames.iter().any(|m| frame.contains(m)))
        })
        .unwrap_or(0)
}

/// Who allocates in a create: one create at each of [`CREATE_SIZES`] on a
/// daemon whose flight ring is full, each allocation filed by the frames
/// it was made in. Every layer must bill the same at every size, and the
/// layers must sum to the total. Debug only, where every function keeps
/// its frame.
#[cfg(debug_assertions)]
#[test]
fn create_bill_per_layer() {
    let state = AppState::new("secret".into(), "scenarios".into());
    allocs(&state, &create(0, 64), 201);
    for _ in 0..2 * FLIGHT_CAPACITY {
        allocs(&state, &read(0), 200);
    }
    let mut bills = Vec::with_capacity(CREATE_SIZES.len());
    for (k, &nodes) in CREATE_SIZES.iter().enumerate() {
        let request = create(1 + k, nodes);
        let before = testkit::alloc::allocated().0;
        let (status, bill) =
            testkit::alloc::sites::attributed(layer_of, || serve(&state, &request).0);
        let total = testkit::alloc::allocated().0 - before;
        assert_eq!(status, 201);
        assert_eq!(
            bill.iter().sum::<u64>(),
            total,
            "at {nodes} nodes the layers sum to the total"
        );
        allocs(&state, &delete(1 + k), 200);
        bills.push((bill, total));
    }
    let (bill, total) = bills[0];
    let layers: Vec<String> = LAYERS
        .iter()
        .zip(bill)
        .map(|((name, _), n)| format!("{name} {n}"))
        .collect();
    println!(
        "create bill per layer (allocations per create at {CREATE_SIZES:?} nodes): {}; total {total}",
        layers.join(", ")
    );
    for (&nodes, &(other, _)) in CREATE_SIZES.iter().zip(&bills) {
        assert_eq!(
            other, bill,
            "at {nodes} nodes the layers bill {other:?}, at {} nodes {bill:?}",
            CREATE_SIZES[0]
        );
    }
}

/// Adjustments billed per layer, after as many to warm the tenant.
#[cfg(debug_assertions)]
const BILLED_ADJUSTS: usize = 64;

/// Who allocates in an adjust request: a 256-node tenant's adjustments
/// on a daemon whose flight ring is full, after as many to warm its
/// buffers, each allocation filed by the frames it was made in. The
/// layers must sum to the total, the JSON body bills at most its object's
/// member list, and packing bills nothing: Alg. 2 places in the
/// network's workspace. Debug only, where every function keeps its frame.
#[cfg(debug_assertions)]
#[test]
fn adjust_bill_per_layer() {
    let state = AppState::new("secret".into(), "scenarios".into());
    allocs(&state, &create(0, NODES), 201);
    for _ in 0..2 * FLIGHT_CAPACITY {
        allocs(&state, &read(0), 200);
    }
    let request = |i: usize| draw(0, i);
    for i in 0..BILLED_ADJUSTS {
        serve(&state, &request(i));
    }
    let (mut bill, mut total, mut refused) = ([0u64; LAYERS.len()], 0, 0);
    for i in BILLED_ADJUSTS..2 * BILLED_ADJUSTS {
        let request = request(i);
        let before = testkit::alloc::allocated().0;
        let (status, one) =
            testkit::alloc::sites::attributed(layer_of, || serve(&state, &request).0);
        total += testkit::alloc::allocated().0 - before;
        assert!(status == 200 || status == 409, "adjust answered {status}");
        refused += u64::from(status == 409);
        for (layer, n) in bill.iter_mut().zip(one) {
            *layer += n;
        }
    }
    let per_request = |n: u64| n as f64 / BILLED_ADJUSTS as f64;
    let layers: Vec<String> = LAYERS
        .iter()
        .zip(bill)
        .map(|((name, _), n)| format!("{name} {:.1}", per_request(n)))
        .collect();
    println!(
        "adjust bill per layer (allocations per adjust request, {refused} of {BILLED_ADJUSTS} refused): {}; total {:.1}",
        layers.join(", "),
        per_request(total)
    );
    assert_eq!(
        bill.iter().sum::<u64>(),
        total,
        "the layers sum to the total"
    );
    let layer = |name: &str| bill[LAYERS.iter().position(|(n, _)| *n == name).unwrap()];
    assert!(
        layer("JSON") <= BILLED_ADJUSTS as u64,
        "the JSON bodies bill {:.1} per request, more than their member lists",
        per_request(layer("JSON"))
    );
    assert_eq!(layer("packing"), 0, "a warm network packs in its workspace");
}

/// Allocation sites inside `FlightRecorder::trip` go under layer 1, the
/// rest under layer 0.
#[cfg(debug_assertions)]
fn in_trip(backtrace: &str) -> usize {
    usize::from(backtrace.contains("FlightRecorder::trip"))
}

/// What a trip costs: the adjustment that completes a storm (its tenant's
/// 64th commit inside the window) on a warm daemon, each allocation filed
/// by whether `FlightRecorder::trip` made it. The trip keeps its reason and
/// copies the ring's heads and its text arena; the incident is rendered
/// only when it is read (4,111 allocations in the trip and 1,363,717 bytes
/// in the request while the trip rendered the ring to JSON). Debug only,
/// where every function keeps its frame.
#[cfg(debug_assertions)]
#[test]
fn a_trip_copies_the_ring_and_renders_nothing() {
    /// Allocations inside the trip: the reason, the heads, the arena.
    const TRIP_BUDGET: u64 = 3;
    /// Bytes of the whole storm-completing adjustment: 115,099, of which
    /// the copy is 1,024 heads of 64 bytes and a 48 KiB arena, + 10 %.
    const TRIP_BYTES_BUDGET: u64 = 126_600;

    let state = warm();
    assert_eq!(serve(&state, INCIDENT).0, 404, "nothing has tripped yet");
    for i in 0..2 * FLIGHT_CAPACITY {
        let request = draw(0, i);
        let before = testkit::alloc::allocated().1;
        let (status, bill) =
            testkit::alloc::sites::attributed(in_trip, || serve(&state, &request).0);
        let bytes = testkit::alloc::allocated().1 - before;
        assert!(status == 200 || status == 409, "adjust answered {status}");
        if bill[1] == 0 {
            continue;
        }
        assert_eq!(serve(&state, INCIDENT).0, 200, "the trip froze an incident");
        println!(
            "trip bill: {} allocations in the trip, {} in the request, {bytes} bytes",
            bill[1],
            bill[0] + bill[1]
        );
        assert!(
            bill[1] <= TRIP_BUDGET,
            "a trip allocates {} times, budget {TRIP_BUDGET}",
            bill[1]
        );
        assert!(
            bytes <= TRIP_BYTES_BUDGET,
            "the tripping request allocates {bytes} bytes, budget {TRIP_BYTES_BUDGET}"
        );
        return;
    }
    panic!("no storm tripped the recorder");
}
