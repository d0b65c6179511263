//! The seeded workload generator.
//!
//! The generator — and only the generator — sees `--seed`. It emits plain
//! inputs: complete HTTP request bytes for the service workloads, and
//! (scenario, replicate seed) pairs for the simulator workload. harpd and
//! the simulator receive those inputs and nothing else, so a workload is a
//! fixed op sequence that can be replayed pass after pass, over a socket or
//! without one, and op *i* is the same work every time.
//!
//! The *population* of every workload is fixed: which networks exist, which
//! adjustments each tenant receives and in which order it receives them,
//! which replicate seeds each simulator input runs under. All of that is
//! drawn once from [`POPULATION_SEED`]. `--seed` picks the *order*: which
//! network of a size class is created when, how the tenants' adjustment
//! streams interleave, which replicate runs when. Tenants are independent
//! inside harpd, so every count a run reports (management messages,
//! refusals, allocations) is the same sum over the same population under
//! every seed, and runs with different seeds can be compared at the
//! 0.001 bounds the count metrics carry. What a seed changes is what order
//! can change: cache state, heap layout, which tenants are resident when.

use std::fmt::Write as _;

use workloads::TopologyConfig;

/// SplitMix64, kept here so the generated inputs depend on nothing but this
/// file (the repository has its own copy in `tsch-sim`; a change there must
/// not change the benchmark's inputs).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Delete one tenant, create its replacement.
    CreateChurn,
    /// Adjustments only, some infeasible.
    AdjustStorm,
    /// One adjustment, then 143 schedule reads; plus scrapes.
    ReadMostly,
    /// Simulator replicates, no daemon.
    DataplaneReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CreateChurn,
        Workload::AdjustStorm,
        Workload::ReadMostly,
        Workload::DataplaneReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CreateChurn => "create_churn",
            Workload::AdjustStorm => "adjust_storm",
            Workload::ReadMostly => "read_mostly",
            Workload::DataplaneReplay => "dataplane_replay",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request asks the daemon to do; the socket-free replay reports
/// `handle_request` time per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `POST /networks`.
    Create,
    /// `DELETE /networks/{id}`.
    Delete,
    /// `POST /networks/{id}/adjust`.
    Adjust,
    /// `GET /networks/{id}/schedule`.
    Schedule,
    /// `GET /metrics`.
    Metrics,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What it asks for.
    pub class: Class,
    /// Serial number of the tenant it addresses (`u32::MAX` for none).
    pub tenant: u32,
    /// HTTP method.
    pub method: &'static str,
    /// Request path.
    pub path: String,
    /// JSON body (empty for `GET` and `DELETE`).
    pub body: String,
    /// The complete HTTP/1.1 request as `harpd::client::HttpClient` would
    /// put it on the socket; the timed ops send these bytes verbatim.
    pub bytes: Vec<u8>,
}

impl Request {
    fn new(class: Class, tenant: u32, method: &'static str, path: String, body: String) -> Self {
        let bytes = format!(
            "{method} {path} HTTP/1.1\r\nhost: harpd\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Self {
            class,
            tenant,
            method,
            path,
            body,
            bytes,
        }
    }
}

/// A service workload: set-up requests, then the timed op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServicePlan {
    /// Which workload this is.
    pub workload: Workload,
    /// Creates the resident set, then reads every resident schedule back
    /// (the "verified" half of set-up). Timed as `setup_s`, not as ops.
    pub setup: Vec<Request>,
    /// Requests of the timed ops, in send order.
    pub requests: Vec<Request>,
    /// Op *i* is `requests[ops[i].0 .. ops[i].0 + ops[i].1]`.
    pub ops: Vec<(u32, u32)>,
}

/// Which simulator input an op replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimInput {
    /// `scenarios/fault_storm.scn`.
    FaultStorm,
    /// `scenarios/gateway_failover.scn`.
    GatewayFailover,
    /// `workloads::scale_scenario(SCALE_NODES, plan.scale_seed)`.
    Scale,
}

/// The simulator workload: which input each op replays, under which
/// data-plane seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataplanePlan {
    /// Topology seed of the scale scenario.
    pub scale_seed: u64,
    /// (input, replicate seed) per op.
    pub ops: Vec<(SimInput, u64)>,
}

/// Nodes in the scale scenario's tree.
pub const SCALE_NODES: u32 = 500;
/// Slotframes a scale replicate runs (the `.scn` files carry their own).
pub const SCALE_FRAMES: u64 = 4;

/// Seeds the population of every workload; `--seed` only orders it.
const POPULATION_SEED: u64 = 0x4841_5250_2D31_3301;
/// Resident tenants of every service workload.
const RESIDENT: usize = 48;
/// Node counts of `create_churn` networks; network *i* (resident or
/// replacement) has `CHURN_SIZES[i % 8]` nodes, so the size at every
/// position — and with it the resident set's weight at every moment — is
/// the same under every seed. Five eighths have 64 nodes (the median op),
/// one eighth 256: the slowest eighth, and so `op_p99_us`, is the creation
/// the roadmap's "create p99" target names.
const CHURN_SIZES: [u32; 8] = [64, 64, 128, 64, 64, 128, 64, 256];
/// Node count of `adjust_storm` and `read_mostly` tenants.
const STORM_NODES: u32 = 256;
/// Shape of every generated tree (`generator random layers=8
/// max_children=4`, as `harp_load`'s tenants).
const TREE_LAYERS: u32 = 8;
const TREE_MAX_CHILDREN: usize = 4;
/// Adjustments per `adjust_storm` tenant, over 16 hot links (two per
/// depth). Traffic changes concentrate on a few flows: the first raise of
/// a hot link escalates and grows partitions along its path, later changes
/// fit the slack left behind and stay local.
const STORM_OPS_PER_TENANT: usize = 64;
/// How many of those are surges (see `SURGE_MIN`).
const STORM_SURGES_PER_TENANT: usize = 3;
/// Write-then-read groups per `read_mostly` tenant.
const READ_GROUPS_PER_TENANT: usize = 3;
/// Schedule reads after the write of each `read_mostly` group. With 143
/// the writes (and the scrapes) are 0.8 % of the ops and the cache misses
/// that follow them another 0.7 %, so `op_p99_us` lands among the misses —
/// a dense, uniform population — and not inside the broad, sparse spread
/// of adjustment costs, where a percentile of a few hundred samples moves
/// by 10 % from seed to seed.
const READS_PER_GROUP: usize = 143;
/// `read_mostly` scrapes `/metrics` once per this many ops.
const SCRAPE_EVERY: usize = 1024;

fn scale_down(n: usize, quick: bool) -> usize {
    if quick {
        (n / 10).max(1)
    } else {
        n
    }
}

fn tenant_name(serial: u32) -> String {
    format!("n{serial:05}")
}

fn create_request(serial: u32, nodes: u32, topo_seed: u64) -> Request {
    let tenant = tenant_name(serial);
    // The shape harp_load's tenants use: layered random tree on the paper's
    // 199 x 16 slotframe, one cell per link in each direction.
    let scn = format!(
        "scenario {tenant}\nseed 0x{topo_seed:X}\n[topology]\ngenerator random nodes={nodes} layers={TREE_LAYERS} max_children={TREE_MAX_CHILDREN} seed=0x{topo_seed:X} count=1\n[scheduler]\nslots 199\nchannels 16\n[workloads]\ndemand uniform cells=1\n"
    );
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"tenant\": \"{tenant}\", \"scenario\": \"{}\"}}",
        scn.replace('\n', "\\n")
    );
    Request::new(Class::Create, serial, "POST", "/networks".into(), body)
}

fn delete_request(serial: u32) -> Request {
    let path = format!("/networks/{}", tenant_name(serial));
    Request::new(Class::Delete, serial, "DELETE", path, String::new())
}

fn schedule_request(serial: u32) -> Request {
    let path = format!("/networks/{}/schedule", tenant_name(serial));
    Request::new(Class::Schedule, serial, "GET", path, String::new())
}

fn metrics_request() -> Request {
    Request::new(
        Class::Metrics,
        u32::MAX,
        "GET",
        "/metrics".into(),
        String::new(),
    )
}

/// One tenant's adjustments, generated up front from the population seed:
/// a fixed sequence of (hot link, demand) pairs.
///
/// The 16 hot links sit two per tree depth (how far a change escalates
/// grows with depth) and are visited equally often; regular demands cycle
/// through 1..=4 so that successive visits of a link differ; a fixed number
/// of surges, evenly spaced in magnitude, land on distinct links that
/// rotate with the tenant's index.
struct AdjustSource {
    /// (node, is_downlink, cells), consumed from the back.
    pending: Vec<(u32, bool, u64)>,
}

/// Hot links per tenant: one uplink and one downlink per depth.
const HOT_LINKS: usize = 2 * TREE_LAYERS as usize;
/// Surge magnitudes span `SURGE_MIN .. SURGE_MIN + SURGE_SPAN` cells. One
/// link cannot hold more cells than the slotframe has slots (199), so
/// every surge is refused after escalating, and rolls back: the rejection
/// count is part of the workload's shape, not of the seed's luck.
const SURGE_MIN: u64 = 200;
const SURGE_SPAN: u64 = 100;

impl AdjustSource {
    fn new(seed: u64, topo_seed: u64, tenant: usize, n_ops: usize, n_surges: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        // The tree harpd will build from the tenant's scenario text.
        let tree = TopologyConfig {
            nodes: STORM_NODES,
            layers: TREE_LAYERS,
            max_children: TREE_MAX_CHILDREN,
        }
        .generate(topo_seed);
        // hot[2 * (d - 1)] is an uplink at depth d, hot[2 * (d - 1) + 1] a
        // downlink at depth d.
        let mut hot: Vec<(u32, bool)> = Vec::with_capacity(HOT_LINKS);
        for depth in 1..=TREE_LAYERS {
            let mut at_depth = tree.nodes_at_depth(depth);
            rng.shuffle(&mut at_depth);
            // The backbone guarantees one node per depth; it serves both
            // directions when it is alone there.
            let up = at_depth[0];
            let down = *at_depth.get(1).unwrap_or(&up);
            hot.push((up.0, false));
            hot.push((down.0, true));
        }
        // Slot i changes link (tenant * n_ops + i) mod 16, so a tenant with
        // fewer ops than hot links continues where the previous one stopped.
        let link_of = |slot: usize| hot[(tenant * n_ops + slot) % HOT_LINKS];
        let mut cells: Vec<u64> = (0..n_ops)
            .map(|slot| 1 + ((slot + slot / HOT_LINKS + 1) % 4) as u64)
            .collect();
        // Stride 9 over 16 hot links visits eight distinct links, one per
        // depth, before it repeats one.
        for k in 0..n_surges.min(n_ops) {
            let slot = (k * 9 + tenant) % n_ops;
            cells[slot] =
                SURGE_MIN + (k as u64 * SURGE_SPAN + rng.below(SURGE_SPAN)) / n_surges as u64;
        }
        let mut pending: Vec<(u32, bool, u64)> = cells
            .into_iter()
            .enumerate()
            .map(|(slot, c)| {
                let (node, down) = link_of(slot);
                (node, down, c)
            })
            .collect();
        rng.shuffle(&mut pending);
        Self { pending }
    }

    fn next(&mut self, serial: u32) -> Request {
        let (node, down, cells) = self.pending.pop().expect("one draw per planned op");
        let direction = if down { "down" } else { "up" };
        Request::new(
            Class::Adjust,
            serial,
            "POST",
            format!("/networks/{}/adjust", tenant_name(serial)),
            format!("{{\"node\": {node}, \"cells\": {cells}, \"direction\": \"{direction}\"}}"),
        )
    }
}

/// Set-up shared by the service workloads: create the resident tenants,
/// then read each schedule back (the "verified" half of set-up).
fn resident_setup(sizes: &[u32], topo_seeds: &[u64]) -> Vec<Request> {
    let mut setup: Vec<Request> = sizes
        .iter()
        .zip(topo_seeds)
        .enumerate()
        .map(|(i, (&nodes, &seed))| create_request(i as u32, nodes, seed))
        .collect();
    setup.extend((0..sizes.len()).map(|i| schedule_request(i as u32)));
    setup
}

/// The resident 256-node tenants of `adjust_storm` and `read_mostly` and
/// each tenant's adjustment stream (`per_tenant` adjustments, `surges` of
/// them infeasible), all from the population seed.
fn storm_tenants(
    population: &mut SplitMix64,
    resident: usize,
    per_tenant: usize,
    surges: usize,
) -> (Vec<Request>, Vec<AdjustSource>) {
    let topo_seeds: Vec<u64> = (0..resident).map(|_| population.next_u64() >> 32).collect();
    let sources = topo_seeds
        .iter()
        .enumerate()
        .map(|(t, &topo)| AdjustSource::new(population.next_u64(), topo, t, per_tenant, surges))
        .collect();
    (
        resident_setup(&vec![STORM_NODES; resident], &topo_seeds),
        sources,
    )
}

/// Every tenant `per_tenant` times, in the order `--seed` picks: how the
/// tenants' streams interleave.
fn interleaving(order: &mut SplitMix64, resident: usize, per_tenant: usize) -> Vec<u32> {
    let mut turns: Vec<u32> = (0..resident as u32)
        .flat_map(|t| std::iter::repeat(t).take(per_tenant))
        .collect();
    order.shuffle(&mut turns);
    turns
}

/// Generates a service workload. `quick` shrinks it to a tenth.
///
/// # Panics
///
/// Panics when called with [`Workload::DataplaneReplay`], which has no
/// requests; use [`dataplane_plan`].
#[must_use]
pub fn service_plan(workload: Workload, seed: u64, quick: bool) -> ServicePlan {
    // One population stream per workload, so two workloads do not share
    // topologies; one ordering stream per (workload, seed).
    let stream = (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut population = SplitMix64::new(POPULATION_SEED ^ stream);
    let mut order = SplitMix64::new(seed ^ stream);
    let resident = scale_down(RESIDENT, quick).max(8);
    let mut requests = Vec::new();
    let mut ops = Vec::new();
    let setup;
    match workload {
        Workload::CreateChurn => {
            let n_ops = scale_down(1024, quick);
            let sizes: Vec<u32> = (0..resident + n_ops)
                .map(|i| CHURN_SIZES[i % CHURN_SIZES.len()])
                .collect();
            let mut topo_seeds: Vec<u64> =
                sizes.iter().map(|_| population.next_u64() >> 32).collect();
            // The seed deals the topologies of a size class to the
            // positions of that class, residents and replacements apart:
            // the ops create the same networks under every seed.
            for range in [0..resident, resident..resident + n_ops] {
                for size in [64, 128, 256] {
                    let at: Vec<usize> = range.clone().filter(|&i| sizes[i] == size).collect();
                    let mut dealt: Vec<u64> = at.iter().map(|&i| topo_seeds[i]).collect();
                    order.shuffle(&mut dealt);
                    for (&i, seed) in at.iter().zip(dealt) {
                        topo_seeds[i] = seed;
                    }
                }
            }
            setup = resident_setup(&sizes[..resident], &topo_seeds[..resident]);
            // First in, first out: op i retires tenant i and admits tenant
            // resident + i, so replacements are themselves replaced.
            for i in 0..n_ops {
                let serial = resident + i;
                ops.push((requests.len() as u32, 2));
                requests.push(delete_request(i as u32));
                requests.push(create_request(
                    serial as u32,
                    sizes[serial],
                    topo_seeds[serial],
                ));
            }
        }
        Workload::AdjustStorm => {
            let per_tenant = scale_down(STORM_OPS_PER_TENANT, quick);
            let surges = scale_down(STORM_SURGES_PER_TENANT, quick);
            let (created, mut sources) =
                storm_tenants(&mut population, resident, per_tenant, surges);
            setup = created;
            for t in interleaving(&mut order, resident, per_tenant) {
                ops.push((requests.len() as u32, 1));
                requests.push(sources[t as usize].next(t));
            }
        }
        Workload::ReadMostly => {
            let groups_per_tenant = scale_down(READ_GROUPS_PER_TENANT, quick);
            // No surges: the rollback path is adjust_storm's business.
            let (created, mut sources) =
                storm_tenants(&mut population, resident, groups_per_tenant, 0);
            setup = created;
            let mut push = |req: Request, requests: &mut Vec<Request>| {
                ops.push((requests.len() as u32, 1));
                requests.push(req);
                if ops.len() % SCRAPE_EVERY == 0 {
                    ops.push((requests.len() as u32, 1));
                    requests.push(metrics_request());
                }
            };
            for t in interleaving(&mut order, resident, groups_per_tenant) {
                // Write first: the read right after it misses the cache,
                // the rest of the group hits.
                push(sources[t as usize].next(t), &mut requests);
                for _ in 0..READS_PER_GROUP {
                    push(schedule_request(t), &mut requests);
                }
            }
        }
        Workload::DataplaneReplay => panic!("dataplane_replay has no service plan"),
    }
    ServicePlan {
        workload,
        setup,
        requests,
        ops,
    }
}

/// Generates the simulator workload. `quick` shrinks it to a tenth.
#[must_use]
pub fn dataplane_plan(seed: u64, quick: bool) -> DataplanePlan {
    const STREAM: u64 = 0xD6E8_FEB8_6659_FD93;
    let mut population = SplitMix64::new(POPULATION_SEED ^ STREAM);
    let mut order = SplitMix64::new(seed ^ STREAM);
    let scale_seed = population.next_u64() >> 32;
    let per_input = scale_down(334, quick);
    let inputs = [
        SimInput::FaultStorm,
        SimInput::GatewayFailover,
        SimInput::Scale,
    ];
    // Each input runs the same replicate seeds under every `--seed`, which
    // deals them to the input's turns.
    let mut replicates: Vec<Vec<u64>> = inputs
        .iter()
        .map(|_| {
            let mut seeds: Vec<u64> = (0..per_input).map(|_| population.next_u64()).collect();
            order.shuffle(&mut seeds);
            seeds
        })
        .collect();
    // Rotation, as the three inputs would alternate in a sweep.
    let ops = (0..per_input * inputs.len())
        .map(|i| {
            let k = i % inputs.len();
            (inputs[k], replicates[k].pop().expect("one seed per turn"))
        })
        .collect();
    DataplanePlan { scale_seed, ops }
}

impl ServicePlan {
    /// Every generated byte in order — what "the same seed gives the same
    /// inputs" is checked on.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in self.setup.iter().chain(&self.requests) {
            out.extend_from_slice(&r.bytes);
        }
        for &(start, len) in &self.ops {
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [
            Workload::CreateChurn,
            Workload::AdjustStorm,
            Workload::ReadMostly,
        ] {
            let a = service_plan(w, 7, true).to_bytes();
            assert_eq!(a, service_plan(w, 7, true).to_bytes(), "{}", w.name());
            assert_ne!(a, service_plan(w, 8, true).to_bytes(), "{}", w.name());
        }
        assert_eq!(dataplane_plan(7, true), dataplane_plan(7, true));
        assert_ne!(dataplane_plan(7, true), dataplane_plan(8, true));
    }

    #[test]
    fn workload_shape_does_not_depend_on_the_seed() {
        for w in [
            Workload::CreateChurn,
            Workload::AdjustStorm,
            Workload::ReadMostly,
        ] {
            let (a, b) = (service_plan(w, 1, false), service_plan(w, 2, false));
            assert_eq!(a.ops.len(), b.ops.len());
            assert_eq!(a.setup.len(), b.setup.len());
            let classes = |p: &ServicePlan| -> Vec<usize> {
                [
                    Class::Create,
                    Class::Delete,
                    Class::Adjust,
                    Class::Schedule,
                    Class::Metrics,
                ]
                .iter()
                .map(|c| p.requests.iter().filter(|r| r.class == *c).count())
                .collect()
            };
            assert_eq!(classes(&a), classes(&b));
            // The p99 rule needs 10 ops beyond it.
            assert!(a.ops.len() >= 1000, "{} has {} ops", w.name(), a.ops.len());
        }
        assert!(dataplane_plan(1, false).ops.len() >= 1000);
    }

    #[test]
    fn a_seed_only_reorders_the_population() {
        // What a tenant receives, in the order it receives it.
        let per_tenant = |p: &ServicePlan| {
            let mut streams: std::collections::BTreeMap<u32, Vec<Vec<u8>>> = Default::default();
            for r in p.setup.iter().chain(&p.requests) {
                streams.entry(r.tenant).or_default().push(r.bytes.clone());
            }
            streams
        };
        for w in [Workload::AdjustStorm, Workload::ReadMostly] {
            let (a, b) = (service_plan(w, 1, true), service_plan(w, 2, true));
            assert_ne!(a, b, "{}", w.name());
            assert_eq!(per_tenant(&a), per_tenant(&b), "{}", w.name());
        }
        // The networks the churn creates, apart from where they stand.
        let networks = |p: &ServicePlan, range: std::ops::Range<usize>| {
            let creates: Vec<&Request> = p
                .setup
                .iter()
                .chain(&p.requests)
                .filter(|r| r.class == Class::Create)
                .collect();
            let mut generators: Vec<String> = creates[range]
                .iter()
                .map(|r| {
                    let at = r.body.find("generator").expect("a generated topology");
                    r.body[at..].to_owned()
                })
                .collect();
            generators.sort();
            generators
        };
        let (a, b) = (
            service_plan(Workload::CreateChurn, 1, true),
            service_plan(Workload::CreateChurn, 2, true),
        );
        let resident = a.setup.len() / 2;
        assert_eq!(networks(&a, 0..resident), networks(&b, 0..resident));
        let all = resident + a.ops.len();
        assert_eq!(networks(&a, resident..all), networks(&b, resident..all));
        // The replicates each simulator input runs.
        let replicates = |p: &DataplanePlan| {
            let mut ops = p.ops.clone();
            ops.sort_by_key(|&(input, seed)| (input as u8, seed));
            (p.scale_seed, ops)
        };
        assert_eq!(
            replicates(&dataplane_plan(1, true)),
            replicates(&dataplane_plan(2, true))
        );
    }

    #[test]
    fn churn_keeps_the_resident_set_size_constant() {
        let plan = service_plan(Workload::CreateChurn, 3, true);
        let resident = plan.setup.len() / 2;
        for (i, &(start, len)) in plan.ops.iter().enumerate() {
            assert_eq!(len, 2);
            let (del, add) = (
                &plan.requests[start as usize],
                &plan.requests[start as usize + 1],
            );
            assert_eq!((del.class, del.tenant), (Class::Delete, i as u32));
            assert_eq!(
                (add.class, add.tenant),
                (Class::Create, (resident + i) as u32)
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
