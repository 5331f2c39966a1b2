//! Property tests on the back-end data structures: the JSON codec, the
//! design interchange format, the reservation calendar's no-overlap
//! invariant, the routing matrix's symmetry/exclusivity invariants, and
//! the durable log's replay fidelity for a route server and for a
//! federation.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rnl_device::host::Host;
use rnl_net::time::{Duration, Instant};
use rnl_ris::Ris;
use rnl_server::design::Design;
use rnl_server::journal::{
    frame_record, CrashPoint, Durability, FileJournal, JournalError, MemJournal, Recovered,
};
use rnl_server::json::Json;
use rnl_server::matrix::RoutingMatrix;
use rnl_server::reserve::Calendar;
use rnl_server::shard::{FedDeployment, Federation};
use rnl_server::RouteServer;
use rnl_tunnel::msg::{PortId, RouterId};
use rnl_tunnel::transport::mem_pair_perfect;

fn t(ms: u64) -> Instant {
    Instant::EPOCH + Duration::from_millis(ms)
}

/// A journal that writes every record twice: `compacted` takes every
/// snapshot, `full` only the first, so it keeps the whole op log.
struct Tee {
    compacted: MemJournal,
    full: MemJournal,
    full_has_snapshot: bool,
}

impl Durability for Tee {
    fn append(&mut self, payload: &[u8]) -> Result<usize, JournalError> {
        self.full.append(payload)?;
        self.compacted.append(payload)
    }

    fn write_snapshot(&mut self, records: &[Vec<u8>]) -> Result<(), JournalError> {
        if !self.full_has_snapshot {
            self.full.write_snapshot(records)?;
            self.full_has_snapshot = true;
        }
        self.compacted.write_snapshot(records)
    }

    fn load(&mut self) -> Result<Recovered, JournalError> {
        self.compacted.load()
    }

    fn arm_crash(&mut self, point: Option<CrashPoint>) {
        self.compacted.arm_crash(point);
    }
}

/// The durable state read back through the server's accessors rather
/// than through `durable_state()`, so a snapshot that loses something is
/// caught even though the live server would encode the loss too.
fn state_view(server: &RouteServer) -> String {
    let inventory: Vec<_> = server
        .inventory()
        .list()
        .map(|r| (r.id, r.session, &r.pc_name, &r.info))
        .collect();
    let calendar: Vec<_> = server.calendar().iter().collect();
    let mut deployments: Vec<_> = server
        .deployments()
        .map(|d| (d, server.matrix().links_of(d.id)))
        .collect();
    deployments.sort_by_key(|(d, _)| d.id);
    let designs: Vec<_> = server
        .designs()
        .names()
        .map(|name| server.designs().load(name))
        .collect();
    format!("{inventory:?}\n{calendar:?}\n{deployments:?}\n{designs:?}")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rnl-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spanning designs of the federation property: each pairs a router of
/// shard 0 with one of shard 1, so deploying two that share a router
/// fails harmlessly.
const FED_DESIGNS: [(usize, usize); 3] = [(0, 2), (1, 3), (0, 3)];

/// A two-shard file-durable federation over `dir`. On a fresh `dir`,
/// two single-host sites register on each shard and the
/// [`FED_DESIGNS`] are saved on their home shards; a used `dir` is
/// simply recovered.
fn boot_federation(dir: &Path, fresh: bool) -> Federation {
    let mut fed = Federation::new(2, 0xfeed);
    fed.enable_file_durability(dir, t(0)).unwrap();
    if !fresh {
        return fed;
    }
    let mut routers = Vec::new();
    for i in 0u64..4 {
        let shard = (i / 2) as usize;
        let (ris_side, server_side) = mem_pair_perfect(300 + i);
        fed.attach_to(shard, Box::new(server_side)).unwrap();
        let mut ris = Ris::new(&format!("fpc{i}"), Box::new(ris_side));
        let mut h = Host::new(&format!("fh{i}"), 80 + i as u32);
        h.set_ip(format!("10.2.0.{}/24", i + 1).parse().unwrap());
        ris.add_device(Box::new(h), "prop host");
        ris.join_labs(t(0)).unwrap();
        fed.poll(t(0));
        ris.poll(t(0)).unwrap();
        routers.push(ris.router_id(0).unwrap());
    }
    for (i, &(a, b)) in FED_DESIGNS.iter().enumerate() {
        let name = format!("span{i}");
        let mut d = Design::new(&name);
        d.add_device(routers[a]);
        d.add_device(routers[b]);
        d.connect((routers[a], PortId(0)), (routers[b], PortId(0)))
            .unwrap();
        let home = fed.shard_of_principal(&name).unwrap();
        fed.server_mut(home).unwrap().save_design(d);
    }
    fed
}

/// Every federation deployment with an id below `upto`.
fn fed_view(fed: &Federation, upto: u64) -> Vec<(u64, FedDeployment)> {
    (0..upto)
        .filter_map(|id| fed.fed_deployment(id).map(|d| (id, d.clone())))
        .collect()
}

/// Run `ops` (deploy design `pick`, or tear down the newest live
/// deployment) against a federation over `dir`, rebooting it — which
/// compacts its log — before op `restart_at`. Returns the federation and
/// every id it handed out.
fn run_federation(dir: &Path, ops: &[(bool, u8)], restart_at: usize) -> (Federation, Vec<u64>) {
    let mut fed = boot_federation(dir, true);
    let mut issued = Vec::new();
    let mut live = Vec::new();
    for (i, &(deploy, pick)) in ops.iter().enumerate() {
        if i == restart_at {
            drop(fed);
            fed = boot_federation(dir, false);
        }
        let now = t(1_000 + i as u64);
        if deploy {
            let name = format!("span{}", pick as usize % FED_DESIGNS.len());
            if let Ok(id) = fed.deploy_spanning("u", &name, true, now) {
                issued.push(id);
                live.push(id);
            }
        } else if let Some(id) = live.pop() {
            assert!(fed.teardown_fed(id, now).unwrap());
        }
        assert!(!fed.crashed());
    }
    (fed, issued)
}

/// A store written by the version-1 format is refused with an error
/// naming that version, not misread.
#[test]
fn version_one_store_is_refused() {
    let dir = scratch_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    let mut record = frame_record(br#"{"version":1}"#);
    record[0] = 1;
    std::fs::write(dir.join("snapshot.rnl"), record).unwrap();
    let refused = RouteServer::recover(Box::new(FileJournal::open(&dir).unwrap()), t(0));
    let message = refused.err().map(|e| e.to_string()).unwrap_or_default();
    assert!(message.contains("version 1"), "{message:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn arb_json(depth: u32) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Stick to integers exactly representable in f64 so equality is
        // well-defined through the text form.
        (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64)),
        "[ -~]{0,16}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Obj),
        ]
    })
    .boxed()
}

proptest! {
    #[test]
    fn json_encode_parse_identity(value in arb_json(3)) {
        let encoded = value.encode();
        prop_assert_eq!(Json::parse(&encoded).unwrap(), value);
    }

    #[test]
    fn json_parse_never_panics(text in "\\PC{0,128}") {
        let _ = Json::parse(&text);
    }

    #[test]
    fn design_json_roundtrip(
        devices in proptest::collection::btree_set(0u32..64, 1..10),
        link_seed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
    ) {
        let mut d = Design::new("prop");
        let devices: Vec<RouterId> = devices.into_iter().map(RouterId).collect();
        for &id in &devices {
            d.add_device(id);
        }
        // Draw links between random (device, port) pairs; invalid ones
        // (port reuse, self loop) are rejected by the API and skipped.
        for (a, b) in link_seed {
            let ea = (devices[a as usize % devices.len()], PortId(u16::from(a % 8)));
            let eb = (devices[b as usize % devices.len()], PortId(u16::from(b % 8) + 8));
            let _ = d.connect(ea, eb);
        }
        prop_assert!(d.validate().is_ok());
        let parsed = Design::from_json(&Json::parse(&d.to_json().encode()).unwrap()).unwrap();
        prop_assert_eq!(parsed, d);
    }

    /// After any sequence of reserve/cancel operations, no router is
    /// ever double-booked at any instant.
    #[test]
    fn calendar_never_double_books(
        ops in proptest::collection::vec(
            (0u8..2, 0u32..6, 0u64..200, 1u64..50, 0u8..4),
            1..40,
        )
    ) {
        let mut cal = Calendar::new();
        let mut live: Vec<rnl_server::reserve::ReservationId> = Vec::new();
        for (op, router, start, len, user) in ops {
            match op {
                0 => {
                    let start = Instant::EPOCH + Duration::from_secs(start * 3600);
                    let end = start + Duration::from_secs(len * 3600);
                    if let Ok(id) = cal.reserve(
                        &format!("u{user}"),
                        &[RouterId(router), RouterId(router + 1)],
                        start,
                        end,
                    ) {
                        live.push(id);
                    }
                }
                _ => {
                    if let Some(id) = live.pop() {
                        cal.cancel(id);
                    }
                }
            }
        }
        // Invariant: per router, the schedule has no overlapping pair.
        for router in 0..8u32 {
            let schedule = cal.schedule(RouterId(router));
            for pair in schedule.windows(2) {
                prop_assert!(
                    pair[0].end <= pair[1].start,
                    "overlap on router {router}: {:?} vs {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// After any sequence of deploy/teardown operations, the matrix is
    /// symmetric and router ownership matches live deployments exactly.
    #[test]
    fn matrix_stays_symmetric_and_exclusive(
        ops in proptest::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..40)
    ) {
        let mut m = RoutingMatrix::new();
        let mut live: Vec<(rnl_server::matrix::DeploymentId, Vec<RouterId>)> = Vec::new();
        for (deploy, a, b) in ops {
            if deploy && a != b {
                let routers = vec![RouterId(a), RouterId(b)];
                let links = vec![((RouterId(a), PortId(0)), (RouterId(b), PortId(0)))];
                if let Ok(id) = m.deploy(&routers, &links) {
                    live.push((id, routers));
                }
            } else if let Some((id, _)) = live.pop() {
                prop_assert!(m.teardown(id));
            }
        }
        // Symmetry of every live link.
        for (id, routers) in &live {
            for &(ea, eb) in m.links_of(*id).unwrap() {
                prop_assert_eq!(m.lookup(ea), Some(eb));
                prop_assert_eq!(m.lookup(eb), Some(ea));
            }
            for &r in routers {
                prop_assert_eq!(m.owner_of(r), Some(*id));
            }
        }
        prop_assert_eq!(m.active_deployments(), live.len());
        // No router is owned by a dead deployment.
        let live_ids: Vec<_> = live.iter().map(|(id, _)| *id).collect();
        for r in 0..12u32 {
            if let Some(owner) = m.owner_of(RouterId(r)) {
                prop_assert!(live_ids.contains(&owner), "stale owner {owner:?}");
            }
        }
    }

    /// The durability contract: for an arbitrary sequence of journaled
    /// mutations (reserve, cancel, deploy, teardown, compact) against a
    /// real server with registered sessions, and a snapshot at any step
    /// k, recover(snapshot@k + tail) == recover(full log) == live, byte
    /// for byte.
    #[test]
    fn journal_replay_reconstructs_identical_state(
        ops in proptest::collection::vec((0u8..5, 0u8..8, 1u64..48), 0..30),
        k in 0usize..30,
    ) {
        let (compacted, full) = (MemJournal::new(), MemJournal::new());
        let (compacted_store, full_store) = (compacted.store(), full.store());
        let wal = Tee { compacted, full, full_has_snapshot: false };
        let mut server = RouteServer::new();
        server.set_enforce_reservations(false);
        server.set_durability(Box::new(wal), t(0)).unwrap();

        // Three registered sites, one host each.
        let mut routers = Vec::new();
        let mut risen = Vec::new();
        for i in 0u64..3 {
            let (ris_side, server_side) = mem_pair_perfect(100 + i);
            server.attach(Box::new(server_side));
            let mut ris = Ris::new(&format!("pc{i}"), Box::new(ris_side));
            let mut h = Host::new(&format!("h{i}"), 70 + i as u32);
            h.set_ip(format!("10.1.0.{}/24", i + 1).parse().unwrap());
            ris.add_device(Box::new(h), "prop host");
            ris.join_labs(t(0)).unwrap();
            server.poll(t(0));
            ris.poll(t(0)).unwrap();
            routers.push(ris.router_id(0).unwrap());
            risen.push(ris);
        }

        // Saved pair designs the random ops reserve and deploy.
        let mut designs = Vec::new();
        for (i, (a, b)) in [(0usize, 1usize), (1, 2), (0, 2)].iter().enumerate() {
            let mut d = Design::new(&format!("d{i}"));
            d.add_device(routers[*a]);
            d.add_device(routers[*b]);
            d.connect((routers[*a], PortId(0)), (routers[*b], PortId(0)))
                .unwrap();
            server.save_design(d.clone());
            designs.push(d);
        }

        let mut live_res = Vec::new();
        let mut live_deps = Vec::new();
        for (i, (op, pick, span)) in ops.into_iter().enumerate() {
            let now = t(1_000 + i as u64);
            if i == k {
                server.snapshot_now(now).unwrap();
            }
            match op {
                0 => {
                    // Conflicting reservations fail and journal nothing.
                    let start = t(100_000) + Duration::from_secs(span * 3_600);
                    let end = start + Duration::from_secs(3_600);
                    let name = format!("d{}", pick as usize % designs.len());
                    if let Ok(id) = server.reserve_design(&format!("u{pick}"), &name, start, end) {
                        live_res.push(id);
                    }
                }
                1 => {
                    if let Some(id) = live_res.pop() {
                        server.cancel_reservation(id);
                    }
                }
                2 => {
                    // Already-owned routers make this fail harmlessly.
                    let d = &designs[pick as usize % designs.len()];
                    if let Ok(id) = server.deploy_design_forced(&format!("u{pick}"), d, now) {
                        live_deps.push(id);
                    }
                }
                3 => {
                    if let Some(id) = live_deps.pop() {
                        server.teardown(id);
                    }
                }
                _ => {
                    server.snapshot_now(now).unwrap();
                }
            }
            prop_assert!(!server.crashed());
        }

        let (live, live_view) = (server.durable_state().encode(), state_view(&server));
        drop(server);
        for store in [compacted_store, full_store] {
            let recovered =
                RouteServer::recover(Box::new(MemJournal::attached(store)), t(999_999)).unwrap();
            prop_assert_eq!(recovered.durable_state().encode(), live.clone());
            prop_assert_eq!(state_view(&recovered), live_view.clone());
        }
    }

    /// The same contract for the federation's own log: for any sequence
    /// of spanning deploys and teardowns, with the log compacted (by a
    /// reboot) before any step k, the recovered federation equals the
    /// live one and equals a run whose log was never compacted — and a
    /// federation id, once handed out, is never handed out again.
    #[test]
    fn federation_log_replay_reconstructs_identical_state(
        ops in proptest::collection::vec((any::<bool>(), 0u8..3), 0..10),
        k in 0usize..10,
    ) {
        let (dir_k, dir_full) = (scratch_dir("fed-k"), scratch_dir("fed-full"));
        let (fed_k, issued) = run_federation(&dir_k, &ops, k);
        let (fed_full, _) = run_federation(&dir_full, &ops, usize::MAX);
        let upto = issued.iter().max().map_or(1, |&id| id + 1);
        let live = fed_view(&fed_k, upto);
        prop_assert_eq!(&fed_view(&fed_full, upto), &live);
        drop((fed_k, fed_full));
        let mut fed = boot_federation(&dir_k, false);
        prop_assert_eq!(&fed_view(&fed, upto), &live);
        prop_assert_eq!(&fed_view(&boot_federation(&dir_full, false), upto), &live);

        // Tear everything down, compact that away, deploy again: the new
        // id is fresh.
        for (id, _) in &live {
            prop_assert!(fed.teardown_fed(*id, t(90_000)).unwrap());
        }
        drop(fed);
        let mut fed = boot_federation(&dir_k, false);
        let id = fed.deploy_spanning("u", "span0", true, t(91_000)).unwrap();
        prop_assert!(issued.iter().all(|&old| id > old), "id {} reissued from {:?}", id, issued);
        drop(fed);
        for dir in [dir_k, dir_full] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
