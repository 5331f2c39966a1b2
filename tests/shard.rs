//! E23 — fault-contained route-server federation.
//!
//! The paper's §4 scaling argument ("the routing matrices between
//! different users do not overlap, so we can have one route server per
//! user") implies more than throughput: a *partial* back-end failure
//! should stay partial. These tests drive the shard federation through
//! the public facade and hold it to that standard: a seeded shard kill
//! mid-storm leaves every survivor lab at 100% ping delivery, sheds
//! only cross-shard frames (counted, on the source shard), recovers the
//! victim from its own journal inside the grace window — and the whole
//! story is bit-for-bit reproducible.

use rnl::core::shardlab::ShardedLabs;
use rnl::device::host::Host;
use rnl::net::time::Duration;
use rnl::obs::{merge_trace, Hop};
use rnl::server::capture::CaptureDir;
use rnl::server::shard::shard_of_router;
use rnl::server::web::{self, Request, Response, ShardKey};
use rnl::tunnel::faults::ShardFaultPlan;
use rnl::tunnel::msg::{PortId, RouterId};
use rnl::SiteId;

use proptest::prelude::*;

fn host(name: &str, num: u32, ip: &str) -> Box<Host> {
    let mut h = Host::new(name, num);
    h.set_ip(ip.parse().expect("test ip"));
    Box::new(h)
}

/// First pc-name (scanning `pc-0`, `pc-1`, …) owned by `shard` that is
/// not already in `taken`.
fn pc_owned_by(labs: &ShardedLabs, shard: usize, taken: &[String]) -> String {
    (0..)
        .map(|i| format!("pc-{i}"))
        .find(|n| labs.owner_of(n) == Some(shard) && !taken.contains(n))
        .expect("ring covers every shard")
}

/// One cross-shard lab: two sites on the given shards, one host each,
/// a spanning design deployed through the federation. Returns the two
/// site ids; hosts are `10.<net>.0.1` and `10.<net>.0.2`.
fn cross_lab(
    labs: &mut ShardedLabs,
    taken: &mut Vec<String>,
    shard_a: usize,
    shard_b: usize,
    net: usize,
) -> (SiteId, SiteId) {
    let a = pc_owned_by(labs, shard_a, taken);
    taken.push(a.clone());
    let b = pc_owned_by(labs, shard_b, taken);
    taken.push(b.clone());
    let sa = labs.add_site(&a);
    let sb = labs.add_site(&b);
    labs.add_device(sa, host("ha", 1, &format!("10.{net}.0.1/24")), "ha")
        .expect("device a");
    labs.add_device(sb, host("hb", 2, &format!("10.{net}.0.2/24")), "hb")
        .expect("device b");
    let ra = labs.join_labs(sa).expect("join a")[0];
    let rb = labs.join_labs(sb).expect("join b")[0];
    assert_eq!(shard_of_router(ra), shard_a);
    assert_eq!(shard_of_router(rb), shard_b);
    let mut d = rnl::server::design::Design::new(&format!("lab-{net}"));
    d.add_device(ra);
    d.add_device(rb);
    d.connect((ra, PortId(0)), (rb, PortId(0))).expect("link");
    labs.save_design(d).expect("save");
    labs.deploy("e23", &format!("lab-{net}")).expect("deploy");
    (sa, sb)
}

fn ping(labs: &mut ShardedLabs, site: SiteId, net: usize, count: u32) {
    labs.console(site, 0, &format!("ping 10.{net}.0.2 count {count}"))
        .expect("ping");
}

fn show_ping(labs: &mut ShardedLabs, site: SiteId) -> String {
    labs.console(site, 0, "show ping").expect("show ping")
}

/// The E23 scenario, returning a transcript of everything observable:
/// ping outputs, recovery counters, and the frame-accounting ledger.
/// Called twice by the reproducibility assertion.
fn e23_run() -> String {
    let mut labs = ShardedLabs::new(4);
    let mut taken = Vec::new();
    // Four cross-shard labs covering every shard; shard 0 will die.
    // Labs 1 and 2 never touch shard 0 — the containment witnesses.
    let pairs = [
        cross_lab(&mut labs, &mut taken, 0, 1, 0),
        cross_lab(&mut labs, &mut taken, 1, 2, 1),
        cross_lab(&mut labs, &mut taken, 2, 3, 2),
        cross_lab(&mut labs, &mut taken, 3, 0, 3),
    ];

    // Kill shard 0 one virtual second into the storm; it journal
    // recovers 500 ms later, well inside the 60 s grace window.
    let mut plan = ShardFaultPlan::new();
    plan.schedule_kill(
        0,
        labs.now() + Duration::from_secs(1),
        Duration::from_millis(500),
    );
    labs.set_fault_plan(plan);

    // The storm: every lab pings through the kill window.
    for (net, &(sa, _)) in pairs.iter().enumerate() {
        ping(&mut labs, sa, net, 10);
    }
    labs.run(Duration::from_secs(15)).expect("storm");

    let mut transcript = String::new();
    for (net, &(sa, _)) in pairs.iter().enumerate() {
        let out = show_ping(&mut labs, sa);
        transcript.push_str(&format!("lab-{net}: {out}\n"));
        // Containment: labs that never touch the dead shard lose
        // nothing — 10/10 through the whole outage.
        if net == 1 || net == 2 {
            assert!(out.contains("10 received"), "survivor lab-{net}: {out}");
        }
    }

    // Crash-local recovery: the victim is back, from its own journal.
    let csum = |labs: &ShardedLabs, name: &str| labs.federation().obs().counter_sum(name);
    assert!(labs.federation().is_up(0), "shard 0 recovered");
    assert_eq!(csum(&labs, "rnl_server_shard_kills_total"), 1);
    assert_eq!(csum(&labs, "rnl_server_shard_recoveries_total"), 1);
    // Sheds were counted on the (surviving) source shards — the fed
    // ledger and the per-server `reason="trunk-down"` books agree.
    let fed_sheds = csum(&labs, "rnl_server_shard_containment_sheds_total");
    let server_sheds: u64 = (0..4)
        .filter_map(|k| labs.federation().server(k))
        .map(|s| {
            s.obs().snapshot().counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "trunk-down")],
            )
        })
        .sum();
    assert_eq!(fed_sheds, server_sheds, "every shed frame is accounted");
    transcript.push_str(&format!(
        "kills=1 recoveries=1 sheds={fed_sheds} trunk_frames={}\n",
        csum(&labs, "rnl_server_shard_trunk_frames_total")
    ));

    // Post-recovery, the books balance exactly: every frame a shard
    // hands to the trunk tier is either carried or shed, and every
    // carried frame is delivered or counted as dropped in flight.
    let before_fwd = csum(&labs, "rnl_server_shard_trunk_frames_total");
    let before_drop = csum(&labs, "rnl_server_shard_trunk_fault_dropped_total");
    let in_out = |labs: &ShardedLabs| -> (u64, u64) {
        let mut tin = 0u64;
        let mut tout = 0u64;
        for k in 0..4 {
            if let Some(s) = labs.federation().server(k) {
                let snap = s.obs().snapshot();
                tin += snap.counter("rnl_server_trunk_frames_total", &[("dir", "in")]);
                tout += snap.counter("rnl_server_trunk_frames_total", &[("dir", "out")]);
            }
        }
        (tin, tout)
    };
    let (in0, out0) = in_out(&labs);
    for (net, &(sa, _)) in pairs.iter().enumerate() {
        ping(&mut labs, sa, net, 5);
    }
    labs.run(Duration::from_secs(8)).expect("recovered round");
    for (net, &(sa, _)) in pairs.iter().enumerate() {
        let out = show_ping(&mut labs, sa);
        // The victim's labs are whole again: deployments re-adopted
        // from the journal, remote routes re-installed.
        assert!(out.contains("5 received"), "post-recovery lab-{net}: {out}");
        transcript.push_str(&format!("recovered lab-{net}: {out}\n"));
    }
    let (in1, out1) = in_out(&labs);
    let fwd = csum(&labs, "rnl_server_shard_trunk_frames_total") - before_fwd;
    let dropped = csum(&labs, "rnl_server_shard_trunk_fault_dropped_total") - before_drop;
    assert_eq!(
        out1 - out0,
        fwd,
        "clean window: everything offered was carried"
    );
    assert_eq!(
        fwd,
        (in1 - in0) + dropped,
        "carried = delivered + dropped-in-flight"
    );
    transcript.push_str(&format!(
        "window out={} fwd={fwd} in={}\n",
        out1 - out0,
        in1 - in0
    ));
    transcript
}

#[test]
fn e23_kill_mid_storm_is_contained_and_reproducible() {
    let first = e23_run();
    let second = e23_run();
    assert_eq!(first, second, "E23 must be bit-for-bit reproducible");
}

/// Satellite: the front tier routes each op class to the right shard
/// and passes broadcast/federation ops through — table-driven over
/// [`web::shard_key`].
#[test]
fn front_tier_routing_table() {
    let labs = ShardedLabs::new(4);
    let owner = |name: &str| labs.owner_of(name).expect("ring");
    let design = "table-design".to_string();
    let router = RouterId(2 * 4096 + 7); // stride puts this on shard 2
    let cases: Vec<(Request, ShardKey)> = vec![
        (
            Request::CreateDesign {
                name: design.clone(),
            },
            ShardKey::Principal(design.clone()),
        ),
        (
            Request::AnalyzeDesign {
                design: design.clone(),
            },
            ShardKey::Principal(design.clone()),
        ),
        (
            Request::Console {
                router,
                line: "show clock".into(),
            },
            ShardKey::Router(router),
        ),
        (Request::ListInventory, ShardKey::Broadcast),
        (Request::ListDesigns, ShardKey::Broadcast),
        (Request::GetMetrics { prefix: None }, ShardKey::Broadcast),
        (
            Request::Deploy {
                user: "u".into(),
                design: design.clone(),
                force: false,
            },
            ShardKey::Federation,
        ),
        (
            Request::Teardown {
                deployment: rnl::server::matrix::DeploymentId(1),
            },
            ShardKey::Federation,
        ),
    ];
    for (request, expected) in cases {
        assert_eq!(web::shard_key(&request), expected, "{request:?}");
    }
    // Router keys resolve through the id-range, principals through the
    // ring the sites' dialer uses too.
    assert_eq!(shard_of_router(router), 2);
    assert!(owner(&design) < 4);
}

/// A cross-shard design must be buildable through the front tier
/// alone: `add_device` validates each router against the inventory of
/// the shard that *owns* it, not the design's home shard — then the
/// deployed wire relays over the trunk end to end.
#[test]
fn cross_shard_design_builds_via_api() {
    let mut labs = ShardedLabs::new(4);
    let mut taken = Vec::new();
    let a = pc_owned_by(&labs, 0, &taken);
    taken.push(a.clone());
    let b = pc_owned_by(&labs, 1, &taken);
    let sa = labs.add_site(&a);
    let sb = labs.add_site(&b);
    labs.add_device(sa, host("ha", 1, "10.9.0.1/24"), "ha")
        .expect("device a");
    labs.add_device(sb, host("hb", 2, "10.9.0.2/24"), "hb")
        .expect("device b");
    let ra = labs.join_labs(sa).expect("join a")[0];
    let rb = labs.join_labs(sb).expect("join b")[0];
    assert_ne!(shard_of_router(ra), shard_of_router(rb));

    // Build the design through the API only — no direct Design access.
    let ops = [
        Request::CreateDesign { name: "api".into() },
        Request::AddDevice {
            design: "api".into(),
            router: ra,
        },
        Request::AddDevice {
            design: "api".into(),
            router: rb,
        },
        Request::ConnectPorts {
            design: "api".into(),
            a: (ra, PortId(0)),
            b: (rb, PortId(0)),
        },
        Request::Deploy {
            user: "e23".into(),
            design: "api".into(),
            force: false,
        },
    ];
    for op in ops {
        let r = labs.api(op.clone());
        assert!(!matches!(r, Response::Error { .. }), "{op:?} -> {r:?}");
    }

    // A ghost router is still rejected, now against the union view.
    let ghost = labs.api(Request::AddDevice {
        design: "api".into(),
        router: RouterId(3 * 4096 + 999),
    });
    assert!(
        matches!(&ghost, Response::Error { code, .. } if code == "unknown-router"),
        "ghost add: {ghost:?}"
    );

    ping(&mut labs, sa, 9, 3);
    labs.run(Duration::from_secs(5)).expect("run");
    let out = show_ping(&mut labs, sa);
    assert!(out.contains("3 received"), "trunk relay: {out}");
}

/// Regression: a frame that rides a trunk used to be tapped
/// `FromPort` on its source shard and nowhere else, so a capture on
/// the far port of a cross-shard wire saw only the traffic that port
/// *sent*. The delivering shard now taps `ToPort`.
#[test]
fn capture_on_the_far_port_of_a_cross_shard_wire_sees_trunked_frames() {
    let mut labs = ShardedLabs::new(2);
    let (sa, sb) = cross_lab(&mut labs, &mut Vec::new(), 0, 1, 7);
    let rb = labs.router_id(sb, 0).expect("router b");
    labs.federation_mut()
        .server_mut(1)
        .expect("shard 1")
        .captures_mut()
        .start(rb, PortId(0));
    ping(&mut labs, sa, 7, 3);
    labs.run(Duration::from_secs(5)).expect("run");
    assert!(show_ping(&mut labs, sa).contains("3 received"));

    let shard1 = labs.federation().server(1).expect("shard 1");
    let seen = |dir| {
        shard1
            .captures()
            .captured(rb, PortId(0))
            .iter()
            .filter(|f| f.dir == dir)
            .count()
    };
    // One ARP exchange plus three echoes, each way.
    assert!(seen(CaptureDir::FromPort) >= 4, "replies leaving hb");
    assert!(
        seen(CaptureDir::ToPort) >= 4,
        "requests that reached hb over the trunk, got {}",
        seen(CaptureDir::ToPort)
    );
}

/// Regression: the source shard used to journal a trunked frame's
/// matrix hit with the *encoded body* length (header included) while
/// every other hop carries the payload length, so a cross-shard
/// trace's byte count jumped mid-path.
#[test]
fn cross_shard_trace_reports_one_constant_size() {
    let mut labs = ShardedLabs::new(2);
    let (sa, _) = cross_lab(&mut labs, &mut Vec::new(), 0, 1, 8);
    ping(&mut labs, sa, 8, 3);
    labs.run(Duration::from_secs(5)).expect("run");

    let shard0 = labs.federation().server(0).expect("shard 0");
    let shard1 = labs.federation().server(1).expect("shard 1");
    // Frames ha sent: received by shard 0, delivered by shard 1.
    let sent: Vec<_> = shard0
        .journal()
        .events()
        .iter()
        .filter(|e| e.hop == Hop::ServerRx)
        .map(|e| e.trace)
        .collect();
    assert!(sent.len() >= 4, "ARP + three echoes, got {}", sent.len());
    for trace in sent {
        let path = merge_trace(&[shard0.journal(), shard1.journal()], trace);
        let hops: Vec<Hop> = path.iter().map(|e| e.hop).collect();
        assert_eq!(hops, [Hop::ServerRx, Hop::MatrixHit, Hop::ServerTx]);
        let sizes: Vec<u32> = path.iter().map(|e| e.bytes).collect();
        assert!(
            sizes.iter().all(|&b| b == sizes[0]),
            "byte count changes along {trace:?}: {sizes:?}"
        );
    }
}

/// Satellite: `shard-down` is a structured, retryable error — stable
/// `code`, a `retry_after_us` hint on the JSON surface — and the
/// facade's retry loop rides the hint to success once the shard is
/// journal-recovered.
#[test]
fn shard_down_is_structured_and_retries_heal() {
    let mut labs = ShardedLabs::new(2);
    labs.api(Request::CreateDesign { name: "d".into() });
    let victim = labs.owner_of("d").expect("owner");
    labs.kill_shard(victim, Some(Duration::from_millis(300)));

    // Structured on the typed surface…
    let r = labs.api(Request::AnalyzeDesign { design: "d".into() });
    let Response::Error {
        code,
        retry_after_us,
        ..
    } = &r
    else {
        panic!("expected shard-down, got {r:?}");
    };
    assert_eq!(code, "shard-down");
    let hint = retry_after_us.expect("retryable hint");
    assert!(hint > 0);

    // …and on the wire: the JSON encoding carries both fields.
    let json = web::encode_response(&r).encode();
    assert!(json.contains("\"shard-down\""), "wire form: {json}");
    assert!(json.contains("retry_after_us"), "wire form: {json}");

    // The facade retry loop honors the hint and heals.
    let healed = labs
        .api_with_retry(Request::AnalyzeDesign { design: "d".into() }, 50)
        .expect("retry");
    assert!(
        !matches!(healed, Response::Error { .. }),
        "recovered shard serves again: {healed:?}"
    );
}

proptest! {
    /// Chaos: a seeded shard fault (kill or trunk partition) at an
    /// arbitrary point of a ping storm. Whatever the interleaving: no
    /// panic, the lab that never touches the faulted pieces stays at
    /// 100% delivery, every shed frame is accounted on the fed ledger,
    /// and after recovery the victim's lab answers again.
    #[test]
    fn chaos_shard_faults_keep_containment(
        seed in any::<u64>(),
        fault_at_ms in 200u64..1_500,
        down_ms in 300u64..1_200,
    ) {
        let mut labs = ShardedLabs::new(3);
        let mut taken = Vec::new();
        // Lab 0 spans shards 0-1 (touches the victim); lab 1 spans
        // shards 1-2 and never touches shard 0 or the 0-x trunks.
        let (v_a, _) = cross_lab(&mut labs, &mut taken, 0, 1, 0);
        let (s_a, _) = cross_lab(&mut labs, &mut taken, 1, 2, 1);

        let mut plan = ShardFaultPlan::new();
        let at = labs.now() + Duration::from_millis(fault_at_ms);
        let down = Duration::from_millis(down_ms);
        if seed.is_multiple_of(2) {
            plan.schedule_kill(0, at, down);
        } else {
            plan.schedule_partition(0, 1, at, down);
        }
        labs.set_fault_plan(plan);

        ping(&mut labs, v_a, 0, 8);
        ping(&mut labs, s_a, 1, 8);
        labs.run(Duration::from_secs(12)).expect("storm");

        // Containment: the untouched lab never lost a ping.
        let out = show_ping(&mut labs, s_a);
        prop_assert!(out.contains("8 received"), "survivor lab: {out}");

        // Accounting: the fed shed ledger never undercounts the books
        // kept by the (surviving) source shards.
        let fed_sheds = labs
            .federation()
            .obs()
            .counter_sum("rnl_server_shard_containment_sheds_total");
        let server_sheds: u64 = (0..3)
            .filter_map(|k| labs.federation().server(k))
            .map(|s| s.obs().snapshot().counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "trunk-down")],
            ))
            .sum();
        prop_assert!(
            fed_sheds >= server_sheds,
            "fed ledger {fed_sheds} < server books {server_sheds}"
        );

        // Recovery: everything is up again and the victim's lab —
        // deployment re-adopted from its own journal — answers.
        prop_assert!(labs.federation().is_up(0));
        prop_assert!(labs.federation().is_up(1));
        ping(&mut labs, v_a, 0, 3);
        labs.run(Duration::from_secs(6)).expect("recovered round");
        let out = show_ping(&mut labs, v_a);
        prop_assert!(out.contains("3 received"), "victim lab after recovery: {out}");
    }
}
