//! `rnl-lint --json` and the web API speak one JSON dialect: for a
//! design exported through the API, every line the CLI prints is the
//! exact payload the `analyze_design` / `verify_design` ops answer.

use std::process::Command;

use rnl_device::router::Router;
use rnl_device::switch::Switch;
use rnl_net::time::Instant;
use rnl_ris::Ris;
use rnl_server::json::Json;
use rnl_server::web::handle_json;
use rnl_server::RouteServer;
use rnl_tunnel::transport::mem_pair_perfect;

/// Three registered routers in a chain, each end stub on its own access
/// switch. r3's uplink sits on the wrong subnet (an analyzer warning),
/// and with no route back toward r1's stub the verifier reports both
/// directions as blackholed (errors, so the CLI exits 1).
const CONFIGS: [&str; 5] = [
    "interface FastEthernet0/0\n ip address 10.12.0.1 255.255.255.0\n!\n\
     interface FastEthernet0/1\n ip address 10.1.0.1 255.255.0.0\n!\n\
     ip route 10.3.0.0 255.255.0.0 10.12.0.2\n",
    "interface FastEthernet0/0\n ip address 10.12.0.2 255.255.255.0\n!\n\
     interface FastEthernet0/1\n ip address 10.23.0.2 255.255.255.0\n!\n\
     ip route 10.3.0.0 255.255.0.0 10.23.0.3\n",
    "interface FastEthernet0/0\n ip address 10.99.0.3 255.255.255.0\n!\n\
     interface FastEthernet0/1\n ip address 10.3.0.1 255.255.0.0\n!\n",
    SWITCH,
    SWITCH,
];

const SWITCH: &str = "interface FastEthernet0/0\n switchport access vlan 1\n!\n";

fn api(server: &mut RouteServer, request: &Json) -> Json {
    let reply = handle_json(server, &request.encode(), Instant::EPOCH);
    Json::parse(&reply).expect("reply is JSON")
}

#[test]
fn json_output_equals_the_web_payloads() {
    let mut server = RouteServer::new();
    let (ris_side, server_side) = mem_pair_perfect(7);
    server.attach(Box::new(server_side));
    let mut ris = Ris::new("lint-pc", Box::new(ris_side));
    for k in 1..=3u32 {
        ris.add_device(Box::new(Router::new(&format!("r{k}"), k, 4)), "router");
    }
    for k in 4..=5u32 {
        let switch = Switch::new(&format!("s{k}"), k, 4, Instant::EPOCH);
        ris.add_device(Box::new(switch), "switch");
    }
    ris.join_labs(Instant::EPOCH).expect("join");
    server.poll(Instant::EPOCH);
    ris.poll(Instant::EPOCH).expect("ris poll");
    let ids: Vec<u32> = (0..5)
        .map(|k| ris.router_id(k).expect("registered").0)
        .collect();

    // The name carries a quote so escaping is part of the comparison.
    let name = "chain \"lint\"";
    let devices = ids
        .iter()
        .zip(CONFIGS)
        .map(|(&id, config)| Json::obj([("id", Json::num(id)), ("config", Json::str(config))]))
        .collect();
    let link = |a: u32, ap: u32, b: u32, bp: u32| {
        Json::Arr(vec![
            Json::num(a),
            Json::num(ap),
            Json::num(b),
            Json::num(bp),
        ])
    };
    let design = Json::obj([
        ("name", Json::str(name)),
        ("devices", Json::Arr(devices)),
        (
            "links",
            Json::Arr(vec![
                link(ids[0], 0, ids[1], 0),
                link(ids[1], 1, ids[2], 0),
                link(ids[0], 1, ids[3], 0),
                link(ids[2], 1, ids[4], 0),
            ]),
        ),
    ]);
    let ok = api(
        &mut server,
        &Json::obj([("op", Json::str("import_design")), ("design", design)]),
    );
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok:?}");
    let exported = api(
        &mut server,
        &Json::obj([
            ("op", Json::str("export_design")),
            ("name", Json::str(name)),
        ]),
    );
    let by_design = |op: &str| Json::obj([("op", Json::str(op)), ("design", Json::str(name))]);
    let analysis = api(&mut server, &by_design("analyze_design"));
    let verification = api(&mut server, &by_design("verify_design"));
    let analysis = analysis.get("analysis").expect("analysis payload");
    let verification = verification
        .get("verification")
        .expect("verification payload");
    // Both findings fire, so the comparison is not between two empties.
    assert!(
        analysis
            .get("diagnostics")
            .and_then(Json::as_arr)
            .is_some_and(|d| !d.is_empty()),
        "{}",
        analysis.encode()
    );
    assert!(
        verification
            .get("pairs")
            .and_then(Json::as_arr)
            .is_some_and(|p| !p.is_empty()),
        "{}",
        verification.encode()
    );

    let dir = std::env::temp_dir().join(format!("rnl-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("design.json");
    std::fs::write(&path, exported.encode()).expect("write export");
    let out = Command::new(env!("CARGO_BIN_EXE_rnl-lint"))
        .args(["--json", "--verify"])
        .arg(&path)
        .output()
        .expect("spawn rnl-lint");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for line in &lines {
        Json::parse(line).expect("every line parses");
    }
    assert_eq!(lines[0], analysis.encode());
    assert_eq!(lines[1], verification.encode());
    // The verifier's errors still set the exit status.
    assert_eq!(out.status.code(), Some(1));
}
