//! End-to-end runs: the four workloads against the real `routeserver`
//! (and, for `stack_ping`, `ris`) binaries over loopback TCP, driven by
//! one generator thread that *is* the two site PCs of the probe wire.
//!
//! Every workload walks the same three timed phases, so every
//! end-to-end metric exists on every workload and a workload is a
//! *configuration* (frame size, compression, journaling, who fronts the
//! hosts):
//!
//! 1. `light` — the probe wire at a low fixed rate (open loop), one API
//!    connection running a closed loop of a seeded op mix, and one ping
//!    session per host pair. A lab in ordinary use.
//! 2. `loaded` — the probe wire at a high fixed rate (open loop).
//! 3. `sat` — the probe wire closed-loop with 512 frames in flight.
//!
//! The API loop stops before `loaded`: the server's admission bucket
//! (50 k tokens, 50 k/s) is drained by relay frames above 50 kfps and
//! would shed every control op — correct behaviour, but a benchmark
//! must choose workloads on which no operation fails.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use rnl_device::host::Host;
use rnl_ris::Ris;
use rnl_server::json::Json;
use rnl_tunnel::transport::{TcpTransport, Transport};

use crate::probe::{Clock, SplitMix, Wire};
use crate::stack::{self, parse_reply, reply_ok, req, Api, HostSpec, Proc, Server, PATIENCE};
use crate::stats::{median, percentile, trimmed_mean, typical, Better};
use crate::trace::Tracer;

/// One benchmark workload: a configuration of the common run shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Probe frame length in bytes.
    pub frame_len: usize,
    /// RIS upstream template compression.
    pub compression: bool,
    /// `routeserver --state-dir` (journal, fsync on every append).
    pub journal: bool,
    /// Hosts fronted by two `ris` children (their own sleep loops on
    /// the ping path) instead of the generator's in-process RISes.
    pub ris_children: bool,
    /// Open-loop rates of the `light` and `loaded` phases, frames/s.
    pub light_fps: u64,
    pub loaded_fps: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "relay_small",
        why: "64 B frames, compression off: per-frame cost (codec, TcpTransport syscalls, matrix, poll-sleep loop) dominates; where a reactor or batching must show",
        frame_len: 64,
        compression: false,
        journal: false,
        ris_children: false,
        light_fps: 2_000,
        loaded_fps: 50_000,
    },
    Workload {
        name: "relay_bulk",
        why: "1500 B template-similar frames, RIS compression on: tunnel::compress and byte copies do the work; a compression or copy gain shows here, not in relay_small",
        frame_len: 1500,
        compression: true,
        journal: false,
        ris_children: false,
        light_fps: 1_000,
        loaded_fps: 10_000,
    },
    Workload {
        name: "control_mix",
        why: "relay_small with routeserver --state-dir: write ops journal and fsync inside the relay loop, so the control plane and the data plane contend",
        frame_len: 64,
        compression: false,
        journal: true,
        ris_children: false,
        light_fps: 2_000,
        loaded_fps: 50_000,
    },
    Workload {
        name: "stack_ping",
        why: "hosts fronted by two ris child processes: the only workload with the ris binary's own sleep loop on the ping path and in the idle burn",
        frame_len: 64,
        compression: false,
        journal: false,
        ris_children: true,
        light_fps: 2_000,
        loaded_fps: 50_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Host pairs that ping each other, both ways, in the `light` phase.
pub const HOST_PAIRS: usize = 8;
/// Frames in flight in the closed-loop phase.
pub const IN_FLIGHT: u64 = 512;
/// Length of the windows wire and CPU metrics are computed in, and of
/// the (longer) windows of the 23-ops-a-second API loop.
const WINDOW_S: f64 = 0.25;
const API_WINDOW_S: f64 = 1.0;
/// Light-phase emission lateness (p99) above which the run's open-loop
/// numbers are the generator's, not the system's.
pub const GEN_LATE_LIMIT_US: f64 = 100.0;
/// Rounds of `loaded` then `sat` sub-phases.
pub const ROUNDS: usize = 4;

/// Set-ups per run; `setup_s` is their median and the last one is kept.
pub const SETUPS: usize = 3;
/// Share of `--seconds` the `light`, `loaded` and `sat` phases get.
const PHASE_SHARE: [f64; 3] = [0.44, 0.28, 0.28];

/// Whole windows of `window_s` that fit `secs`, at least one.
fn windows_in(secs: f64, window_s: f64) -> usize {
    ((secs / window_s).round() as usize).max(1)
}

/// One metric as printed and as written to the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The bounded end-to-end metrics of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Printed, never bounded (validity and context).
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for any failed operation.
    pub failures: Vec<String>,
}

/// Where the binaries are and where logs, state and traces go.
#[derive(Debug, Clone)]
pub struct Dirs {
    pub bin: PathBuf,
    pub out: PathBuf,
}

/// Router ids the server assigned, looked up by inventory description.
pub(crate) struct Ids {
    pub main: (u32, u32),
    pub cycle: (u32, u32),
    /// The wired host pairs, side `a`'s host first.
    pub pairs: Vec<(u32, u32)>,
    /// `(host, address of the host at the other end of its wire)`:
    /// every host pings across its wire, both directions.
    pub pingers: Vec<(u32, String)>,
}

/// A stack that is up, registered, designed, reserved and deployed.
pub(crate) struct Lab {
    clock: Clock,
    pub server: Server,
    ris_children: Vec<Proc>,
    sites: Sites,
    api: Api,
    ids: Ids,
    api_ops: u64,
    api_failures: Vec<String>,
}

fn host_name(side: char, i: usize) -> String {
    format!("host-{side}-{i}")
}

/// Pair `p` joins side `a`'s host `p` (`10.77.p.1`) with side `b`'s
/// host `peer_of(p)` (`10.77.p.2`).
fn host_cidr(side: char, i: usize) -> String {
    match side {
        'a' => format!("10.77.{i}.1/24"),
        _ => format!("10.77.{}.2/24", (i + HOST_PAIRS - 1) % HOST_PAIRS),
    }
}

/// Side `a`'s host `i` pings side `b`'s host `(i+1) mod n`. The `ris`
/// binary numbers its devices 1, 11, 21… on every PC, so same-index
/// hosts of two PCs share a MAC; pairing across indices gives every
/// wire two distinct MACs without padding a PC with dummy devices.
/// (`base-device-num`, documented in `ris/src/config.rs`, is not parsed.)
fn peer_of(i: usize) -> usize {
    (i + 1) % HOST_PAIRS
}

/// The generator's two site PCs with the probe wires between them.
pub(crate) struct Sites {
    pub ris_a: Ris,
    pub ris_b: Ris,
    pub main: Arc<Wire>,
    pub cycle: Arc<Wire>,
}

impl Sites {
    /// Two RISes on transports from `connect`, fronting the two ends
    /// of the `main` and `cycle` probe wires and, with `hosts`, side
    /// `a`'s and side `b`'s hosts. Joined, not yet registered.
    pub(crate) fn build(
        w: &Workload,
        clock: Clock,
        seed: u64,
        tracer: Option<&Arc<Tracer>>,
        hosts: bool,
        mut connect: impl FnMut() -> Result<Box<dyn Transport>, String>,
    ) -> Result<Sites, String> {
        let mut ris_a = Ris::new("gen-a", connect()?);
        let mut ris_b = Ris::new("gen-b", connect()?);
        ris_a.set_compression(w.compression);
        ris_b.set_compression(w.compression);
        let main = Wire::new(clock, w.frame_len, seed, tracer);
        let cycle = Wire::new(clock, w.frame_len, seed ^ 0xc1c1e, None);
        for (wire, name) in [(&main, "main"), (&cycle, "cycle")] {
            let (src, sink) = wire.ends(name);
            ris_a.add_device(src, &format!("probe {name}-src"));
            ris_b.add_device(sink, &format!("probe {name}-sink"));
        }
        if hosts {
            for i in 0..HOST_PAIRS {
                for (side, ris, num) in [
                    ('a', &mut ris_a, 1 + i as u32),
                    ('b', &mut ris_b, 101 + i as u32),
                ] {
                    let name = host_name(side, i);
                    let mut host = Host::new(&name, num);
                    host.set_ip(host_cidr(side, i).parse().expect("generated CIDR"));
                    ris.add_device(Box::new(host), &name);
                }
            }
        }
        let now = clock.now();
        ris_a
            .join_labs(now)
            .map_err(|e| format!("join gen-a: {e}"))?;
        ris_b
            .join_labs(now)
            .map_err(|e| format!("join gen-b: {e}"))?;
        Ok(Sites {
            ris_a,
            ris_b,
            main,
            cycle,
        })
    }
}

/// The `import_design` form of a design whose links all join port 0 of
/// two devices.
pub(crate) fn design_json(name: &str, links: &[(u32, u32)]) -> Json {
    let devices = links
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .map(|id| Json::obj([("id", Json::num(id)), ("config", Json::Null)]))
        .collect();
    let links = links
        .iter()
        .map(|&(a, b)| {
            Json::Arr(vec![
                Json::num(a),
                Json::num(0u32),
                Json::num(b),
                Json::num(0u32),
            ])
        })
        .collect();
    Json::obj([
        ("name", Json::str(name)),
        ("devices", Json::Arr(devices)),
        ("links", Json::Arr(links)),
    ])
}

pub(crate) fn reserve_request(name: &str) -> Json {
    req(
        "reserve",
        [
            ("user", Json::str("bench")),
            ("design", Json::str(name)),
            ("start_us", Json::num(0u32)),
            ("end_us", Json::Num(4e15)),
        ],
    )
}

pub(crate) fn deploy_request(name: &str) -> Json {
    req(
        "deploy",
        [("user", Json::str("bench")), ("design", Json::str(name))],
    )
}

/// Inventory → designs → reservations → first deploys, each step one
/// API op through `call` (which fails on a reply that is not `ok`):
/// everything `setup_s` covers between registration and the first frame.
pub(crate) fn design_and_deploy(
    clock: Clock,
    mut call: impl FnMut(Json) -> Result<Json, String>,
) -> Result<Ids, String> {
    // The ris children register on their own schedule; wait until the
    // inventory lists every device.
    let expected = 4 + 2 * HOST_PAIRS;
    let mut inventory = Vec::new();
    let deadline = clock.ns() + PATIENCE.as_nanos() as u64;
    while inventory.len() < expected {
        if clock.ns() > deadline {
            return Err(format!(
                "inventory lists {} of {expected} devices",
                inventory.len()
            ));
        }
        let reply = call(req("list_inventory", []))?;
        inventory = reply
            .get("inventory")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
    }
    let id_of = |description: &str| -> Result<u32, String> {
        inventory
            .iter()
            .find(|r| r.get("description").and_then(Json::as_str) == Some(description))
            .and_then(|r| r.get("router")?.as_u64())
            .map(|id| id as u32)
            .ok_or_else(|| format!("inventory has no {description:?}"))
    };
    let address = |side: char, i: usize| {
        let cidr = host_cidr(side, i);
        cidr.split('/').next().unwrap_or_default().to_string()
    };
    let (mut pairs, mut pingers) = (Vec::new(), Vec::new());
    for i in 0..HOST_PAIRS {
        let (a, b) = (
            id_of(&host_name('a', i))?,
            id_of(&host_name('b', peer_of(i)))?,
        );
        pairs.push((a, b));
        pingers.push((a, address('b', peer_of(i))));
        pingers.push((b, address('a', i)));
    }
    let ids = Ids {
        main: (id_of("probe main-src")?, id_of("probe main-sink")?),
        cycle: (id_of("probe cycle-src")?, id_of("probe cycle-sink")?),
        pairs,
        pingers,
    };
    for (name, links) in [
        ("main", vec![ids.main]),
        ("cycle", vec![ids.cycle]),
        ("hosts", ids.pairs.clone()),
    ] {
        call(req(
            "import_design",
            [("design", design_json(name, &links))],
        ))?;
        call(reserve_request(name))?;
    }
    call(deploy_request("main"))?;
    call(deploy_request("hosts"))?;
    Ok(ids)
}

impl Lab {
    pub(crate) fn up(w: &Workload, dirs: &Dirs, clock: Clock, seed: u64) -> Result<Lab, String> {
        let state_dir = dirs.out.join("state");
        let server = Server::spawn(
            &dirs.bin,
            &dirs.out,
            w.journal.then_some(state_dir.as_path()),
        )?;
        let mut ris_children = Vec::new();
        if w.ris_children {
            for side in ['a', 'b'] {
                let hosts: Vec<HostSpec> = (0..HOST_PAIRS)
                    .map(|i| HostSpec {
                        name: host_name(side, i),
                        cidr: host_cidr(side, i),
                    })
                    .collect();
                ris_children.push(stack::spawn_ris(
                    &dirs.bin,
                    &dirs.out,
                    &format!("pc-{side}"),
                    server.ris_addr,
                    &hosts,
                )?);
            }
        }
        let sites = Sites::build(w, clock, seed, None, !w.ris_children, || {
            TcpTransport::connect(server.ris_addr)
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .map_err(|e| format!("tunnel connect: {e}"))
        })?;
        let api = Api::connect(server.api_addr)?;
        let mut lab = Lab {
            clock,
            server,
            ris_children,
            sites,
            api,
            ids: Ids {
                main: (0, 0),
                cycle: (0, 0),
                pairs: Vec::new(),
                pingers: Vec::new(),
            },
            api_ops: 0,
            api_failures: Vec::new(),
        };
        lab.wait("registration of the generator's RISes", |lab| {
            Ok(lab.sites.ris_a.registered() && lab.sites.ris_b.registered())
        })?;
        lab.ids = design_and_deploy(clock, |request| lab.call(request))?;
        lab.sites.main.send_now(1);
        lab.wait("the first frame across the main wire", |lab| {
            Ok(lab.sites.main.delivered() == 1)
        })?;
        Ok(lab)
    }

    /// One turn of the generator loop's data-plane half: both site PCs
    /// poll their tunnel and their devices.
    fn pump(&mut self) -> Result<(), String> {
        let now = self.clock.now();
        self.sites
            .ris_a
            .poll(now)
            .map_err(|e| format!("gen-a: {e}"))?;
        self.sites
            .ris_b
            .poll(now)
            .map_err(|e| format!("gen-b: {e}"))
    }

    fn check_children(&mut self) -> Result<(), String> {
        self.server.proc.check_alive()?;
        self.ris_children.iter_mut().try_for_each(Proc::check_alive)
    }

    /// Pump until `done`, yielding between polls; fail after
    /// [`PATIENCE`] or when a child has exited.
    fn wait(
        &mut self,
        what: &str,
        mut done: impl FnMut(&mut Lab) -> Result<bool, String>,
    ) -> Result<(), String> {
        let deadline = self.clock.ns() + PATIENCE.as_nanos() as u64;
        loop {
            self.pump()?;
            if done(self)? {
                return Ok(());
            }
            if self.clock.ns() > deadline {
                self.check_children()?;
                return Err(format!("timed out waiting for {what}"));
            }
            std::thread::yield_now();
        }
    }

    /// One API round trip with the data plane kept turning. A reply that
    /// is not `ok` is recorded as a failed op and returned as an error.
    fn call(&mut self, request: Json) -> Result<Json, String> {
        self.api.send(&request)?;
        self.api_ops += 1;
        let mut reply = None;
        self.wait("an API reply", |lab| {
            reply = lab.api.poll()?;
            Ok(reply.is_some())
        })?;
        let reply = reply.expect("wait returned because a reply arrived");
        if reply_ok(&reply) {
            parse_reply(&reply)
        } else {
            let failure = format!("{} -> {reply}", request.encode());
            self.api_failures.push(failure.clone());
            Err(failure)
        }
    }

    /// Run one console line on a device and return what it printed:
    /// `console`, then `console_replies` until the answer has made its
    /// way RIS → server.
    fn console(&mut self, router: u32, line: &str) -> Result<String, String> {
        self.call(req(
            "console",
            [("router", Json::num(router)), ("line", Json::str(line))],
        ))?;
        let deadline = self.clock.ns() + PATIENCE.as_nanos() as u64;
        loop {
            let reply = self.call(req("console_replies", [("router", Json::num(router))]))?;
            let text: String = reply
                .get("output")
                .and_then(Json::as_arr)
                .map(|lines| lines.iter().filter_map(Json::as_str).collect())
                .unwrap_or_default();
            if !text.is_empty() {
                return Ok(text);
            }
            if self.clock.ns() > deadline {
                return Err(format!("router {router} never answered {line:?}"));
            }
        }
    }

    fn children_cpu_ns(&self) -> Result<u64, String> {
        let mut total = self.server.proc.cpu_ns()?;
        for child in &self.ris_children {
            total += child.cpu_ns()?;
        }
        Ok(total)
    }

    /// After an open-loop phase: keep pumping until every frame sent has
    /// been verified (or patience runs out; the shortfall is counted as
    /// failed by the caller).
    fn drain(&mut self) -> Result<(), String> {
        let deadline = self.clock.ns() + 2_000_000_000;
        while self.sites.main.delivered() < self.sites.main.sent() && self.clock.ns() < deadline {
            self.pump()?;
            std::thread::yield_now();
        }
        self.check_children()
    }
}

/// What the API loop does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    ListInventory,
    ListDesigns,
    GetMetrics,
    /// `create_design`, `add_device` ×2, `connect_ports` on a scratch
    /// design (four ops).
    Scratch(u64),
    /// `console` to a probe, then `console_replies` until it answers.
    Console,
    /// `deploy` → first probe frame delivered on the new wire → `teardown`.
    DeployCycle,
}

/// The seeded op mix: reads 50 %, writes 30 %, deploy cycles 20 %.
fn op_mix(seed: u64, n: usize) -> VecDeque<Item> {
    let mut rng = SplitMix(seed);
    (0..n)
        .map(|_| match rng.below(10) {
            0 | 1 => Item::ListInventory,
            2 | 3 => Item::ListDesigns,
            4 => Item::GetMetrics,
            5 | 6 => Item::Scratch(rng.below(4)),
            7 => Item::Console,
            _ => Item::DeployCycle,
        })
        .collect()
}

/// The closed-loop API client of the `light` phase: at most one request
/// outstanding, advanced once per turn of the generator loop.
struct ApiLoop {
    items: VecDeque<Item>,
    /// Requests of the item in progress still to send.
    script: VecDeque<Json>,
    /// Send time of the outstanding request.
    outstanding: Option<u64>,
    state: ItemState,
    /// `(send time, round trip)` of every op, ns.
    ops: Vec<(u64, u64)>,
    /// `(start, duration)` of every deploy cycle, ns.
    cycles: Vec<(u64, u64)>,
}

/// Where the item in progress stands, beyond "requests left to send".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemState {
    /// Nothing but the script, if that.
    Plain,
    Deploying {
        started: u64,
    },
    /// Until the cycle wire's sink has verified `frames` frames.
    AwaitingFrame {
        started: u64,
        deployment: u64,
        frames: u64,
    },
    TearingDown {
        started: u64,
    },
    /// Console sent; polling `console_replies` until output arrives.
    AwaitingConsole,
}

impl ApiLoop {
    fn step(&mut self, lab: &mut Lab) -> Result<(), String> {
        let now = lab.clock.ns();
        if let Some(sent) = self.outstanding {
            let Some(reply) = lab.api.poll()? else {
                return Ok(());
            };
            self.outstanding = None;
            self.ops.push((sent, now - sent));
            if !reply_ok(&reply) {
                lab.api_failures.push(reply);
                self.script.clear();
                self.state = ItemState::Plain;
                return Ok(());
            }
            match self.state {
                ItemState::Deploying { started } => {
                    let deployment = parse_reply(&reply)?
                        .get("deployment")
                        .and_then(Json::as_u64)
                        .ok_or("deploy reply without an id")?;
                    lab.sites.cycle.send_now(1);
                    self.state = ItemState::AwaitingFrame {
                        started,
                        deployment,
                        frames: lab.sites.cycle.sent() + 1,
                    };
                }
                ItemState::TearingDown { started } => {
                    self.cycles.push((started, now - started));
                    self.state = ItemState::Plain;
                }
                ItemState::AwaitingConsole => {
                    let answered = parse_reply(&reply)?
                        .get("output")
                        .and_then(Json::as_arr)
                        .is_some_and(|lines| !lines.is_empty());
                    if answered {
                        self.state = ItemState::Plain;
                    } else {
                        self.script.push_back(req(
                            "console_replies",
                            [("router", Json::num(lab.ids.main.1))],
                        ));
                    }
                }
                ItemState::Plain | ItemState::AwaitingFrame { .. } => {}
            }
        }
        if let ItemState::AwaitingFrame {
            started,
            deployment,
            frames,
        } = self.state
        {
            if lab.sites.cycle.delivered() < frames {
                return Ok(());
            }
            self.script.push_back(req(
                "teardown",
                [("deployment", Json::Num(deployment as f64))],
            ));
            self.state = ItemState::TearingDown { started };
        }
        if self.script.is_empty() {
            let Some(item) = self.items.pop_front() else {
                return Ok(());
            };
            self.begin(item, lab, now);
        }
        if let Some(request) = self.script.pop_front() {
            lab.api.send(&request)?;
            lab.api_ops += 1;
            self.outstanding = Some(lab.clock.ns());
        }
        Ok(())
    }

    fn begin(&mut self, item: Item, lab: &Lab, now: u64) {
        let (src, sink) = lab.ids.main;
        match item {
            Item::ListInventory => self.script.push_back(req("list_inventory", [])),
            Item::ListDesigns => self.script.push_back(req("list_designs", [])),
            Item::GetMetrics => self.script.push_back(req("get_metrics", [])),
            Item::Scratch(k) => {
                let name = format!("scratch-{k}");
                self.script
                    .push_back(req("create_design", [("name", Json::str(name.clone()))]));
                for router in [src, sink] {
                    self.script.push_back(req(
                        "add_device",
                        [
                            ("design", Json::str(name.clone())),
                            ("router", Json::num(router)),
                        ],
                    ));
                }
                self.script.push_back(req(
                    "connect_ports",
                    [
                        ("design", Json::str(name)),
                        ("a_router", Json::num(src)),
                        ("a_port", Json::num(0u32)),
                        ("b_router", Json::num(sink)),
                        ("b_port", Json::num(0u32)),
                    ],
                ));
            }
            Item::Console => {
                self.script.push_back(req(
                    "console",
                    [
                        ("router", Json::num(sink)),
                        ("line", Json::str("show probe")),
                    ],
                ));
                self.script
                    .push_back(req("console_replies", [("router", Json::num(sink))]));
                self.state = ItemState::AwaitingConsole;
            }
            Item::DeployCycle => {
                self.script.push_back(deploy_request("cycle"));
                self.state = ItemState::Deploying { started: now };
            }
        }
    }

    /// True when nothing is outstanding and no item is half done: the
    /// point at which the loop may be stopped without orphaning a
    /// deployment or a reply.
    fn quiescent(&self) -> bool {
        self.outstanding.is_none() && self.script.is_empty() && self.state == ItemState::Plain
    }
}

/// Sample `(time, value)` at every window boundary of a phase.
struct Boundaries {
    start_ns: u64,
    window_ns: u64,
    windows: usize,
    samples: Vec<(u64, Vec<u64>)>,
}

impl Boundaries {
    fn new(start_ns: u64, end_ns: u64, windows: usize) -> Boundaries {
        Boundaries {
            start_ns,
            window_ns: (end_ns - start_ns) / windows as u64,
            windows,
            samples: Vec::with_capacity(windows + 1),
        }
    }

    /// Whether boundary number `samples.len()` has been reached.
    fn due(&self, now: u64) -> bool {
        self.samples.len() <= self.windows
            && now >= self.start_ns + self.samples.len() as u64 * self.window_ns
    }

    /// Per-window `Δvalue[num]` per ns of wall time.
    fn per_ns(&self, num: usize) -> Vec<f64> {
        self.samples
            .windows(2)
            .map(|w| (w[1].1[num] - w[0].1[num]) as f64 / (w[1].0 - w[0].0) as f64)
            .collect()
    }

    /// Per-window `Δvalue[num] / Δvalue[den]`, skipping windows in which
    /// `den` did not move.
    fn ratio(&self, num: usize, den: usize) -> Vec<f64> {
        self.samples
            .windows(2)
            .filter(|w| w[1].1[den] > w[0].1[den])
            .map(|w| (w[1].1[num] - w[0].1[num]) as f64 / (w[1].1[den] - w[0].1[den]) as f64)
            .collect()
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The `p`-th percentile of every window that has samples, in µs.
fn window_percentiles_us(windows: &mut [Vec<u32>], p: f64) -> Vec<f64> {
    windows
        .iter_mut()
        .filter_map(|w| percentile(w, p).map(|ns| us(f64::from(ns))))
        .collect()
}

/// The `p`-th percentile, per window of the phase, of the samples
/// `(time, value)` falling in it; values divided by `scale`.
fn windowed(samples: &[(u64, u64)], start: u64, end: u64, p: f64, scale: f64) -> Vec<f64> {
    let n = windows_in((end - start) as f64 / 1e9, API_WINDOW_S);
    let window_ns = ((end - start) / n as u64).max(1);
    let mut windows = vec![Vec::new(); n];
    for &(at, value) in samples {
        if let Some(w) = windows.get_mut((at.saturating_sub(start) / window_ns) as usize) {
            w.push(value);
        }
    }
    windows
        .iter_mut()
        .filter_map(|w| percentile(w, p).map(|v| v as f64 / scale))
        .collect()
}

/// CPU the children burn with no traffic and no API op in flight.
pub(crate) struct Idle {
    pub server_cpu_pct: f64,
    /// Mean over the `ris` children; zero when the workload has none.
    pub ris_cpu_pct: f64,
    /// Voluntary context switches of the server's core loop per second:
    /// how often the sleep loop wakes.
    pub server_wakeups_per_s: f64,
}

impl Lab {
    /// Let the stack idle for `secs` (the generator's RISes keep
    /// polling, nothing is sent) and read what the children burned.
    pub(crate) fn idle(&mut self, secs: f64) -> Result<Idle, String> {
        let read = |lab: &Lab| -> Result<(u64, u64, u64, u64), String> {
            let mut ris = 0;
            for child in &lab.ris_children {
                ris += child.cpu_ns()?;
            }
            Ok((
                lab.clock.ns(),
                lab.server.proc.cpu_ns()?,
                ris,
                lab.server.proc.status_field("voluntary_ctxt_switches")?,
            ))
        };
        let before = read(self)?;
        let end = before.0 + (secs * 1e9) as u64;
        while self.clock.ns() < end {
            self.pump()?;
            std::thread::yield_now();
        }
        let after = read(self)?;
        let wall = (after.0 - before.0) as f64;
        Ok(Idle {
            server_cpu_pct: (after.1 - before.1) as f64 / wall * 100.0,
            ris_cpu_pct: (after.2 - before.2) as f64 / wall * 100.0
                / self.ris_children.len().max(1) as f64,
            server_wakeups_per_s: (after.3 - before.3) as f64 / (wall / 1e9),
        })
    }

    /// Close the books: every frame sent against every frame verified,
    /// every API op against every reply that was not `ok`, every ping
    /// against every answer — counted into `out`, each shortfall
    /// described. Returns `(frames sent, API ops)`.
    pub(crate) fn account(&self, light: &Light, out: &mut Outcome) -> (u64, u64) {
        let wires = [&self.sites.main, &self.sites.cycle];
        let sent: u64 = wires.iter().map(|w| w.sent()).sum();
        let verified: u64 = wires.iter().map(|w| w.delivered()).sum();
        let unanswered = light.pings_sent.saturating_sub(light.pings_received);
        out.attempted += sent + self.api_ops + light.pings_sent;
        out.failed += (sent - verified) + self.api_failures.len() as u64 + unanswered;
        for wire in wires {
            if let (n @ 1.., Some(first)) = wire.mismatched() {
                out.failures
                    .push(format!("{n} frames rejected by the sink, first: {first}"));
            }
        }
        if verified < sent {
            out.failures.push(format!(
                "{} of {sent} frames never verified",
                sent - verified
            ));
        }
        out.failures.extend(
            self.api_failures
                .iter()
                .map(|f| format!("API op failed: {f}")),
        );
        if unanswered > 0 {
            out.failures.push(format!(
                "{unanswered} of {} pings unanswered",
                light.pings_sent
            ));
        }
        (sent, self.api_ops)
    }
}

/// What the `light` phase measured; one value per window where a
/// `Vec`.
pub(crate) struct Light {
    pub oneway_p50_us: Vec<f64>,
    pub oneway_p99_us: Vec<f64>,
    pub api_p50_ms: Vec<f64>,
    pub api_p90_ms: Vec<f64>,
    pub cycle_p50_ms: Vec<f64>,
    pub stack_cpu_pct: Vec<f64>,
    /// Each pinging host's average RTT as `show ping` prints it (0.1 ms
    /// resolution).
    pub ping_rtt_ms: Vec<f64>,
    pub cycles: usize,
    pub pings_sent: u64,
    pub pings_received: u64,
    pub late_p99_us: f64,
    pub polls_per_s: f64,
}

impl Lab {
    /// The `light` phase: the main wire open-loop at `w.light_fps`, the
    /// seeded API mix in a closed loop on the one API connection, and
    /// one ping session per host (both ways across each wired pair), all
    /// for `secs` seconds.
    pub(crate) fn light(&mut self, w: &Workload, seed: u64, secs: f64) -> Result<Light, String> {
        let clock = self.clock;
        let ping_count = (secs - 1.5).floor().max(1.0) as u64;
        for (host, peer) in self.ids.pingers.clone() {
            self.console(host, &format!("ping {peer} count {ping_count}"))?;
        }
        let mut api_loop = ApiLoop {
            items: op_mix(seed, (secs * 1_000.0) as usize),
            script: VecDeque::new(),
            outstanding: None,
            state: ItemState::Plain,
            ops: Vec::new(),
            cycles: Vec::new(),
        };
        let start = clock.ns();
        let n = windows_in(secs, WINDOW_S);
        let end = self.sites.main.start_open(w.light_fps, secs, n);
        let mut cpu = Boundaries::new(start, end, n);
        let mut polls = 0u64;
        loop {
            let now = clock.ns();
            if cpu.due(now) {
                cpu.samples.push((now, vec![self.children_cpu_ns()?]));
            }
            if now >= end {
                // Finish the item in progress, then stop issuing.
                api_loop.items.clear();
                if api_loop.quiescent() {
                    break;
                }
                if now > end + PATIENCE.as_nanos() as u64 {
                    return Err("the API loop did not come to rest".to_string());
                }
            }
            self.pump()?;
            api_loop.step(self)?;
            polls += 1;
            std::thread::yield_now();
        }
        self.drain()?;
        let polls_per_s = polls as f64 / ((clock.ns() - start) as f64 / 1e9);
        let (mut log, mut late) = self.sites.main.take_phase();

        // Ping results, one `show ping` per pinging host.
        let (mut pings_sent, mut pings_received, mut rtts) = (0u64, 0u64, Vec::new());
        for (host, _) in self.ids.pingers.clone() {
            let text = self.console(host, "show ping")?;
            let (sent, received, avg_ms) = parse_show_ping(&text)
                .ok_or_else(|| format!("unparseable `show ping`: {text:?}"))?;
            pings_sent += sent;
            pings_received += received;
            rtts.extend(avg_ms);
        }
        Ok(Light {
            oneway_p50_us: window_percentiles_us(&mut log.windows, 50.0),
            oneway_p99_us: window_percentiles_us(&mut log.windows, 99.0),
            api_p50_ms: windowed(&api_loop.ops, start, end, 50.0, 1e6),
            api_p90_ms: windowed(&api_loop.ops, start, end, 90.0, 1e6),
            cycle_p50_ms: windowed(&api_loop.cycles, start, end, 50.0, 1e6),
            ping_rtt_ms: rtts,
            stack_cpu_pct: cpu.per_ns(0).iter().map(|share| share * 100.0).collect(),
            cycles: api_loop.cycles.len(),
            pings_sent,
            pings_received,
            late_p99_us: percentile(&mut late, 99.0).map_or(0.0, |ns| us(f64::from(ns))),
            polls_per_s,
        })
    }
}

/// What the `loaded` sub-phases measured, one value per window.
#[derive(Default)]
struct Loaded {
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    late_ns: Vec<u32>,
}

impl Lab {
    /// One `loaded` sub-phase: the main wire open-loop at
    /// `w.loaded_fps`, nothing else. Appends the per-window p50 and p99
    /// (µs) and the source's lateness samples (ns) to `into`.
    fn loaded(&mut self, w: &Workload, secs: f64, into: &mut Loaded) -> Result<(), String> {
        self.sites
            .main
            .start_open(w.loaded_fps, secs, windows_in(secs, WINDOW_S));
        while !self.sites.main.idle() {
            self.pump()?;
            std::thread::yield_now();
        }
        self.drain()?;
        let (mut log, late) = self.sites.main.take_phase();
        into.p50_us
            .extend(window_percentiles_us(&mut log.windows, 50.0));
        into.p99_us
            .extend(window_percentiles_us(&mut log.windows, 99.0));
        into.late_ns.extend(late);
        Ok(())
    }

    /// One `sat` sub-phase: closed loop with [`IN_FLIGHT`] frames
    /// outstanding. Per-window frames/s and server CPU µs per frame.
    fn sat(&mut self, secs: f64) -> Result<(Vec<f64>, Vec<f64>), String> {
        let start = self.clock.ns();
        let n = windows_in(secs, WINDOW_S);
        let end = self.sites.main.start_closed(IN_FLIGHT, secs, n);
        let mut marks = Boundaries::new(start, end, n);
        loop {
            let now = self.clock.ns();
            if marks.due(now) {
                marks.samples.push((
                    now,
                    vec![self.sites.main.delivered(), self.server.proc.cpu_ns()?],
                ));
            }
            if now >= end {
                break;
            }
            self.pump()?;
            std::thread::yield_now();
        }
        self.sites.main.stop();
        self.drain()?;
        self.sites.main.take_phase();
        Ok((
            marks.per_ns(0).iter().map(|per_ns| per_ns * 1e9).collect(),
            marks.ratio(1, 0).iter().map(|&ns| us(ns)).collect(),
        ))
    }
}

/// Run one workload end to end and report the bounded metrics.
pub fn run(w: &Workload, dirs: &Dirs, seed: u64, seconds: f64) -> Result<Outcome, String> {
    std::fs::create_dir_all(&dirs.out).map_err(|e| format!("{}: {e}", dirs.out.display()))?;
    let clock = Clock::start();
    let mut out = Outcome::default();

    // Set-up, several times: spawn → registered → designed, reserved
    // and deployed → first frame delivered. The last lab is the one
    // measured; the earlier ones are torn down (children killed and
    // reaped) before the next starts.
    let mut setups = Vec::new();
    let mut lab = None;
    for _ in 0..SETUPS {
        drop(lab.take());
        let t0 = clock.ns();
        lab = Some(Lab::up(w, dirs, clock, seed)?);
        setups.push((clock.ns() - t0) as f64 / 1e9);
    }
    let mut lab = lab.expect("SETUPS >= 1");
    let setup_s = median(&setups).expect("SETUPS >= 1");

    let [light_s, loaded_s, sat_s] = PHASE_SHARE.map(|share| share * seconds);

    let light = lab.light(w, seed, light_s)?;

    // Loaded and saturated sub-phases alternate, so each metric samples
    // the whole run rather than one stretch of it: this host's CPU speed
    // drifts by ±15 % over seconds.
    let mut loaded = Loaded::default();
    let (mut sat_fps, mut cpu_per_frame) = (vec![], vec![]);
    for _ in 0..ROUNDS {
        lab.loaded(w, loaded_s / ROUNDS as f64, &mut loaded)?;
        let (fps, cpu) = lab.sat(sat_s / ROUNDS as f64)?;
        sat_fps.extend(fps);
        cpu_per_frame.extend(cpu);
    }
    let loaded_late_p99 = percentile(&mut loaded.late_ns, 99.0).map(|ns| us(f64::from(ns)));

    let (frames_sent, api_ops) = lab.account(&light, &mut out);
    lab.check_children()?;

    // The issue's admission rule demotes a metric whose run-to-run spread
    // exceeds a tenth to the informational list instead of widening its
    // bound. On this shared host that takes out the two tails (quartile
    // spreads up to 19 % over ten seeds) and everything CPU-bound: the
    // same binaries gave 315 k, 266 k and 190 k frames/s in three sessions
    // an hour apart, and a scheduler run time (which counts time the vCPU
    // itself was off the physical CPU) that moved by 40–100 %. Within a
    // session they repeat to 5–10 %, so paired A/B runs can still use them.
    type Windowed<'a> = (&'static str, &'static str, Better, &'a Vec<f64>);
    let bounded: [Windowed; 5] = [
        ("oneway_p50_us", "us", Better::Lower, &light.oneway_p50_us),
        ("loaded_p50_us", "us", Better::Lower, &loaded.p50_us),
        ("api_op_p50_ms", "ms", Better::Lower, &light.api_p50_ms),
        ("api_op_p90_ms", "ms", Better::Lower, &light.api_p90_ms),
        (
            "deploy_cycle_p50_ms",
            "ms",
            Better::Lower,
            &light.cycle_p50_ms,
        ),
    ];
    let informational: [Windowed; 5] = [
        ("oneway_p99_us", "us", Better::Lower, &light.oneway_p99_us),
        ("loaded_p99_us", "us", Better::Lower, &loaded.p99_us),
        ("sat_frames_per_s", "1/s", Better::Higher, &sat_fps),
        (
            "server_cpu_us_per_frame",
            "us",
            Better::Lower,
            &cpu_per_frame,
        ),
        ("stack_cpu_pct", "%", Better::Lower, &light.stack_cpu_pct),
    ];
    let estimate = |(name, unit, better, values): Windowed| {
        typical(values, better)
            .map(|value| metric(name, value, unit))
            .ok_or_else(|| format!("{name}: no samples"))
    };
    out.metrics = vec![metric("setup_s", setup_s, "s")];
    for windowed in bounded {
        out.metrics.push(estimate(windowed)?);
    }
    // One 20 ms stall under one of ~140 pings moves a plain mean by a
    // tenth; it lands in one or two hosts' averages, which the trimmed
    // mean over hosts leaves out. (`typical` would return one host's
    // figure, and those are printed to 0.1 ms.)
    out.metrics.push(metric(
        "ping_rtt_avg_ms",
        trimmed_mean(&light.ping_rtt_ms).ok_or("ping_rtt_avg_ms: no ping was answered")?,
        "ms",
    ));
    for windowed in informational {
        out.info.push(estimate(windowed)?);
    }
    let dump: Vec<(&str, &Vec<f64>)> = bounded
        .iter()
        .chain(&informational)
        .map(|w| (w.0, w.3))
        .chain([("ping_rtt_avg_ms", &light.ping_rtt_ms)])
        .collect();
    write_windows(&dirs.out.join(format!("windows_{}.json", w.name)), &dump)?;
    out.info.extend([
        metric("ops_attempted", out.attempted as f64, "count"),
        metric("ops_failed", out.failed as f64, "count"),
        metric("frames_sent", frames_sent as f64, "count"),
        metric("api_ops", api_ops as f64, "count"),
        metric("deploy_cycles", light.cycles as f64, "count"),
        metric("pings_sent", light.pings_sent as f64, "count"),
        metric("gen.late_p99_us", light.late_p99_us, "us"),
        metric(
            "gen.loaded_late_p99_us",
            loaded_late_p99.unwrap_or(0.0),
            "us",
        ),
        metric("gen.polls_per_s", light.polls_per_s, "1/s"),
        // An open-loop generator that runs late measures itself.
        metric(
            "gen.valid",
            f64::from(light.late_p99_us <= GEN_LATE_LIMIT_US),
            "bool",
        ),
    ]);
    Ok(out)
}

/// The per-window values behind every windowed metric, for anyone who
/// wants to look at the noise instead of through it.
fn write_windows(path: &std::path::Path, windows: &[(&str, &Vec<f64>)]) -> Result<(), String> {
    let json = Json::Obj(
        windows
            .iter()
            .map(|(name, values)| {
                (
                    name.to_string(),
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                )
            })
            .collect(),
    );
    std::fs::write(path, json.encode() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// `"N sent, M received, E errors\nrtt min/avg/max = a/b/c ms\n"` →
/// `(sent, received, avg ms if any were received)`.
fn parse_show_ping(text: &str) -> Option<(u64, u64, Option<f64>)> {
    let mut words = text.split_whitespace();
    let sent = words.next()?.parse().ok()?;
    let received = words.nth(1)?.parse().ok()?;
    let avg = text
        .split("min/avg/max = ")
        .nth(1)
        .and_then(|rest| rest.split('/').nth(1)?.parse().ok());
    Some((sent, received, avg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn show_ping_parses() {
        let text = "7 sent, 7 received, 0 errors\nrtt min/avg/max = 0.9/1.4/2.5 ms\n";
        assert_eq!(parse_show_ping(text), Some((7, 7, Some(1.4))));
        assert_eq!(
            parse_show_ping("3 sent, 0 received, 0 errors\n"),
            Some((3, 0, None))
        );
        assert_eq!(parse_show_ping("no ping session\n"), None);
    }

    #[test]
    fn op_mix_repeats_for_a_seed_and_covers_every_kind() {
        assert_eq!(op_mix(7, 200), op_mix(7, 200));
        assert_ne!(op_mix(7, 200), op_mix(8, 200));
        let mix = op_mix(7, 200);
        for kind in [Item::ListInventory, Item::Console, Item::DeployCycle] {
            assert!(mix.contains(&kind));
        }
        assert!(mix.iter().any(|i| matches!(i, Item::Scratch(_))));
    }

    #[test]
    fn every_pair_has_two_distinct_device_numbers() {
        for i in 0..HOST_PAIRS {
            assert_ne!(i, peer_of(i));
        }
    }

    #[test]
    fn boundary_rates() {
        let mut b = Boundaries::new(0, 800, 8);
        const WINDOWS: usize = 8;
        for i in 0..=WINDOWS as u64 {
            assert!(b.due(i * 100));
            b.samples.push((i * 100, vec![i * 50, i * 10]));
        }
        assert!(!b.due(10_000));
        assert_eq!(b.per_ns(0), vec![0.5; WINDOWS]);
        assert_eq!(b.ratio(0, 1), vec![5.0; WINDOWS]);
    }
}
