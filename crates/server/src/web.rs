//! The web-services API (§2, "Programmable interface").
//!
//! "Although we currently only support a web user interface, we are
//! developing a web services interface which will allow a test to be
//! fully automated. The web services interface will support everything
//! that is doable in the web interface through a mouse, including router
//! reservation and connecting router ports. In addition, it will also
//! support packet generation and packet capture in and out of any router
//! port."
//!
//! [`Request`] is the typed surface; [`handle`] dispatches one request
//! against a [`RouteServer`]. [`handle_json`] is the wire form: a JSON
//! object with an `"op"` field in, a JSON object with `"ok"` out — what
//! an HTTP front end would expose one URL per op. The nightly-test
//! harness in `rnl-core` drives everything through this module, which is
//! the point: topology setup, configuration, testing and teardown with
//! no mouse anywhere.

use rnl_net::time::{Duration, Instant};
use rnl_tunnel::msg::{PortId, RouterId};

use crate::design::Design;
use crate::generate::{StreamConfig, StreamId};
use crate::json::Json;
use crate::matrix::DeploymentId;
use crate::overload::{OpClass, Tier};
use crate::{RouteServer, ServerError};
use rnl_net::addr::MacAddr;

/// A typed API request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The Fig. 2 inventory column.
    ListInventory,
    /// Names of saved designs.
    ListDesigns,
    /// Create and save an empty design.
    CreateDesign { name: String },
    /// Drag a router into a saved design.
    AddDevice { design: String, router: RouterId },
    /// Draw a connection between two ports of a saved design.
    ConnectPorts {
        design: String,
        a: (RouterId, PortId),
        b: (RouterId, PortId),
    },
    /// Export a design as JSON.
    ExportDesign { name: String },
    /// Import a design from JSON (the user's local copy).
    ImportDesign { json: Json },
    /// Reserve all routers of a design.
    Reserve {
        user: String,
        design: String,
        start: Instant,
        end: Instant,
    },
    /// The calendar's next window where every router of the design is
    /// free for `duration`.
    NextFreeSlot {
        design: String,
        duration: Duration,
        after: Instant,
    },
    /// Deploy a saved design. `force` overrides the pre-deploy
    /// analysis gate (Error findings otherwise reject the deploy).
    Deploy {
        user: String,
        design: String,
        force: bool,
    },
    /// Run pre-deploy static analysis over a saved design.
    AnalyzeDesign { design: String },
    /// Run the symbolic data-plane verifier over a saved design:
    /// RNL05xx findings, host-pair outcomes, and config coverage.
    VerifyDesign { design: String },
    /// Tear a deployment down.
    Teardown { deployment: DeploymentId },
    /// One console line to a router.
    Console { router: RouterId, line: String },
    /// Drain console output.
    ConsoleReplies { router: RouterId },
    /// Power control.
    SetPower { router: RouterId, on: bool },
    /// Flash firmware.
    Flash { router: RouterId, version: String },
    /// Drain flash results.
    FlashResults { router: RouterId },
    /// Inject a frame into one port (one-directional generation).
    Inject {
        router: RouterId,
        port: PortId,
        frame: Vec<u8>,
    },
    /// Start a generated traffic stream into a port (§2.3's generation
    /// module as a service).
    StartStream { config: StreamConfig },
    /// Stop a stream.
    StopStream { stream: StreamId },
    /// Packets sent so far on a stream (None once finished).
    StreamStatus { stream: StreamId },
    /// Start monitoring a port.
    CaptureStart { router: RouterId, port: PortId },
    /// Stop monitoring a port.
    CaptureStop { router: RouterId, port: PortId },
    /// Fetch (and keep) captured frames of a port.
    Captured { router: RouterId, port: PortId },
    /// Snapshot server metrics (counters, gauges, histograms,
    /// quantiles). `prefix`, when set, keeps only series whose name
    /// starts with it, so pollers stop serializing the whole registry.
    GetMetrics { prefix: Option<String> },
    /// The slow-op flight recorder: ops and frames whose virtual
    /// duration crossed their class threshold, each with its trace id
    /// and phase breakdown.
    SlowOps,
    /// Turn the direct site-to-site data plane on or off. Enabling
    /// offers a peer path for every cross-session wire of every live
    /// deployment; disabling revokes them all.
    SetMesh { on: bool },
    /// The mesh control plane's view: enabled flag, offered wire
    /// count, and the relay-fallback frame counter.
    MeshStatus,
}

/// A typed API response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Ok,
    /// A structured failure: `code` is a stable machine-readable
    /// identifier (see [`ServerError::code`]; parse failures use
    /// `"bad-request"`), `message` is human-readable, and
    /// `retry_after_us` is set only for the retryable `overloaded` and
    /// `shard-down` errors.
    Error {
        code: String,
        message: String,
        retry_after_us: Option<u64>,
    },
    Inventory(Vec<InventoryEntry>),
    Designs(Vec<String>),
    DesignJson(Json),
    Reservation(u64),
    Slot(Instant),
    Deployment(u64),
    ConsoleOutput(Vec<String>),
    FlashOutcomes(Vec<(bool, String)>),
    Frames(Vec<(Instant, Vec<u8>)>),
    Stream(u64),
    StreamSent(Option<u64>),
    /// A metrics snapshot, already in wire form (see
    /// [`metrics_to_json`]).
    Metrics(Json),
    /// Captured slow ops, already in wire form (see
    /// [`slow_ops_to_json`]).
    SlowOps(Json),
    /// A static-analysis report, already in wire form (see
    /// [`report_to_json`]).
    Analysis(Json),
    /// A data-plane verification outcome, already in wire form (see
    /// [`verify_to_json`]).
    Verification(Json),
    /// Mesh control-plane status, already in wire form (see
    /// [`mesh_status_json`]).
    MeshStatus(Json),
}

/// Encode one server's mesh status for the wire.
pub fn mesh_status_json(server: &RouteServer) -> Json {
    Json::obj([
        ("enabled", Json::Bool(server.mesh_enabled())),
        ("wires", Json::num(server.mesh_wire_count() as u32)),
        (
            "relay_fallback_frames",
            Json::Num(server.mesh_relay_fallback_frames() as f64),
        ),
    ])
}

/// Encode an analysis report for the wire.
pub fn report_to_json(report: &rnl_analysis::Report) -> Json {
    Json::obj([
        ("design", Json::str(report.design.clone())),
        (
            "errors",
            Json::num(report.count(rnl_analysis::Severity::Error) as u32),
        ),
        (
            "warnings",
            Json::num(report.count(rnl_analysis::Severity::Warning) as u32),
        ),
        (
            "infos",
            Json::num(report.count(rnl_analysis::Severity::Info) as u32),
        ),
        (
            "diagnostics",
            Json::Arr(
                report
                    .diagnostics
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("code", Json::str(d.code.to_string())),
                            ("severity", Json::str(d.severity.label().to_string())),
                            ("span", Json::str(d.span())),
                            ("message", Json::str(d.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encode a verification outcome for the wire: the RNL05xx report, the
/// per-pair reachability verdicts, and the config-coverage summary.
pub fn verify_to_json(outcome: &rnl_analysis::VerifyOutcome) -> Json {
    Json::obj([
        ("report", report_to_json(&outcome.report)),
        (
            "pairs",
            Json::Arr(
                outcome
                    .pairs
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("src", Json::str(p.src.to_string())),
                            ("src_subnet", Json::str(p.src_subnet.to_string())),
                            ("dst", Json::str(p.dst.to_string())),
                            ("dst_subnet", Json::str(p.dst_subnet.to_string())),
                            ("delivered", Json::Bool(p.delivered)),
                            ("detail", Json::str(p.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "coverage",
            Json::obj([
                ("percent", Json::num(outcome.coverage.percent())),
                ("summary", Json::str(outcome.coverage.summary())),
                (
                    "unused",
                    Json::Arr(
                        outcome
                            .coverage
                            .unused()
                            .map(|item| {
                                Json::obj([
                                    ("device", Json::str(item.key.device.to_string())),
                                    ("kind", Json::str(item.key.kind.label().to_string())),
                                    ("stanza", Json::str(item.label.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// One inventory row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryEntry {
    pub router: RouterId,
    pub description: String,
    pub model: String,
    pub num_ports: usize,
    pub pc_name: String,
    pub online: bool,
}

impl Response {
    /// A structured error with no retry hint.
    pub fn error(code: &str, message: impl Into<String>) -> Response {
        Response::Error {
            code: code.to_string(),
            message: message.into(),
            retry_after_us: None,
        }
    }
}

fn error_response(e: &ServerError) -> Response {
    // `shard-down` is retryable exactly like `overloaded`: the hint
    // tells the caller when to come back.
    let retry_after_us = match e {
        ServerError::Overloaded { retry_after } | ServerError::ShardDown { retry_after, .. } => {
            Some(retry_after.as_micros())
        }
        _ => None,
    };
    Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
        retry_after_us,
    }
}

/// Is this router part of an active deployment?
fn deployed(server: &RouteServer, router: RouterId) -> bool {
    server.matrix().owner_of(router).is_some()
}

/// Shedding tier for a request (§DESIGN.md §11). Reservation-cycle ops
/// and ops against deployed routers ride tier 1; everything else —
/// design edits, analysis, capture polls, metrics — is best-effort and
/// sheds first. (Tier 0, relay + heartbeats, never enters this path: it
/// is admitted in [`RouteServer::poll`].)
fn tier_of(server: &RouteServer, request: &Request) -> Tier {
    match request {
        Request::Reserve { .. } | Request::Deploy { .. } | Request::Teardown { .. } => {
            Tier::Deployed
        }
        Request::Console { router, .. }
        | Request::ConsoleReplies { router }
        | Request::SetPower { router, .. }
        | Request::Flash { router, .. }
        | Request::FlashResults { router }
        | Request::Inject { router, .. } => {
            if deployed(server, *router) {
                Tier::Deployed
            } else {
                Tier::BestEffort
            }
        }
        Request::StartStream { config } => {
            if deployed(server, config.router) {
                Tier::Deployed
            } else {
                Tier::BestEffort
            }
        }
        _ => Tier::BestEffort,
    }
}

/// Who to charge the per-session token bucket: the named user where the
/// request carries one, the owning lab PC for router-targeted ops, and
/// a shared "web" principal for anonymous design-surface traffic.
fn principal_of(server: &RouteServer, request: &Request) -> String {
    let router_owner = |router: RouterId| {
        server
            .inventory()
            .get(router)
            .map(|r| r.pc_name.clone())
            .unwrap_or_else(|| "web".to_string())
    };
    match request {
        Request::Reserve { user, .. } | Request::Deploy { user, .. } => user.clone(),
        Request::Console { router, .. }
        | Request::ConsoleReplies { router }
        | Request::SetPower { router, .. }
        | Request::Flash { router, .. }
        | Request::FlashResults { router }
        | Request::Inject { router, .. } => router_owner(*router),
        Request::StartStream { config } => router_owner(config.router),
        _ => "web".to_string(),
    }
}

/// Deadline class: flash round-trips get the ×4 budget, console
/// round-trips their own bucket, everything else the control default.
fn op_class(request: &Request) -> OpClass {
    match request {
        Request::Flash { .. } | Request::FlashResults { .. } => OpClass::Flash,
        Request::Console { .. } | Request::ConsoleReplies { .. } => OpClass::Console,
        _ => OpClass::Control,
    }
}

/// Dispatch one typed request: admission control first (a shed op never
/// touches server state), then execution under a per-class deadline
/// budget. The whole admit → dispatch path is timed under the class's
/// `rnl_perf_web_op_<class>_ns` profiling point.
pub fn handle(server: &mut RouteServer, request: Request, now: Instant) -> Response {
    let class = op_class(&request);
    let mut perf = server.web_perf(class).scope();
    let tier = tier_of(server, &request);
    let principal = principal_of(server, &request);
    if let Err(e) = server.admit(tier, &principal, now) {
        perf.mark("admit");
        return error_response(&e);
    }
    perf.mark("admit");
    let deadline = server.overload_config().deadline_for(class, now);
    let response = match handle_inner(server, request, now, deadline) {
        Ok(response) => response,
        Err(e) => error_response(&e),
    };
    perf.mark("dispatch");
    response
}

fn handle_inner(
    server: &mut RouteServer,
    request: Request,
    now: Instant,
    deadline: crate::overload::Deadline,
) -> Result<Response, ServerError> {
    Ok(match request {
        Request::ListInventory => Response::Inventory(
            server
                .inventory()
                .list()
                .map(|r| InventoryEntry {
                    router: r.id,
                    description: r.info.description.clone(),
                    model: r.info.model.clone(),
                    num_ports: r.info.ports.len(),
                    pc_name: r.pc_name.clone(),
                    online: r.online(now),
                })
                .collect(),
        ),
        Request::ListDesigns => {
            Response::Designs(server.designs().names().map(String::from).collect())
        }
        Request::CreateDesign { name } => {
            server.save_design(Design::new(&name));
            Response::Ok
        }
        Request::AddDevice { design, router } => {
            if server.inventory().get(router).is_none() {
                return Err(ServerError::UnknownRouter(router));
            }
            server
                .designs_mut()
                .load_mut(&design)
                .ok_or_else(|| ServerError::UnknownDesign(design.clone()))?
                .add_device(router);
            server.journal_saved_design(&design);
            Response::Ok
        }
        Request::ConnectPorts { design, a, b } => {
            server
                .designs_mut()
                .load_mut(&design)
                .ok_or_else(|| ServerError::UnknownDesign(design.clone()))?
                .connect(a, b)?;
            server.journal_saved_design(&design);
            Response::Ok
        }
        Request::ExportDesign { name } => {
            let d = server
                .designs()
                .load(&name)
                .ok_or(ServerError::UnknownDesign(name))?;
            Response::DesignJson(d.to_json())
        }
        Request::ImportDesign { json } => {
            let d = Design::from_json(&json)?;
            server.save_design(d);
            Response::Ok
        }
        Request::Reserve {
            user,
            design,
            start,
            end,
        } => {
            let id = server.reserve_design(&user, &design, start, end)?;
            Response::Reservation(id.0)
        }
        Request::NextFreeSlot {
            design,
            duration,
            after,
        } => {
            let d = server
                .designs()
                .load(&design)
                .ok_or(ServerError::UnknownDesign(design))?;
            let routers: Vec<RouterId> = d.devices().collect();
            Response::Slot(server.calendar().next_free_slot(&routers, duration, after))
        }
        Request::Deploy {
            user,
            design,
            force,
        } => {
            let id = if force {
                server.deploy_forced(&user, &design, now)?
            } else {
                server.deploy(&user, &design, now)?
            };
            Response::Deployment(id.0)
        }
        Request::AnalyzeDesign { design } => {
            let report = server.analyze_saved_design(&design)?;
            Response::Analysis(report_to_json(&report))
        }
        Request::VerifyDesign { design } => {
            let outcome = server.verify_saved_design(&design)?;
            Response::Verification(verify_to_json(&outcome))
        }
        Request::Teardown { deployment } => {
            server.teardown(deployment);
            Response::Ok
        }
        Request::Console { router, line } => {
            server.console_with_deadline(router, &line, now, deadline)?;
            Response::Ok
        }
        Request::ConsoleReplies { router } => {
            Response::ConsoleOutput(server.console_replies_deadlined(router, now)?)
        }
        Request::SetPower { router, on } => {
            server.set_power(router, on, now);
            Response::Ok
        }
        Request::Flash { router, version } => {
            server.flash_with_deadline(router, &version, now, deadline)?;
            Response::Ok
        }
        Request::FlashResults { router } => {
            Response::FlashOutcomes(server.flash_results_deadlined(router, now)?)
        }
        Request::Inject {
            router,
            port,
            frame,
        } => {
            server.inject(router, port, frame, now)?;
            Response::Ok
        }
        Request::StartStream { config } => {
            let id = server.start_stream(config, now)?;
            Response::Stream(id.0)
        }
        Request::StopStream { stream } => {
            server.stop_stream(stream);
            Response::Ok
        }
        Request::StreamStatus { stream } => Response::StreamSent(server.stream_sent(stream)),
        Request::CaptureStart { router, port } => {
            server.captures_mut().start(router, port);
            Response::Ok
        }
        Request::CaptureStop { router, port } => {
            server.captures_mut().stop(router, port);
            Response::Ok
        }
        Request::Captured { router, port } => Response::Frames(
            server
                .captures()
                .captured(router, port)
                .iter()
                .map(|f| (f.at, f.frame.clone()))
                .collect(),
        ),
        Request::GetMetrics { prefix } => {
            let mut snapshot = server.obs().snapshot();
            if let Some(prefix) = prefix {
                snapshot.metrics.retain(|p| p.name.starts_with(&prefix));
            }
            Response::Metrics(metrics_to_json(&snapshot))
        }
        Request::SlowOps => Response::SlowOps(slow_ops_to_json(&server.slow_ops())),
        Request::SetMesh { on } => {
            server.set_mesh_enabled(on);
            Response::Ok
        }
        Request::MeshStatus => Response::MeshStatus(mesh_status_json(server)),
    })
}

/// Encode captured slow ops for the wire: one object per op with its
/// class, `TraceId` (16-hex-digit string, zero for untraced ops),
/// target router/port, completion time, total duration, and the named
/// phase breakdown — all durations in virtual µs.
pub fn slow_ops_to_json(ops: &[rnl_obs::SlowOp]) -> Json {
    Json::Arr(
        ops.iter()
            .map(|op| {
                Json::obj([
                    ("class", Json::str(op.class.to_string())),
                    ("trace", Json::str(op.trace.to_string())),
                    ("router", Json::num(op.router)),
                    ("port", Json::num(u32::from(op.port))),
                    ("at_us", Json::Num(op.at_us as f64)),
                    ("total_us", Json::Num(op.total_us as f64)),
                    (
                        "phases",
                        Json::Arr(
                            op.phases
                                .iter()
                                .map(|&(name, us)| {
                                    Json::obj([
                                        ("phase", Json::str(name.to_string())),
                                        ("us", Json::Num(us as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Encode a metrics snapshot as a JSON array, one object per series:
/// counters as `{"metric","labels","counter"}`, gauges as `"gauge"`,
/// histograms as `"buckets"` (cumulative, paired with `"le"` bounds),
/// `"sum"` and `"count"`.
pub fn metrics_to_json(snapshot: &rnl_obs::Snapshot) -> Json {
    use rnl_obs::MetricValue;
    Json::Arr(
        snapshot
            .metrics
            .iter()
            .map(|point| {
                let labels = Json::Obj(
                    point
                        .labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                );
                let mut fields = vec![
                    ("metric".to_string(), Json::str(point.name.clone())),
                    ("labels".to_string(), labels),
                ];
                match &point.value {
                    MetricValue::Counter(v) => {
                        fields.push(("counter".to_string(), Json::Num(*v as f64)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("gauge".to_string(), Json::Num(*v)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push((
                            "le".to_string(),
                            Json::Arr(h.bounds.iter().map(|&b| Json::Num(b as f64)).collect()),
                        ));
                        fields.push((
                            "buckets".to_string(),
                            Json::Arr(
                                h.cumulative()
                                    .iter()
                                    .map(|&c| Json::Num(c as f64))
                                    .collect(),
                            ),
                        ));
                        fields.push(("sum".to_string(), Json::Num(h.sum as f64)));
                        fields.push(("count".to_string(), Json::Num(h.count as f64)));
                    }
                    MetricValue::Quantile(q) => {
                        fields.push((
                            "quantiles".to_string(),
                            Json::Arr(q.quantiles.iter().map(|&(p, _)| Json::Num(p)).collect()),
                        ));
                        fields.push((
                            "values".to_string(),
                            Json::Arr(
                                q.quantiles
                                    .iter()
                                    .map(|&(_, v)| Json::Num(v as f64))
                                    .collect(),
                            ),
                        ));
                        fields.push(("min".to_string(), Json::Num(q.min as f64)));
                        fields.push(("max".to_string(), Json::Num(q.max as f64)));
                        fields.push(("sum".to_string(), Json::Num(q.sum as f64)));
                        fields.push(("count".to_string(), Json::Num(q.count as f64)));
                    }
                }
                Json::Obj(fields.into_iter().collect())
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// JSON wire form
// ---------------------------------------------------------------------

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// Parse a JSON request object into a typed [`Request`].
pub fn parse_request(json: &Json) -> Result<Request, String> {
    let op = json.get("op").and_then(Json::as_str).ok_or("missing op")?;
    let router = || -> Result<RouterId, String> {
        Ok(RouterId(
            json.get("router")
                .and_then(Json::as_u64)
                .ok_or("missing router")? as u32,
        ))
    };
    let port = || -> Result<PortId, String> {
        Ok(PortId(
            json.get("port")
                .and_then(Json::as_u64)
                .ok_or("missing port")? as u16,
        ))
    };
    let string = |key: &str| -> Result<String, String> {
        Ok(json
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing {key}"))?
            .to_string())
    };
    let number = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing {key}"))
    };
    Ok(match op {
        "list_inventory" => Request::ListInventory,
        "list_designs" => Request::ListDesigns,
        "create_design" => Request::CreateDesign {
            name: string("name")?,
        },
        "add_device" => Request::AddDevice {
            design: string("design")?,
            router: router()?,
        },
        "connect_ports" => Request::ConnectPorts {
            design: string("design")?,
            a: (
                RouterId(number("a_router")? as u32),
                PortId(number("a_port")? as u16),
            ),
            b: (
                RouterId(number("b_router")? as u32),
                PortId(number("b_port")? as u16),
            ),
        },
        "export_design" => Request::ExportDesign {
            name: string("name")?,
        },
        "import_design" => Request::ImportDesign {
            json: json.get("design").cloned().ok_or("missing design")?,
        },
        "reserve" => Request::Reserve {
            user: string("user")?,
            design: string("design")?,
            start: Instant::from_micros(number("start_us")?),
            end: Instant::from_micros(number("end_us")?),
        },
        "next_free_slot" => Request::NextFreeSlot {
            design: string("design")?,
            duration: Duration::from_micros(number("duration_us")?),
            after: Instant::from_micros(number("after_us")?),
        },
        "deploy" => Request::Deploy {
            user: string("user")?,
            design: string("design")?,
            force: json.get("force").and_then(Json::as_bool).unwrap_or(false),
        },
        "analyze_design" => Request::AnalyzeDesign {
            design: string("design")?,
        },
        "verify_design" => Request::VerifyDesign {
            design: string("design")?,
        },
        "teardown" => Request::Teardown {
            deployment: DeploymentId(number("deployment")?),
        },
        "console" => Request::Console {
            router: router()?,
            line: string("line")?,
        },
        "console_replies" => Request::ConsoleReplies { router: router()? },
        "set_power" => Request::SetPower {
            router: router()?,
            on: json.get("on").and_then(Json::as_bool).ok_or("missing on")?,
        },
        "flash" => Request::Flash {
            router: router()?,
            version: string("version")?,
        },
        "flash_results" => Request::FlashResults { router: router()? },
        "inject" => Request::Inject {
            router: router()?,
            port: port()?,
            frame: hex_decode(&string("frame_hex")?).ok_or("bad frame_hex")?,
        },
        "start_stream" => {
            let mac = |key: &str| -> Result<MacAddr, String> {
                string(key)?.parse().map_err(|_| format!("bad {key}"))
            };
            let ip = |key: &str| -> Result<std::net::Ipv4Addr, String> {
                string(key)?.parse().map_err(|_| format!("bad {key}"))
            };
            Request::StartStream {
                config: StreamConfig {
                    router: router()?,
                    port: port()?,
                    src_mac: mac("src_mac")?,
                    dst_mac: mac("dst_mac")?,
                    src_ip: ip("src_ip")?,
                    dst_ip: ip("dst_ip")?,
                    src_port: number("src_port")? as u16,
                    dst_port: number("dst_port")? as u16,
                    payload_len: number("payload_len")? as usize,
                    count: number("count")?,
                    interval: Duration::from_micros(number("interval_us")?),
                },
            }
        }
        "stop_stream" => Request::StopStream {
            stream: StreamId(number("stream")?),
        },
        "stream_status" => Request::StreamStatus {
            stream: StreamId(number("stream")?),
        },
        "capture_start" => Request::CaptureStart {
            router: router()?,
            port: port()?,
        },
        "capture_stop" => Request::CaptureStop {
            router: router()?,
            port: port()?,
        },
        "captured" => Request::Captured {
            router: router()?,
            port: port()?,
        },
        "get_metrics" => Request::GetMetrics {
            prefix: json.get("prefix").and_then(Json::as_str).map(String::from),
        },
        "slow_ops" => Request::SlowOps,
        "set_mesh" => Request::SetMesh {
            on: json.get("on").and_then(Json::as_bool).ok_or("missing on")?,
        },
        "mesh_status" => Request::MeshStatus,
        other => return Err(format!("unknown op {other:?}")),
    })
}

/// Encode a typed [`Response`] as a JSON object.
pub fn encode_response(response: &Response) -> Json {
    match response {
        Response::Ok => Json::obj([("ok", Json::Bool(true))]),
        Response::Error {
            code,
            message,
            retry_after_us,
        } => {
            let mut fields = vec![
                ("ok", Json::Bool(false)),
                ("code", Json::str(code.clone())),
                ("error", Json::str(message.clone())),
            ];
            if let Some(us) = retry_after_us {
                fields.push(("retry_after_us", Json::u64_str(*us)));
            }
            Json::obj(fields)
        }
        Response::Inventory(rows) => Json::obj([
            ("ok", Json::Bool(true)),
            (
                "inventory",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("router", Json::num(r.router.0)),
                                ("description", Json::str(r.description.clone())),
                                ("model", Json::str(r.model.clone())),
                                ("ports", Json::num(r.num_ports as u32)),
                                ("pc", Json::str(r.pc_name.clone())),
                                ("online", Json::Bool(r.online)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Designs(names) => Json::obj([
            ("ok", Json::Bool(true)),
            (
                "designs",
                Json::Arr(names.iter().map(|n| Json::str(n.clone())).collect()),
            ),
        ]),
        Response::DesignJson(design) => {
            Json::obj([("ok", Json::Bool(true)), ("design", design.clone())])
        }
        Response::Reservation(id) => Json::obj([
            ("ok", Json::Bool(true)),
            ("reservation", Json::num(*id as u32)),
        ]),
        Response::Slot(at) => Json::obj([
            ("ok", Json::Bool(true)),
            ("slot_us", Json::Num(at.as_micros() as f64)),
        ]),
        Response::Deployment(id) => Json::obj([
            ("ok", Json::Bool(true)),
            ("deployment", Json::num(*id as u32)),
        ]),
        Response::ConsoleOutput(lines) => Json::obj([
            ("ok", Json::Bool(true)),
            (
                "output",
                Json::Arr(lines.iter().map(|l| Json::str(l.clone())).collect()),
            ),
        ]),
        Response::FlashOutcomes(rows) => Json::obj([
            ("ok", Json::Bool(true)),
            (
                "results",
                Json::Arr(
                    rows.iter()
                        .map(|(ok, m)| {
                            Json::obj([("ok", Json::Bool(*ok)), ("message", Json::str(m.clone()))])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Stream(id) => {
            Json::obj([("ok", Json::Bool(true)), ("stream", Json::num(*id as u32))])
        }
        Response::StreamSent(sent) => Json::obj([
            ("ok", Json::Bool(true)),
            (
                "sent",
                sent.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null),
            ),
        ]),
        Response::Metrics(metrics) => {
            Json::obj([("ok", Json::Bool(true)), ("metrics", metrics.clone())])
        }
        Response::SlowOps(ops) => Json::obj([("ok", Json::Bool(true)), ("slow_ops", ops.clone())]),
        Response::Analysis(report) => {
            Json::obj([("ok", Json::Bool(true)), ("analysis", report.clone())])
        }
        Response::Verification(outcome) => {
            Json::obj([("ok", Json::Bool(true)), ("verification", outcome.clone())])
        }
        Response::MeshStatus(status) => {
            Json::obj([("ok", Json::Bool(true)), ("mesh", status.clone())])
        }
        Response::Frames(frames) => Json::obj([
            ("ok", Json::Bool(true)),
            (
                "frames",
                Json::Arr(
                    frames
                        .iter()
                        .map(|(at, frame)| {
                            Json::obj([
                                ("at_us", Json::Num(at.as_micros() as f64)),
                                ("frame_hex", Json::str(hex_encode(frame))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// The full wire path: JSON string in, JSON string out.
pub fn handle_json(server: &mut RouteServer, request: &str, now: Instant) -> String {
    let response = match Json::parse(request) {
        Ok(json) => match parse_request(&json) {
            Ok(req) => handle(server, req, now),
            Err(message) => Response::error("bad-request", message),
        },
        Err(e) => Response::error("bad-request", e.to_string()),
    };
    encode_response(&response).encode()
}

// ---------------------------------------------------------------------
// Front tier: routing web ops across a Federation
// ---------------------------------------------------------------------

use crate::shard::{shard_of_router, Federation};

/// One JSON request line against a sharded deployment — the
/// federation's counterpart of [`handle_json`], used by the binary's
/// `--shards N` mode.
pub fn handle_json_sharded(fed: &mut Federation, request: &str, now: Instant) -> String {
    let response = match Json::parse(request) {
        Ok(json) => match parse_request(&json) {
            Ok(req) => handle_sharded(fed, req, now),
            Err(message) => Response::error("bad-request", message),
        },
        Err(e) => Response::error("bad-request", e.to_string()),
    };
    encode_response(&response).encode()
}

/// Where a web op must execute in a sharded deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardKey {
    /// Owned by the shard this principal (design/user name) hashes to.
    Principal(String),
    /// Owned by the shard whose id range contains the router.
    Router(RouterId),
    /// Served by merging every live shard's answer.
    Broadcast,
    /// Handled at the federation layer itself (spanning deploys).
    Federation,
}

/// Classify a request for the front tier. Design- and
/// reservation-cycle ops hash by design name; router-targeted ops
/// route by id range; list/metrics ops merge across shards; deploy and
/// teardown run at the federation layer because one design's routers
/// may span shards.
pub fn shard_key(request: &Request) -> ShardKey {
    match request {
        Request::ListInventory
        | Request::ListDesigns
        | Request::GetMetrics { .. }
        | Request::SlowOps
        | Request::StopStream { .. }
        | Request::StreamStatus { .. }
        | Request::SetMesh { .. }
        | Request::MeshStatus => ShardKey::Broadcast,
        Request::CreateDesign { name } | Request::ExportDesign { name } => {
            ShardKey::Principal(name.clone())
        }
        Request::AddDevice { design, .. }
        | Request::ConnectPorts { design, .. }
        | Request::Reserve { design, .. }
        | Request::NextFreeSlot { design, .. }
        | Request::AnalyzeDesign { design }
        | Request::VerifyDesign { design } => ShardKey::Principal(design.clone()),
        Request::ImportDesign { json } => ShardKey::Principal(
            json.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        ),
        Request::Deploy { .. } | Request::Teardown { .. } => ShardKey::Federation,
        Request::Console { router, .. }
        | Request::ConsoleReplies { router }
        | Request::SetPower { router, .. }
        | Request::Flash { router, .. }
        | Request::FlashResults { router }
        | Request::Inject { router, .. }
        | Request::CaptureStart { router, .. }
        | Request::CaptureStop { router, .. }
        | Request::Captured { router, .. } => ShardKey::Router(*router),
        Request::StartStream { config } => ShardKey::Router(config.router),
    }
}

/// Resolve a single-shard key to its owner.
fn resolve(fed: &Federation, key: &ShardKey) -> Result<usize, ServerError> {
    match key {
        ShardKey::Principal(principal) => {
            fed.shard_of_principal(principal)
                .ok_or(ServerError::ShardDown {
                    shard: 0,
                    retry_after: Duration::from_millis(10),
                })
        }
        ShardKey::Router(router) => {
            let shard = shard_of_router(*router);
            if shard < fed.len() {
                Ok(shard)
            } else {
                Err(ServerError::UnknownRouter(*router))
            }
        }
        // Broadcast / Federation keys have no single owner.
        _ => Err(ServerError::ShardDown {
            shard: 0,
            retry_after: Duration::from_millis(10),
        }),
    }
}

/// Add a router to a design held on shard `home`, validating the
/// router against the inventory of the shard that *owns* it — which
/// need not be `home`. The single-server [`handle`] path checks its
/// own inventory, which would reject every cross-shard member; here
/// the design is the union view, so the check federates too.
fn add_device_sharded(
    fed: &mut Federation,
    home: usize,
    design: &str,
    router: RouterId,
) -> Response {
    let r_shard = shard_of_router(router);
    if r_shard >= fed.len() {
        return error_response(&ServerError::UnknownRouter(router));
    }
    if !fed.is_up(r_shard) {
        return error_response(&ServerError::ShardDown {
            shard: r_shard,
            retry_after: fed.retry_hint(r_shard),
        });
    }
    let known = fed
        .server(r_shard)
        .is_some_and(|s| s.inventory().get(router).is_some());
    if !known {
        return error_response(&ServerError::UnknownRouter(router));
    }
    let server = match fed.server_mut(home) {
        Ok(server) => server,
        Err(e) => return error_response(&e),
    };
    let Some(d) = server.designs_mut().load_mut(design) else {
        return error_response(&ServerError::UnknownDesign(design.to_string()));
    };
    d.add_device(router);
    server.journal_saved_design(design);
    Response::Ok
}

/// The sharded front door: route a web op to the shard that owns it
/// (retryable `shard-down` while that shard recovers), merge broadcast
/// ops across live shards, and run spanning deploy/teardown at the
/// federation layer.
pub fn handle_sharded(fed: &mut Federation, request: Request, now: Instant) -> Response {
    match shard_key(&request) {
        ShardKey::Federation => handle_federated(fed, request, now),
        ShardKey::Broadcast => handle_broadcast(fed, request, now),
        key => {
            let owner = match resolve(fed, &key) {
                Ok(owner) => owner,
                Err(e) => return error_response(&e),
            };
            if let Request::AddDevice { design, router } = &request {
                return add_device_sharded(fed, owner, design, *router);
            }
            match fed.server_mut(owner) {
                Ok(server) => handle(server, request, now),
                Err(e) => error_response(&e),
            }
        }
    }
}

fn handle_federated(fed: &mut Federation, request: Request, now: Instant) -> Response {
    match request {
        Request::Deploy {
            user,
            design,
            force,
        } => match fed.deploy_spanning(&user, &design, force, now) {
            Ok(id) => Response::Deployment(id),
            Err(e) => error_response(&e),
        },
        Request::Teardown { deployment } => match fed.teardown_fed(deployment.0, now) {
            Ok(_) => Response::Ok,
            Err(e) => error_response(&e),
        },
        _ => bad_request("not a federation-level op"),
    }
}

/// Merge a broadcast op across every live shard. A down shard simply
/// contributes nothing — its rows come back once it recovers, which is
/// the containment story applied to the control plane.
fn handle_broadcast(fed: &mut Federation, request: Request, now: Instant) -> Response {
    let live: Vec<usize> = (0..fed.len()).filter(|&k| fed.is_up(k)).collect();
    match request {
        Request::ListInventory => {
            let mut rows = Vec::new();
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    if let Response::Inventory(mut part) =
                        handle(server, Request::ListInventory, now)
                    {
                        rows.append(&mut part);
                    }
                }
            }
            Response::Inventory(rows)
        }
        Request::ListDesigns => {
            let mut names = Vec::new();
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    if let Response::Designs(mut part) = handle(server, Request::ListDesigns, now) {
                        names.append(&mut part);
                    }
                }
            }
            names.sort_unstable();
            Response::Designs(names)
        }
        Request::GetMetrics { ref prefix } => {
            let mut merged = Vec::new();
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    let req = Request::GetMetrics {
                        prefix: prefix.clone(),
                    };
                    if let Response::Metrics(Json::Arr(mut part)) = handle(server, req, now) {
                        merged.append(&mut part);
                    }
                }
            }
            Response::Metrics(Json::Arr(merged))
        }
        Request::SlowOps => {
            let mut merged = Vec::new();
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    if let Response::SlowOps(Json::Arr(mut part)) =
                        handle(server, Request::SlowOps, now)
                    {
                        merged.append(&mut part);
                    }
                }
            }
            Response::SlowOps(Json::Arr(merged))
        }
        Request::StopStream { .. } => {
            // Stream ids are shard-local; stopping is idempotent, so
            // every live shard gets the word.
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    handle(server, request.clone(), now);
                }
            }
            Response::Ok
        }
        Request::StreamStatus { .. } => {
            for k in live {
                let response = match fed.server_mut(k) {
                    Ok(server) => handle(server, request.clone(), now),
                    Err(_) => continue,
                };
                if matches!(response, Response::StreamSent(Some(_))) {
                    return response;
                }
            }
            Response::StreamSent(None)
        }
        Request::SetMesh { .. } => {
            // The mesh toggle is config; every live shard flips. A down
            // shard re-learns it when the facade re-applies config
            // after recovery, like every other toggle.
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    handle(server, request.clone(), now);
                }
            }
            Response::Ok
        }
        Request::MeshStatus => {
            let mut enabled = false;
            let mut wires: u64 = 0;
            let mut fallback: u64 = 0;
            for k in live {
                if let Ok(server) = fed.server_mut(k) {
                    enabled |= server.mesh_enabled();
                    wires += server.mesh_wire_count() as u64;
                    fallback += server.mesh_relay_fallback_frames();
                }
            }
            Response::MeshStatus(Json::obj([
                ("enabled", Json::Bool(enabled)),
                ("wires", Json::Num(wires as f64)),
                ("relay_fallback_frames", Json::Num(fallback as f64)),
            ]))
        }
        _ => bad_request("not a broadcast op"),
    }
}

fn bad_request(message: &str) -> Response {
    Response::Error {
        code: "bad-request".to_string(),
        message: message.to_string(),
        retry_after_us: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    #[test]
    fn create_connect_export_via_typed_api() {
        let mut server = RouteServer::new();
        // Designs can be edited before any hardware exists, except
        // AddDevice which validates against the inventory.
        assert_eq!(
            handle(
                &mut server,
                Request::CreateDesign { name: "lab".into() },
                t(0)
            ),
            Response::Ok
        );
        assert!(matches!(
            handle(
                &mut server,
                Request::AddDevice {
                    design: "lab".into(),
                    router: RouterId(1)
                },
                t(0)
            ),
            Response::Error { .. }
        ));
        assert_eq!(
            handle(&mut server, Request::ListDesigns, t(0)),
            Response::Designs(vec!["lab".to_string()])
        );
    }

    #[test]
    fn json_wire_roundtrip() {
        let mut server = RouteServer::new();
        let reply = handle_json(&mut server, r#"{"op":"create_design","name":"lab"}"#, t(0));
        assert_eq!(reply, r#"{"ok":true}"#);
        let reply = handle_json(&mut server, r#"{"op":"list_designs"}"#, t(0));
        assert!(reply.contains("lab"));
        let reply = handle_json(&mut server, r#"{"op":"export_design","name":"lab"}"#, t(0));
        assert!(reply.contains("\"design\""));
        // Unknown op and malformed JSON degrade to structured errors.
        let reply = handle_json(&mut server, r#"{"op":"frobnicate"}"#, t(0));
        assert!(reply.contains("\"ok\":false"));
        let reply = handle_json(&mut server, "not json", t(0));
        assert!(reply.contains("\"ok\":false"));
    }

    #[test]
    fn get_metrics_returns_live_series() {
        let mut server = RouteServer::new();
        // Touch a counter so the snapshot is non-empty beyond zeros.
        server
            .obs()
            .counter("rnl_server_frames_routed_total", &[])
            .add(3);
        let reply = handle_json(&mut server, r#"{"op":"get_metrics"}"#, t(0));
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(
            reply.contains("rnl_server_frames_routed_total"),
            "snapshot should list the counter: {reply}"
        );
        let parsed = Json::parse(&reply).unwrap();
        let metrics = parsed.get("metrics").and_then(Json::as_arr).unwrap();
        let routed = metrics
            .iter()
            .find(|m| {
                m.get("metric").and_then(Json::as_str) == Some("rnl_server_frames_routed_total")
            })
            .expect("series present");
        assert_eq!(routed.get("counter").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn get_metrics_prefix_filters_series() {
        let mut server = RouteServer::new();
        server
            .obs()
            .counter("rnl_server_frames_routed_total", &[])
            .add(3);
        let reply = handle_json(
            &mut server,
            r#"{"op":"get_metrics","prefix":"rnl_server_frames_"}"#,
            t(0),
        );
        let parsed = Json::parse(&reply).unwrap();
        let metrics = parsed.get("metrics").and_then(Json::as_arr).unwrap();
        assert!(!metrics.is_empty());
        for m in metrics {
            let name = m.get("metric").and_then(Json::as_str).unwrap();
            assert!(name.starts_with("rnl_server_frames_"), "leaked: {name}");
        }
        // No prefix still returns the whole registry (default unchanged).
        let full = handle_json(&mut server, r#"{"op":"get_metrics"}"#, t(0));
        assert!(full.contains("rnl_server_sessions_graced"));
    }

    #[test]
    fn slow_ops_op_returns_recorded_entries() {
        use rnl_obs::{SlowOp, TraceId};
        let mut server = RouteServer::new();
        server.set_slow_threshold("relay", 10);
        server.flight_recorder().record_if_slow(SlowOp {
            class: "relay",
            trace: TraceId(0xabcd),
            router: 3,
            port: 1,
            at_us: 5000,
            total_us: 777,
            phases: vec![("tunnel-upstream", 777)],
        });
        let reply = handle_json(&mut server, r#"{"op":"slow_ops"}"#, t(0));
        let parsed = Json::parse(&reply).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        let ops = parsed.get("slow_ops").and_then(Json::as_arr).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].get("class").and_then(Json::as_str), Some("relay"));
        assert_eq!(
            ops[0].get("trace").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(ops[0].get("total_us").and_then(Json::as_u64), Some(777));
        let phases = ops[0].get("phases").and_then(Json::as_arr).unwrap();
        assert_eq!(
            phases[0].get("phase").and_then(Json::as_str),
            Some("tunnel-upstream")
        );
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0x00, 0xff, 0x10, 0xab];
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
    }

    #[test]
    fn import_then_export_design_json() {
        let mut server = RouteServer::new();
        let design_json =
            r#"{"op":"import_design","design":{"name":"imported","devices":[],"links":[]}}"#;
        let reply = handle_json(&mut server, design_json, t(0));
        assert_eq!(reply, r#"{"ok":true}"#);
        let reply = handle_json(
            &mut server,
            r#"{"op":"export_design","name":"imported"}"#,
            t(0),
        );
        assert!(reply.contains("imported"));
    }

    #[test]
    fn verify_design_returns_report_pairs_and_coverage() {
        let mut server = RouteServer::new();
        assert_eq!(
            handle_json(&mut server, r#"{"op":"create_design","name":"lab"}"#, t(0)),
            r#"{"ok":true}"#
        );
        let reply = handle_json(
            &mut server,
            r#"{"op":"verify_design","design":"lab"}"#,
            t(0),
        );
        let parsed = Json::parse(&reply).unwrap();
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        let verification = parsed.get("verification").expect("verification field");
        assert!(verification.get("report").is_some(), "{reply}");
        assert!(verification.get("pairs").is_some(), "{reply}");
        let coverage = verification.get("coverage").expect("coverage field");
        // An empty design has nothing uncovered.
        assert_eq!(
            coverage.get("percent").and_then(Json::as_f64),
            Some(100.0),
            "{reply}"
        );
    }

    #[test]
    fn analysis_encoders_escape_and_count() {
        use rnl_analysis::{Diagnostic, PairOutcome, Report, Severity, VerifyOutcome};
        let report = Report {
            design: "a\"b".into(),
            diagnostics: vec![Diagnostic::new("RNL0302", Severity::Error, "line1\nline2")],
        };
        let json = report_to_json(&report).encode();
        assert!(json.contains(r#""design":"a\"b""#), "{json}");
        assert!(json.contains(r#"line1\nline2"#), "{json}");
        assert!(json.contains(r#""errors":1"#), "{json}");
        assert!(json.contains(r#""span":"design""#), "{json}");
        let outcome = VerifyOutcome {
            report,
            pairs: vec![PairOutcome {
                src: RouterId(1),
                src_subnet: "10.1.0.0/16".parse().unwrap(),
                dst: RouterId(2),
                dst_subnet: "10.2.0.0/16".parse().unwrap(),
                src_hosts: Vec::new(),
                dst_hosts: Vec::new(),
                delivered: true,
                path: vec![RouterId(1), RouterId(2)],
                detail: "via \"r1\"".into(),
            }],
            ..VerifyOutcome::default()
        };
        let json = verify_to_json(&outcome).encode();
        assert!(json.contains(r#""percent":100"#), "{json}");
        assert!(json.contains(r#""delivered":true"#), "{json}");
        assert!(json.contains(r#""detail":"via \"r1\"""#), "{json}");
        assert!(json.contains(r#""summary":"100%"#), "{json}");
    }

    #[test]
    fn every_failing_op_carries_a_stable_error_code() {
        use crate::overload::OverloadConfig;
        let mut server = RouteServer::new();
        // The success shape is untouched by the error-path audit.
        assert_eq!(
            handle_json(&mut server, r#"{"op":"create_design","name":"lab"}"#, t(0)),
            r#"{"ok":true}"#
        );
        let cases: &[(&str, &str)] = &[
            ("not json", "bad-request"),
            (r#"{"op":"frobnicate"}"#, "bad-request"),
            (r#"{"op":"console","line":"x"}"#, "bad-request"),
            (
                r#"{"op":"inject","router":0,"port":0,"frame_hex":"zz"}"#,
                "bad-request",
            ),
            (
                r#"{"op":"add_device","design":"lab","router":7}"#,
                "unknown-router",
            ),
            (
                r#"{"op":"console","router":7,"line":"show ver"}"#,
                "unknown-router",
            ),
            (
                r#"{"op":"connect_ports","design":"ghost","a_router":0,"a_port":0,"b_router":1,"b_port":0}"#,
                "unknown-design",
            ),
            (r#"{"op":"export_design","name":"ghost"}"#, "unknown-design"),
            (
                r#"{"op":"analyze_design","design":"ghost"}"#,
                "unknown-design",
            ),
            (
                r#"{"op":"verify_design","design":"ghost"}"#,
                "unknown-design",
            ),
            (
                r#"{"op":"deploy","user":"alice","design":"ghost"}"#,
                "unknown-design",
            ),
            (
                r#"{"op":"reserve","user":"alice","design":"ghost","start_us":0,"end_us":1}"#,
                "unknown-design",
            ),
            (
                r#"{"op":"next_free_slot","design":"ghost","duration_us":1,"after_us":0}"#,
                "unknown-design",
            ),
            (
                r#"{"op":"import_design","design":{"bogus":true}}"#,
                "design",
            ),
        ];
        for (request, code) in cases {
            let reply = handle_json(&mut server, request, t(0));
            let parsed = Json::parse(&reply).unwrap();
            assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(false),
                "{request}"
            );
            assert_eq!(
                parsed.get("code").and_then(Json::as_str),
                Some(*code),
                "{request} -> {reply}"
            );
            assert!(
                parsed.get("error").and_then(Json::as_str).is_some(),
                "{reply}"
            );
        }
        // Overload sheds are coded too, and carry a machine-readable
        // retry hint so clients can back off instead of hammering.
        let tight = OverloadConfig {
            capacity: 1,
            refill_per_sec: 1,
            ..OverloadConfig::default()
        };
        server.set_overload_config(tight, t(0));
        let reply = handle_json(&mut server, r#"{"op":"list_designs"}"#, t(0));
        let parsed = Json::parse(&reply).unwrap();
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("overloaded")
        );
        assert!(
            parsed
                .get("retry_after_us")
                .and_then(Json::as_u64_str)
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn set_mesh_and_mesh_status_roundtrip() {
        let mut server = RouteServer::new();
        let reply = handle_json(&mut server, r#"{"op":"mesh_status"}"#, t(0));
        let parsed = Json::parse(&reply).unwrap();
        let mesh = parsed.get("mesh").expect("mesh field");
        assert_eq!(mesh.get("enabled").and_then(Json::as_bool), Some(false));
        assert_eq!(
            handle_json(&mut server, r#"{"op":"set_mesh","on":true}"#, t(0)),
            r#"{"ok":true}"#
        );
        assert!(server.mesh_enabled());
        let reply = handle_json(&mut server, r#"{"op":"mesh_status"}"#, t(0));
        let parsed = Json::parse(&reply).unwrap();
        let mesh = parsed.get("mesh").expect("mesh field");
        assert_eq!(mesh.get("enabled").and_then(Json::as_bool), Some(true));
        assert_eq!(mesh.get("wires").and_then(Json::as_u64), Some(0));
        // Missing the flag degrades to a structured parse error.
        let reply = handle_json(&mut server, r#"{"op":"set_mesh"}"#, t(0));
        assert!(reply.contains("missing on"));
    }

    #[test]
    fn inject_rejects_bad_hex() {
        let mut server = RouteServer::new();
        let reply = handle_json(
            &mut server,
            r#"{"op":"inject","router":0,"port":0,"frame_hex":"xy"}"#,
            t(0),
        );
        assert!(reply.contains("bad frame_hex"));
    }
}
