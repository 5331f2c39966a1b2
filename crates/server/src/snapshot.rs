//! The route server's durable log: every journaled mutation is one
//! [`Op`], and a snapshot is the shortest `Op` sequence that rebuilds
//! the durable state.
//!
//! The durable state is exactly what a restarted server must know to
//! keep every lab alive: the registered sessions (so re-registering RIS
//! supervisors reconcile against their journaled [`SessionEpoch`]s) and
//! the inventory records they front, the reservation calendar, the saved
//! designs, every live deployment with its matrix links, and the id
//! high-water marks. Volatile bookkeeping — heartbeat freshness,
//! transport liveness, compression rings, metric values — is
//! deliberately excluded: recovery re-derives it ("all recovered
//! sessions start graced at recovery time").
//!
//! A snapshot holds its ops framed exactly like journal records, so
//! recovery is one `apply_op` loop over the snapshot's ops and then the
//! tail's. A compacted store is one `Session` op per registered session
//! (carrying its inventory records), then the `Reserve`, `SaveDesign`
//! and `Deploy` ops, then one [`Op::Watermarks`] with the id counters.
//! The federation's log (`FedDeploy`, `FedTeardown`, `Watermarks`) is
//! the same format in a store of its own.
//!
//! Everything rides the hand-rolled [`Json`] codec. Object keys are
//! `BTreeMap`-ordered, so the same op always encodes to the same bytes.
//! Full-range `u64`s (epoch tokens, microsecond timestamps, ids) travel
//! as decimal strings because JSON numbers are `f64` here and round past
//! 2^53; every narrower number is range-checked with `try_from`, never
//! truncated.

use rnl_net::time::Instant;
use rnl_tunnel::msg::{ImageRegion, PortId, PortInfo, RouterId, RouterInfo, SessionEpoch};

use crate::design::Link;
use crate::inventory::SessionId;
use crate::journal::JournalError;
use crate::json::Json;
use crate::matrix::DeploymentId;
use crate::reserve::ReservationId;
use crate::shard::FedDeployment;

fn bad(m: impl Into<String>) -> JournalError {
    JournalError::Decode(m.into())
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, JournalError> {
    v.get(key)
        .ok_or_else(|| bad(format!("record missing {key}")))
}

fn str_field(v: &Json, key: &str) -> Result<String, JournalError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("bad {key}")))
}

/// A full-range `u64` carried as a decimal string.
fn u64_field(v: &Json, key: &str) -> Result<u64, JournalError> {
    field(v, key)?
        .as_u64_str()
        .ok_or_else(|| bad(format!("bad {key}")))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], JournalError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("{key} not an array")))
}

/// A JSON number that must fit `T`.
fn num<T: TryFrom<u64>>(v: &Json, what: &str) -> Result<T, JournalError> {
    v.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| bad(format!("bad {what}")))
}

fn router_ids_to_json(routers: &[RouterId]) -> Json {
    Json::Arr(routers.iter().map(|r| Json::num(r.0)).collect())
}

fn router_ids_from_json(v: &Json) -> Result<Vec<RouterId>, JournalError> {
    arr_field(v, "routers")?
        .iter()
        .map(|r| num(r, "router id").map(RouterId))
        .collect()
}

/// A link as the 4-element array `[a_router, a_port, b_router, b_port]`.
fn link_to_json(link: &Link) -> Json {
    let ((ar, ap), (br, bp)) = *link;
    Json::Arr(vec![
        Json::num(ar.0),
        Json::num(ap.0),
        Json::num(br.0),
        Json::num(bp.0),
    ])
}

fn link_from_json(v: &Json) -> Result<Link, JournalError> {
    let parts = v.as_arr().ok_or_else(|| bad("link not an array"))?;
    let [ar, ap, br, bp] = parts else {
        return Err(bad("link needs 4 elements"));
    };
    Ok((
        (
            RouterId(num(ar, "link router")?),
            PortId(num(ap, "link port")?),
        ),
        (
            RouterId(num(br, "link router")?),
            PortId(num(bp, "link port")?),
        ),
    ))
}

fn links_to_json(links: &[Link]) -> Json {
    Json::Arr(links.iter().map(link_to_json).collect())
}

fn links_from_json(v: &Json, key: &str) -> Result<Vec<Link>, JournalError> {
    arr_field(v, key)?.iter().map(link_from_json).collect()
}

fn port_info_to_json(port: &PortInfo) -> Json {
    Json::obj([
        ("description", Json::str(&port.description)),
        ("nic", Json::str(&port.nic)),
        (
            "region",
            Json::Arr(vec![
                Json::num(port.region.x),
                Json::num(port.region.y),
                Json::num(port.region.w),
                Json::num(port.region.h),
            ]),
        ),
    ])
}

fn port_info_from_json(v: &Json) -> Result<PortInfo, JournalError> {
    let [x, y, w, h] = arr_field(v, "region")? else {
        return Err(bad("port region needs 4 elements"));
    };
    Ok(PortInfo {
        description: str_field(v, "description")?,
        nic: str_field(v, "nic")?,
        region: ImageRegion {
            x: num(x, "region element")?,
            y: num(y, "region element")?,
            w: num(w, "region element")?,
            h: num(h, "region element")?,
        },
    })
}

/// The Fig.-3 registration data, persisted so recovered inventory
/// records are complete before the RIS even redials.
fn router_info_to_json(info: &RouterInfo) -> Json {
    Json::obj([
        ("local_id", Json::num(info.local_id)),
        ("description", Json::str(&info.description)),
        ("model", Json::str(&info.model)),
        ("image", Json::str(&info.image)),
        (
            "ports",
            Json::Arr(info.ports.iter().map(port_info_to_json).collect()),
        ),
        (
            "console_com",
            match &info.console_com {
                Some(com) => Json::str(com),
                None => Json::Null,
            },
        ),
    ])
}

fn router_info_from_json(v: &Json) -> Result<RouterInfo, JournalError> {
    Ok(RouterInfo {
        local_id: num(field(v, "local_id")?, "local_id")?,
        description: str_field(v, "description")?,
        model: str_field(v, "model")?,
        image: str_field(v, "image")?,
        ports: arr_field(v, "ports")?
            .iter()
            .map(port_info_from_json)
            .collect::<Result<_, _>>()?,
        console_com: match v.get("console_com") {
            None | Some(Json::Null) => None,
            Some(_) => Some(str_field(v, "console_com")?),
        },
    })
}

fn epoch_to_json(epoch: SessionEpoch) -> Json {
    Json::obj([
        ("token", Json::u64_str(epoch.token)),
        ("gen", Json::u64_str(epoch.generation)),
    ])
}

fn epoch_from_json(v: &Json) -> Result<SessionEpoch, JournalError> {
    Ok(SessionEpoch {
        token: u64_field(v, "token")?,
        generation: u64_field(v, "gen")?,
    })
}

/// One durable-log record. Live mutations append one op each; a
/// snapshot is the op sequence that rebuilds the state it compacts.
/// Applying a snapshot's ops and then the tail's, in order,
/// reconstructs the exact pre-crash durable state.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A RIS registered (fresh) or re-adopted a graced session
    /// (`replaces` carries the old sid). `routers` pairs each assigned
    /// global id with its registration info.
    Session {
        sid: SessionId,
        pc_name: String,
        epoch: SessionEpoch,
        replaces: Option<SessionId>,
        routers: Vec<(RouterId, RouterInfo)>,
    },
    /// Grace expired: the session's hardware left the inventory.
    Reap { sid: SessionId },
    /// A calendar booking succeeded.
    Reserve {
        id: ReservationId,
        user: String,
        routers: Vec<RouterId>,
        start: Instant,
        end: Instant,
    },
    /// A booking was cancelled.
    Cancel { id: ReservationId },
    /// A deployment installed into the matrix.
    Deploy {
        id: DeploymentId,
        user: String,
        design_name: String,
        routers: Vec<RouterId>,
        links: Vec<Link>,
    },
    /// A deployment torn down.
    Teardown { id: DeploymentId },
    /// A design saved (or overwritten in place) through the web API.
    /// Carries the design's own JSON interchange form.
    SaveDesign { design: Json },
    /// A design deleted.
    DeleteDesign { name: String },
    /// The id counters a compaction would otherwise lose (ids are never
    /// reused, so a torn-down deployment's id must stay spent). The last
    /// op of every snapshot. `next_federation` is the federation log's
    /// next spanning-deployment id, 0 in a route server's own log.
    Watermarks {
        next_session: u64,
        next_router: u32,
        next_reservation: u64,
        next_deployment: u64,
        next_federation: u64,
    },
    /// A spanning deployment registered (federation log only).
    FedDeploy { id: u64, deployment: FedDeployment },
    /// A spanning deployment torn down (federation log only).
    FedTeardown { id: u64 },
}

impl Op {
    /// Encode as one journal-record payload.
    pub fn to_json(&self) -> Json {
        match self {
            Op::Session {
                sid,
                pc_name,
                epoch,
                replaces,
                routers,
            } => Json::obj([
                ("op", Json::str("session")),
                ("sid", Json::u64_str(sid.0)),
                ("pc", Json::str(pc_name)),
                ("epoch", epoch_to_json(*epoch)),
                (
                    "replaces",
                    match replaces {
                        Some(old) => Json::u64_str(old.0),
                        None => Json::Null,
                    },
                ),
                (
                    "routers",
                    Json::Arr(
                        routers
                            .iter()
                            .map(|(id, info)| {
                                Json::obj([
                                    ("id", Json::num(id.0)),
                                    ("info", router_info_to_json(info)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Op::Reap { sid } => {
                Json::obj([("op", Json::str("reap")), ("sid", Json::u64_str(sid.0))])
            }
            Op::Reserve {
                id,
                user,
                routers,
                start,
                end,
            } => Json::obj([
                ("op", Json::str("reserve")),
                ("id", Json::u64_str(id.0)),
                ("user", Json::str(user)),
                ("routers", router_ids_to_json(routers)),
                ("start", Json::u64_str(start.as_micros())),
                ("end", Json::u64_str(end.as_micros())),
            ]),
            Op::Cancel { id } => {
                Json::obj([("op", Json::str("cancel")), ("id", Json::u64_str(id.0))])
            }
            Op::Deploy {
                id,
                user,
                design_name,
                routers,
                links,
            } => Json::obj([
                ("op", Json::str("deploy")),
                ("id", Json::u64_str(id.0)),
                ("user", Json::str(user)),
                ("design", Json::str(design_name)),
                ("routers", router_ids_to_json(routers)),
                ("links", links_to_json(links)),
            ]),
            Op::Teardown { id } => {
                Json::obj([("op", Json::str("teardown")), ("id", Json::u64_str(id.0))])
            }
            Op::SaveDesign { design } => {
                Json::obj([("op", Json::str("save_design")), ("design", design.clone())])
            }
            Op::DeleteDesign { name } => Json::obj([
                ("op", Json::str("delete_design")),
                ("name", Json::str(name)),
            ]),
            Op::Watermarks {
                next_session,
                next_router,
                next_reservation,
                next_deployment,
                next_federation,
            } => Json::obj([
                ("op", Json::str("watermarks")),
                ("session", Json::u64_str(*next_session)),
                ("router", Json::num(*next_router)),
                ("reservation", Json::u64_str(*next_reservation)),
                ("deployment", Json::u64_str(*next_deployment)),
                ("federation", Json::u64_str(*next_federation)),
            ]),
            Op::FedDeploy { id, deployment } => Json::obj([
                ("op", Json::str("fed_deploy")),
                ("id", Json::u64_str(*id)),
                (
                    "parts",
                    Json::Arr(
                        deployment
                            .parts
                            .iter()
                            .map(|&(shard, part)| {
                                Json::Arr(vec![Json::num(shard as f64), Json::u64_str(part.0)])
                            })
                            .collect(),
                    ),
                ),
                ("cross", links_to_json(&deployment.cross)),
            ]),
            Op::FedTeardown { id } => Json::obj([
                ("op", Json::str("fed_teardown")),
                ("id", Json::u64_str(*id)),
            ]),
        }
    }

    /// Decode one journal-record payload.
    pub fn from_json(v: &Json) -> Result<Op, JournalError> {
        let instant = |key| u64_field(v, key).map(Instant::from_micros);
        match field(v, "op")?.as_str().ok_or_else(|| bad("bad op"))? {
            "session" => Ok(Op::Session {
                sid: SessionId(u64_field(v, "sid")?),
                pc_name: str_field(v, "pc")?,
                epoch: epoch_from_json(field(v, "epoch")?)?,
                replaces: match v.get("replaces") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(SessionId(u64_field(v, "replaces")?)),
                },
                routers: arr_field(v, "routers")?
                    .iter()
                    .map(|entry| {
                        Ok((
                            RouterId(num(field(entry, "id")?, "router id")?),
                            router_info_from_json(field(entry, "info")?)?,
                        ))
                    })
                    .collect::<Result<_, JournalError>>()?,
            }),
            "reap" => Ok(Op::Reap {
                sid: SessionId(u64_field(v, "sid")?),
            }),
            "reserve" => Ok(Op::Reserve {
                id: ReservationId(u64_field(v, "id")?),
                user: str_field(v, "user")?,
                routers: router_ids_from_json(v)?,
                start: instant("start")?,
                end: instant("end")?,
            }),
            "cancel" => Ok(Op::Cancel {
                id: ReservationId(u64_field(v, "id")?),
            }),
            "deploy" => Ok(Op::Deploy {
                id: DeploymentId(u64_field(v, "id")?),
                user: str_field(v, "user")?,
                design_name: str_field(v, "design")?,
                routers: router_ids_from_json(v)?,
                links: links_from_json(v, "links")?,
            }),
            "teardown" => Ok(Op::Teardown {
                id: DeploymentId(u64_field(v, "id")?),
            }),
            "save_design" => Ok(Op::SaveDesign {
                design: field(v, "design")?.clone(),
            }),
            "delete_design" => Ok(Op::DeleteDesign {
                name: str_field(v, "name")?,
            }),
            "watermarks" => Ok(Op::Watermarks {
                next_session: u64_field(v, "session")?,
                next_router: num(field(v, "router")?, "router watermark")?,
                next_reservation: u64_field(v, "reservation")?,
                next_deployment: u64_field(v, "deployment")?,
                next_federation: u64_field(v, "federation")?,
            }),
            "fed_deploy" => Ok(Op::FedDeploy {
                id: u64_field(v, "id")?,
                deployment: FedDeployment {
                    parts: arr_field(v, "parts")?
                        .iter()
                        .map(|p| match p.as_arr() {
                            Some([shard, part]) => Ok((
                                num(shard, "shard")?,
                                DeploymentId(part.as_u64_str().ok_or_else(|| bad("bad part"))?),
                            )),
                            _ => Err(bad("part needs 2 elements")),
                        })
                        .collect::<Result<_, _>>()?,
                    cross: links_from_json(v, "cross")?,
                },
            }),
            "fed_teardown" => Ok(Op::FedTeardown {
                id: u64_field(v, "id")?,
            }),
            _ => Err(bad("unknown op")),
        }
    }

    /// Encode as the bytes of one framed record.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().encode().into_bytes()
    }

    /// Decode the bytes of one framed record.
    pub fn decode(payload: &[u8]) -> Result<Op, JournalError> {
        let text = std::str::from_utf8(payload).map_err(|_| bad("record is not UTF-8"))?;
        let json = Json::parse(text).map_err(|e| bad(format!("record: {e}")))?;
        Op::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use rnl_net::time::Duration;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn info(local: u32) -> RouterInfo {
        RouterInfo {
            local_id: local,
            description: format!("router {local}"),
            model: "7200".to_string(),
            image: "back.png".to_string(),
            ports: vec![PortInfo {
                description: "uplink".to_string(),
                nic: "eth0".to_string(),
                region: ImageRegion {
                    x: 1,
                    y: 2,
                    w: 30,
                    h: 40,
                },
            }],
            console_com: Some("COM3".to_string()),
        }
    }

    #[test]
    fn every_op_roundtrips_through_json() {
        let ops = vec![
            Op::Session {
                sid: SessionId(3),
                pc_name: "pc-a".to_string(),
                epoch: SessionEpoch {
                    token: u64::MAX - 7,
                    generation: 4,
                },
                replaces: Some(SessionId(1)),
                routers: vec![(RouterId(9), info(0)), (RouterId(10), info(1))],
            },
            Op::Reap { sid: SessionId(2) },
            Op::Reserve {
                id: ReservationId(5),
                user: "alice".to_string(),
                routers: vec![RouterId(1), RouterId(2)],
                start: t(100),
                end: t(900),
            },
            Op::Cancel {
                id: ReservationId(5),
            },
            Op::Deploy {
                id: DeploymentId(7),
                user: "bob".to_string(),
                design_name: "cross".to_string(),
                routers: vec![RouterId(1), RouterId(2)],
                links: vec![((RouterId(1), PortId(0)), (RouterId(2), PortId(3)))],
            },
            Op::Teardown {
                id: DeploymentId(7),
            },
            Op::SaveDesign {
                design: {
                    let mut d = Design::new("probe");
                    d.add_device(RouterId(1));
                    d.to_json()
                },
            },
            Op::DeleteDesign {
                name: "probe".to_string(),
            },
            Op::Watermarks {
                next_session: 4,
                next_router: 4097,
                next_reservation: 6,
                next_deployment: u64::MAX - 1,
                next_federation: 3,
            },
            Op::FedDeploy {
                id: 2,
                deployment: FedDeployment {
                    parts: vec![(0, DeploymentId(0)), (1, DeploymentId(5))],
                    cross: vec![((RouterId(0), PortId(0)), (RouterId(4096), PortId(1)))],
                },
            },
            Op::FedTeardown { id: 2 },
        ];
        for op in ops {
            let encoded = op.encode();
            assert_eq!(
                Op::decode(&encoded).unwrap(),
                op,
                "via {}",
                String::from_utf8_lossy(&encoded)
            );
        }
    }

    /// Links are range-checked, never truncated: port 70000 is not
    /// port 4464, and router 2^32 + 5 is not router 5.
    #[test]
    fn out_of_range_link_ends_are_refused() {
        let record = |link: &str| {
            format!(r#"{{"op":"fed_deploy","id":"1","parts":[[0,"0"]],"cross":[{link}]}}"#)
        };
        assert!(Op::decode(record("[0,0,4096,1]").as_bytes()).is_ok());
        for link in ["[0,0,4096,70000]", "[4294967301,0,4096,1]"] {
            let decoded = Op::decode(record(link).as_bytes());
            assert!(
                matches!(decoded, Err(JournalError::Decode(_))),
                "{link} decoded as {decoded:?}"
            );
        }
    }
}
