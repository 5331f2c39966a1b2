//! The symbolic data-plane verifier.
//!
//! Where [`crate::checks`] lints devices one at a time, this module
//! compiles every parsed config plus the design's wiring into a
//! whole-design forwarding model and walks *packet classes* — pairs of
//! source/destination prefixes, ICMP-shaped so the result matches what
//! a live `ping` would see — end to end through the topology:
//!
//! 1. **L2**: switch ports are grouped into per-VLAN broadcast domains
//!    (access/trunk modes, VLAN 1 default), and FWSM `vlan-pair`
//!    stanzas bridge the inside/outside domains into one segment the
//!    way a transparent firewall does, optionally filtering classes
//!    that cross from the outside domain in (`firewall acl-outside`).
//! 2. **L3**: every router gets a FIB of connected subnets, static
//!    routes (recursive next-hop resolution through covering routes,
//!    default routes included) and statically-converged RIP routes;
//!    destination classes are partitioned by longest-prefix match, so
//!    one probe can split and take several paths.
//! 3. **Policy**: `ip access-group` ACLs split classes rule by rule,
//!    first match wins, implicit deny — exactly the runtime semantics.
//!
//! Host pairs are the edge segments (a broadcast domain with hosts or a
//! stub router interface); every ordered pair of edge subnets is traced
//! and the traversal reports stable `RNL05xx` diagnostics, each with
//! the full hop path in the message:
//!
//! | code    | severity | meaning                                        |
//! |---------|----------|------------------------------------------------|
//! | RNL0501 | error    | forwarding loop (seen-set over `(device, class)`) |
//! | RNL0502 | error    | blackhole: routed class with no egress         |
//! | RNL0503 | warning  | host pair severed by an ACL or missing route   |
//! | RNL0504 | warning  | forward and return paths differ                |
//!
//! The same traversal feeds [`crate::cover`]: every route, ACL rule and
//! interface stanza that contributed to a delivered class (or blocked
//! one) is marked used; the rest is config no probe ever exercises.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use rnl_device::acl::{Action, AddrMatch, PortMatch, ProtoMatch, Rule};
use rnl_device::confparse::ParsedConfig;
use rnl_device::switch::PortMode;
use rnl_tunnel::msg::{PortId, RouterId};

use crate::cover::{CoverKey, CoverKind, Coverage};
use crate::diag::{Diagnostic, Report, Severity};
use crate::model::{AnalysisInput, DeviceKind};

/// Forwarding loop detected while tracing a class.
pub const FORWARDING_LOOP: &str = "RNL0501";
/// A routed class with no egress: no route at an intermediate hop, an
/// unresolvable next hop, or an unwired egress port.
pub const BLACKHOLE: &str = "RNL0502";
/// A host pair no class can cross, with the blocking line in the span.
pub const UNREACHABLE_PAIR: &str = "RNL0503";
/// Forward and return paths between a delivered host pair differ.
pub const ASYMMETRIC_PATH: &str = "RNL0504";

/// Traversal hop budget; device-repeat detection fires first on any
/// real loop, this only bounds pathological inputs.
const MAX_HOPS: usize = 32;

/// Catalog rows for the verify layer, merged into [`crate::catalog`].
pub fn catalog_rows() -> Vec<(&'static str, &'static str, Severity, &'static str)> {
    vec![
        (
            FORWARDING_LOOP,
            "verify",
            Severity::Error,
            "packet class loops between routers; the cycle is in the message",
        ),
        (
            BLACKHOLE,
            "verify",
            Severity::Error,
            "packet class is routed but has no egress (no route, unresolvable hop, or unwired port)",
        ),
        (
            UNREACHABLE_PAIR,
            "verify",
            Severity::Warning,
            "host pair is unreachable end to end; the blocking line is in the message",
        ),
        (
            ASYMMETRIC_PATH,
            "verify",
            Severity::Warning,
            "forward and return paths between a host pair differ",
        ),
    ]
}

// ---------------------------------------------------------------------
// Packet classes: prefix-pair sets with exact split/intersect algebra.
// ---------------------------------------------------------------------

/// One symbolic class: every ICMP packet from a source prefix to a
/// destination prefix. Prefixes are kept network-normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClassPart {
    pub src: (u32, u8),
    pub dst: (u32, u8),
}

fn norm(c: rnl_net::addr::Cidr) -> (u32, u8) {
    (u32::from(c.network()), c.prefix_len())
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

fn prefix_contains(p: (u32, u8), addr: u32) -> bool {
    (addr & mask(p.1)) == p.0
}

fn prefix_str(p: (u32, u8)) -> String {
    format!("{}/{}", Ipv4Addr::from(p.0), p.1)
}

/// Intersection of two prefixes: empty or the longer one.
fn intersect(a: (u32, u8), b: (u32, u8)) -> Option<(u32, u8)> {
    if a.1 >= b.1 {
        prefix_contains(b, a.0).then_some(a)
    } else {
        prefix_contains(a, b.0).then_some(b)
    }
}

/// The pieces of `a` not covered by `b`, where `b ⊆ a`. Equal prefixes
/// subtract to nothing; each refinement level contributes the sibling.
fn subtract(a: (u32, u8), b: (u32, u8)) -> Vec<(u32, u8)> {
    let mut out = Vec::new();
    for len in (a.1 + 1)..=b.1 {
        let bit = 1u32 << (32 - u32::from(len));
        out.push(((b.0 ^ bit) & mask(len), len));
    }
    out
}

// ---------------------------------------------------------------------
// ACL evaluation over classes.
// ---------------------------------------------------------------------

struct AclDecision {
    part: ClassPart,
    action: Action,
    /// Matching rule index; `None` is the implicit trailing deny.
    rule: Option<usize>,
}

/// Whether a rule can match ICMP probes at all (port matches imply
/// TCP/UDP semantics; TCP/UDP protocol matches never see a ping).
fn rule_sees_icmp(rule: &Rule) -> bool {
    matches!(rule.proto, ProtoMatch::Any | ProtoMatch::Icmp) && rule.dst_port == PortMatch::Any
}

fn addr_part(m: AddrMatch, within: (u32, u8)) -> Option<(u32, u8)> {
    match m {
        AddrMatch::Any => Some(within),
        AddrMatch::Net(n) => intersect(within, norm(n)),
    }
}

/// First-match-wins evaluation of a class against an ACL, splitting the
/// class wherever a rule matches only part of it.
fn acl_apply(rules: &[Rule], class: ClassPart) -> Vec<AclDecision> {
    let mut pending = vec![class];
    let mut out = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        if !rule_sees_icmp(rule) {
            continue;
        }
        let mut next = Vec::new();
        for part in pending {
            let (Some(s), Some(d)) = (addr_part(rule.src, part.src), addr_part(rule.dst, part.dst))
            else {
                next.push(part);
                continue;
            };
            out.push(AclDecision {
                part: ClassPart { src: s, dst: d },
                action: rule.action,
                rule: Some(i),
            });
            for rest in subtract(part.src, s) {
                next.push(ClassPart {
                    src: rest,
                    dst: part.dst,
                });
            }
            for rest in subtract(part.dst, d) {
                next.push(ClassPart { src: s, dst: rest });
            }
        }
        pending = next;
        if pending.is_empty() {
            break;
        }
    }
    for part in pending {
        out.push(AclDecision {
            part,
            action: Action::Deny,
            rule: None,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Topology compilation: endpoints, VLAN domains, segments, FIBs.
// ---------------------------------------------------------------------

type Endpoint = (RouterId, PortId);

/// What role a device plays in the forwarding model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Routes between interfaces (any config with an `ip address`).
    L3,
    /// Bridges its ports per VLAN (switchports, FWSM, or known switch).
    L2,
    /// Terminates frames (hosts, unknowns).
    Edge,
}

/// A transparent-firewall bridge between two VLAN domains.
struct Bridge {
    switch: RouterId,
    inside_domain: usize,
    outside_domain: usize,
    acl: Option<(u16, Vec<Rule>)>,
}

struct IfaceRef {
    device: RouterId,
    port: u16,
    subnet: (u32, u8),
    addr: u32,
    endpoint: usize,
}

#[derive(Default)]
struct Segment {
    ifaces: Vec<IfaceRef>,
    hosts: Vec<(RouterId, usize)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FibKind {
    Connected { port: u16 },
    Static { idx: usize, hop: u32 },
    Rip { hop: u32, port: u16, net_idx: usize },
}

struct FibRoute {
    prefix: (u32, u8),
    kind: FibKind,
}

struct Topo<'a> {
    input: &'a AnalysisInput,
    endpoints: Vec<Endpoint>,
    /// Endpoint index → VLAN broadcast-domain id (pre-FWSM).
    domain: Vec<usize>,
    /// Domain id → segment id (post-FWSM merge).
    seg_of_domain: BTreeMap<usize, usize>,
    segments: BTreeMap<usize, Segment>,
    bridges: Vec<Bridge>,
    fibs: BTreeMap<RouterId, Vec<FibRoute>>,
}

fn role_of(kind: DeviceKind, config: Option<&ParsedConfig>) -> Role {
    let switchy = kind == DeviceKind::Switch
        || config.is_some_and(|c| {
            c.fwsm.is_some() || c.interfaces.values().any(|i| i.switchport.is_some())
        });
    if switchy {
        return Role::L2;
    }
    if config.is_some_and(|c| c.interfaces.values().any(|i| i.ip.is_some())) {
        return Role::L3;
    }
    Role::Edge
}

/// The VLAN a switch port puts untagged frames in, plus trunkness.
fn port_vlan(config: Option<&ParsedConfig>, port: u16) -> (u16, bool) {
    match config
        .and_then(|c| c.interfaces.get(&port))
        .and_then(|i| i.switchport)
    {
        Some(PortMode::Access(v)) => (v, false),
        Some(PortMode::Trunk { native }) => (native, true),
        None => (1, false),
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

impl<'a> Topo<'a> {
    fn compile(input: &'a AnalysisInput) -> Topo<'a> {
        let mut endpoints: Vec<Endpoint> = Vec::new();
        let mut index: BTreeMap<Endpoint, usize> = BTreeMap::new();
        for (a, b) in &input.wires {
            for end in [a, b] {
                index.entry(*end).or_insert_with(|| {
                    endpoints.push(*end);
                    endpoints.len() - 1
                });
            }
        }
        let roles: BTreeMap<RouterId, Role> = input
            .devices
            .iter()
            .map(|d| (d.id, role_of(d.kind, d.config.as_ref())))
            .collect();

        // VLAN broadcast domains: wires join their two ends; an L2
        // device joins its own ports when their untagged VLANs agree
        // (trunks carry everything and merge with each other).
        let mut uf = UnionFind::new(endpoints.len());
        for (a, b) in &input.wires {
            if let (Some(&ia), Some(&ib)) = (index.get(a), index.get(b)) {
                uf.union(ia, ib);
            }
        }
        for dev in &input.devices {
            if roles.get(&dev.id) != Some(&Role::L2) {
                continue;
            }
            let ports: Vec<usize> = endpoints
                .iter()
                .enumerate()
                .filter(|(_, e)| e.0 == dev.id)
                .map(|(i, _)| i)
                .collect();
            for (n, &pi) in ports.iter().enumerate() {
                for &qi in &ports[n + 1..] {
                    let (va, ta) = port_vlan(dev.config.as_ref(), endpoints[pi].1 .0);
                    let (vb, tb) = port_vlan(dev.config.as_ref(), endpoints[qi].1 .0);
                    if va == vb || (ta && tb) {
                        uf.union(pi, qi);
                    }
                }
            }
        }
        let domain: Vec<usize> = (0..endpoints.len()).map(|i| uf.find(i)).collect();

        // FWSM vlan-pairs merge an inside and an outside domain into
        // one segment, remembering the crossing for acl-outside.
        let mut bridges = Vec::new();
        let mut seg_uf = UnionFind::new(endpoints.len());
        for dev in &input.devices {
            let Some(fwsm) = dev.config.as_ref().and_then(|c| c.fwsm.as_ref()) else {
                continue;
            };
            let domain_of_vlan = |vlan: u16| {
                endpoints
                    .iter()
                    .enumerate()
                    .find(|(_, e)| {
                        e.0 == dev.id && port_vlan(dev.config.as_ref(), e.1 .0).0 == vlan
                    })
                    .map(|(i, _)| domain[i])
            };
            if let (Some(din), Some(dout)) =
                (domain_of_vlan(fwsm.inside), domain_of_vlan(fwsm.outside))
            {
                seg_uf.union(din, dout);
                let acl = fwsm.outside_acl.and_then(|id| {
                    dev.config
                        .as_ref()
                        .and_then(|c| c.acls.get(&id))
                        .map(|rules| (id, rules.clone()))
                });
                bridges.push(Bridge {
                    switch: dev.id,
                    inside_domain: din,
                    outside_domain: dout,
                    acl,
                });
            }
        }
        let mut seg_of_domain = BTreeMap::new();
        for &d in &domain {
            let root = seg_uf.find(d);
            seg_of_domain.insert(d, root);
        }

        // Segment membership: router interfaces (L3 devices with an
        // address on a wired, not-shut port) and hosts.
        let mut segments: BTreeMap<usize, Segment> = BTreeMap::new();
        for (i, &(dev_id, port)) in endpoints.iter().enumerate() {
            let Some(&seg_id) = seg_of_domain.get(&domain[i]) else {
                continue;
            };
            let seg = segments.entry(seg_id).or_default();
            let device = input.device(dev_id);
            let role = roles.get(&dev_id).copied().unwrap_or(Role::Edge);
            match role {
                Role::L3 => {
                    let iface = device
                        .and_then(|d| d.config.as_ref())
                        .and_then(|c| c.interfaces.get(&port.0));
                    if let Some(iface) = iface {
                        if let (Some(ip), false) = (iface.ip, iface.shutdown) {
                            seg.ifaces.push(IfaceRef {
                                device: dev_id,
                                port: port.0,
                                subnet: norm(ip),
                                addr: u32::from(ip.addr()),
                                endpoint: i,
                            });
                        }
                    }
                }
                Role::Edge => {
                    if device.map(|d| d.kind) == Some(DeviceKind::Host) {
                        seg.hosts.push((dev_id, i));
                    }
                }
                Role::L2 => {}
            }
        }

        let fibs = compile_fibs(input, &roles, &segments);
        Topo {
            input,
            endpoints,
            domain,
            seg_of_domain,
            segments,
            bridges,
            fibs,
        }
    }

    fn segment_of_endpoint(&self, idx: usize) -> Option<usize> {
        self.seg_of_domain.get(&self.domain[idx]).copied()
    }

    fn endpoint_index(&self, dev: RouterId, port: u16) -> Option<usize> {
        self.endpoints
            .iter()
            .position(|&e| e == (dev, PortId(port)))
    }

    /// The FWSM ACL a class crossing `from` domain into `to` domain
    /// must pass, if the crossing enters a firewalled inside VLAN.
    fn crossing_acl(&self, from: usize, to: usize) -> Option<&Bridge> {
        if from == to {
            return None;
        }
        self.bridges
            .iter()
            .find(|b| b.acl.is_some() && b.outside_domain == from && b.inside_domain == to)
    }
}

/// Build every router's FIB: connected subnets, static routes, and
/// statically-converged RIP routes learned across shared segments.
fn compile_fibs(
    input: &AnalysisInput,
    roles: &BTreeMap<RouterId, Role>,
    segments: &BTreeMap<usize, Segment>,
) -> BTreeMap<RouterId, Vec<FibRoute>> {
    let mut fibs: BTreeMap<RouterId, Vec<FibRoute>> = BTreeMap::new();
    for dev in &input.devices {
        if roles.get(&dev.id) != Some(&Role::L3) {
            continue;
        }
        let Some(config) = dev.config.as_ref() else {
            continue;
        };
        let mut fib = Vec::new();
        for (&port, iface) in &config.interfaces {
            if let (Some(ip), false) = (iface.ip, iface.shutdown) {
                fib.push(FibRoute {
                    prefix: norm(ip),
                    kind: FibKind::Connected { port },
                });
            }
        }
        for (idx, (prefix, hop)) in config.static_routes.iter().enumerate() {
            fib.push(FibRoute {
                prefix: norm(*prefix),
                kind: FibKind::Static {
                    idx,
                    hop: u32::from(*hop),
                },
            });
        }
        fibs.insert(dev.id, fib);
    }

    // RIP: distance-vector fixpoint over segments. An interface speaks
    // RIP when a `network` stanza covers it; it advertises the
    // RIP-covered connected subnets plus everything it has learned.
    let rip_iface = |id: RouterId, port: u16| -> Option<usize> {
        let config = input.device(id)?.config.as_ref()?;
        if !config.rip_enabled {
            return None;
        }
        let ip = config.interfaces.get(&port)?.ip?;
        config
            .rip_networks
            .iter()
            .position(|n| n.contains(ip.addr()))
    };
    type RipTable = BTreeMap<(u32, u8), (u16, u32, u16, usize)>;
    let mut learned: BTreeMap<RouterId, RipTable> = BTreeMap::new();
    for _ in 0..input.devices.len() {
        let mut changed = false;
        for seg in segments.values() {
            for a in &seg.ifaces {
                let Some(net_idx) = rip_iface(a.device, a.port) else {
                    continue;
                };
                for b in &seg.ifaces {
                    if b.device == a.device || rip_iface(b.device, b.port).is_none() {
                        continue;
                    }
                    // What b advertises into this segment.
                    let mut offers: Vec<((u32, u8), u16)> = Vec::new();
                    if let Some(cfg) = input.device(b.device).and_then(|d| d.config.as_ref()) {
                        for iface in cfg.interfaces.values() {
                            if let Some(ip) = iface.ip {
                                if !iface.shutdown
                                    && cfg.rip_networks.iter().any(|n| n.contains(ip.addr()))
                                {
                                    offers.push((norm(ip), 1));
                                }
                            }
                        }
                    }
                    if let Some(table) = learned.get(&b.device) {
                        for (&prefix, &(metric, _, _, _)) in table {
                            if metric < 15 {
                                offers.push((prefix, metric + 1));
                            }
                        }
                    }
                    let table = learned.entry(a.device).or_default();
                    for (prefix, metric) in offers {
                        // Skip prefixes a is connected to itself.
                        let connected = input
                            .device(a.device)
                            .and_then(|d| d.config.as_ref())
                            .is_some_and(|c| {
                                c.interfaces
                                    .values()
                                    .any(|i| i.ip.is_some_and(|ip| norm(ip) == prefix))
                            });
                        if connected {
                            continue;
                        }
                        let better = table.get(&prefix).is_none_or(|&(m, _, _, _)| metric < m);
                        if better {
                            table.insert(prefix, (metric, b.addr, a.port, net_idx));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (dev, table) in learned {
        if let Some(fib) = fibs.get_mut(&dev) {
            for (prefix, (_, hop, port, net_idx)) in table {
                // Static routes beat RIP at the same prefix.
                if fib
                    .iter()
                    .any(|r| r.prefix == prefix && !matches!(r.kind, FibKind::Rip { .. }))
                {
                    continue;
                }
                fib.push(FibRoute {
                    prefix,
                    kind: FibKind::Rip { hop, port, net_idx },
                });
            }
        }
    }
    // Longest prefix first; connected beats static beats RIP on ties.
    for fib in fibs.values_mut() {
        fib.sort_by_key(|r| {
            let pri = match r.kind {
                FibKind::Connected { .. } => 0,
                FibKind::Static { .. } => 1,
                FibKind::Rip { .. } => 2,
            };
            (std::cmp::Reverse(r.prefix.1), pri)
        });
    }
    fibs
}

/// Prefix pieces of a destination claimed by a FIB route.
type ClaimedParts<'f> = Vec<((u32, u8), &'f FibRoute)>;

/// Longest-prefix-match partition of a destination prefix over a FIB:
/// claimed `(part, route)` pieces plus the uncovered remainder.
fn lpm_partition(fib: &[FibRoute], dst: (u32, u8)) -> (ClaimedParts<'_>, Vec<(u32, u8)>) {
    let mut unclaimed = vec![dst];
    let mut claimed = Vec::new();
    for route in fib {
        let mut rest = Vec::new();
        for part in unclaimed {
            match intersect(part, route.prefix) {
                Some(hit) => {
                    claimed.push((hit, route));
                    rest.extend(subtract(part, hit));
                }
                None => rest.push(part),
            }
        }
        unclaimed = rest;
        if unclaimed.is_empty() {
            break;
        }
    }
    (claimed, unclaimed)
}

// ---------------------------------------------------------------------
// Traversal.
// ---------------------------------------------------------------------

/// Outcome of tracing one ordered host pair (edge subnet → edge subnet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairOutcome {
    /// The gateway router of the source segment.
    pub src: RouterId,
    pub src_subnet: rnl_net::addr::Cidr,
    /// The gateway router of the destination segment.
    pub dst: RouterId,
    pub dst_subnet: rnl_net::addr::Cidr,
    /// Hosts attached to each side, when the design names them.
    pub src_hosts: Vec<RouterId>,
    pub dst_hosts: Vec<RouterId>,
    /// Whether any class of the pair is delivered end to end.
    pub delivered: bool,
    /// Device hop path of the first delivered class (or the path at the
    /// first block when nothing is delivered).
    pub path: Vec<RouterId>,
    /// `"delivered via r1 -> r2"` or the blocking reason.
    pub detail: String,
}

/// Everything the verifier produced for one design.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    pub report: Report,
    pub coverage: Coverage,
    pub pairs: Vec<PairOutcome>,
}

struct Flight {
    part: ClassPart,
    device: RouterId,
    in_port: Option<u16>,
    path: Vec<RouterId>,
    /// Stanzas this class has touched so far; committed on delivery.
    uses: BTreeSet<CoverKey>,
}

enum Blocked {
    Acl {
        reason: String,
        device: RouterId,
        port: Option<u16>,
        path: Vec<RouterId>,
    },
    Route {
        reason: String,
        path: Vec<RouterId>,
    },
}

struct Trace {
    delivered: Vec<(ClassPart, Vec<RouterId>)>,
    blocked: Vec<Blocked>,
    hard_error: bool,
}

struct Verifier<'a> {
    topo: Topo<'a>,
    diags: Vec<Diagnostic>,
    seen_messages: BTreeSet<(&'static str, String)>,
    used: BTreeSet<CoverKey>,
}

impl<'a> Verifier<'a> {
    fn push_diag(&mut self, d: Diagnostic) {
        if self.seen_messages.insert((d.code, d.message.clone())) {
            self.diags.push(d);
        }
    }

    fn config(&self, id: RouterId) -> Option<&'a ParsedConfig> {
        self.topo.input.device(id).and_then(|d| d.config.as_ref())
    }

    /// Apply one bound ACL to a class part; permitted parts keep
    /// flowing, denied ones are recorded. Deny rules are marked used
    /// immediately (they matched traffic); permits ride along in `uses`.
    #[allow(clippy::too_many_arguments)]
    fn apply_acl(
        &mut self,
        device: RouterId,
        acl_id: u16,
        rules: &[Rule],
        dir: &str,
        port: u16,
        part: ClassPart,
        uses: &BTreeSet<CoverKey>,
        path: &[RouterId],
        trace: &mut Trace,
    ) -> Vec<(ClassPart, BTreeSet<CoverKey>)> {
        let mut passed = Vec::new();
        for decision in acl_apply(rules, part) {
            match decision.action {
                Action::Permit => {
                    let mut uses = uses.clone();
                    if let Some(i) = decision.rule {
                        uses.insert(CoverKey::acl_rule(device, acl_id, i));
                    }
                    passed.push((decision.part, uses));
                }
                Action::Deny => {
                    let line = match decision.rule {
                        Some(i) => {
                            self.used.insert(CoverKey::acl_rule(device, acl_id, i));
                            rules
                                .get(i)
                                .map(|r| format!("`{}`", r.to_cli(acl_id)))
                                .unwrap_or_else(|| format!("access-list {acl_id}"))
                        }
                        None => format!("the implicit deny of access-list {acl_id}"),
                    };
                    trace.blocked.push(Blocked::Acl {
                        reason: format!(
                            "class {} -> {} denied by {line} ({dir} at {device}:p{port}); hop path {}",
                            prefix_str(decision.part.src),
                            prefix_str(decision.part.dst),
                            path_str(path),
                        ),
                        device,
                        port: Some(port),
                        path: path.to_vec(),
                    });
                }
            }
        }
        passed
    }

    /// FWSM bridge filtering for a frame moving between two endpoints
    /// of the same segment. Returns the surviving class parts.
    fn cross_bridge(
        &mut self,
        from_ep: usize,
        to_ep: usize,
        part: ClassPart,
        uses: &BTreeSet<CoverKey>,
        path: &[RouterId],
        trace: &mut Trace,
    ) -> Vec<(ClassPart, BTreeSet<CoverKey>)> {
        let from = self.topo.domain[from_ep];
        let to = self.topo.domain[to_ep];
        let Some(bridge) = self.topo.crossing_acl(from, to) else {
            return vec![(part, uses.clone())];
        };
        let switch = bridge.switch;
        let Some((acl_id, rules)) = bridge.acl.clone() else {
            return vec![(part, uses.clone())];
        };
        self.apply_acl(
            switch,
            acl_id,
            &rules,
            "fwsm outside",
            0,
            part,
            uses,
            path,
            trace,
        )
    }

    /// Trace one ordered pair of edge segments through the topology.
    fn trace_pair(&mut self, src_seg: usize, dst_seg: usize) -> Option<PairOutcome> {
        let (gw, dst_gw, src_subnet, dst_subnet, src_hosts, dst_hosts) = {
            let src = self.topo.segments.get(&src_seg)?;
            let dst = self.topo.segments.get(&dst_seg)?;
            let gw = src.ifaces.first()?;
            let dgw = dst.ifaces.first()?;
            (
                (gw.device, gw.port, gw.subnet),
                (dgw.device, dgw.subnet),
                gw.subnet,
                dgw.subnet,
                src.hosts.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
                dst.hosts.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            )
        };
        // Overlapping edge subnets make the probe ambiguous; skip.
        if intersect(src_subnet, dst_subnet).is_some() {
            return None;
        }
        let mut trace = Trace {
            delivered: Vec::new(),
            blocked: Vec::new(),
            hard_error: false,
        };
        let mut first_uses = BTreeSet::new();
        first_uses.insert(CoverKey {
            device: gw.0,
            kind: CoverKind::Interface,
            index: u32::from(gw.1),
        });
        let mut stack = vec![Flight {
            part: ClassPart {
                src: src_subnet,
                dst: dst_subnet,
            },
            device: gw.0,
            in_port: Some(gw.1),
            path: vec![gw.0],
            uses: first_uses,
        }];
        while let Some(flight) = stack.pop() {
            self.step(flight, dst_seg, &mut trace, &mut stack);
        }
        let delivered = !trace.delivered.is_empty();
        let (path, detail) = if let Some((part, path)) = trace.delivered.first() {
            (
                path.clone(),
                format!(
                    "delivered ({} -> {}) via {}",
                    prefix_str(part.src),
                    prefix_str(part.dst),
                    path_str(path)
                ),
            )
        } else if let Some(block) = trace.blocked.first() {
            match block {
                Blocked::Acl { reason, path, .. } | Blocked::Route { reason, path } => {
                    (path.clone(), reason.clone())
                }
            }
        } else {
            (vec![gw.0], "no class traced".to_string())
        };
        // RNL0503: the whole pair is severed. Skip when a loop or
        // blackhole error already explains it.
        if !delivered && !trace.hard_error {
            if let Some(block) = trace.blocked.first() {
                let (reason, span_dev, span_port) = match block {
                    Blocked::Acl {
                        reason,
                        device,
                        port,
                        ..
                    } => (reason.clone(), Some(*device), *port),
                    Blocked::Route { reason, .. } => (reason.clone(), None, None),
                };
                let mut d = Diagnostic::new(
                    UNREACHABLE_PAIR,
                    Severity::Warning,
                    format!(
                        "hosts on {} cannot reach hosts on {}: {reason}",
                        prefix_str(src_subnet),
                        prefix_str(dst_subnet),
                    ),
                );
                if let Some(dev) = span_dev {
                    d = match span_port {
                        Some(p) => d.at(dev, PortId(p)),
                        None => d.on(dev),
                    };
                }
                self.push_diag(d);
            }
        }
        Some(PairOutcome {
            src: gw.0,
            src_subnet: cidr_of(src_subnet),
            dst: dst_gw.0,
            dst_subnet: cidr_of(dst_subnet),
            src_hosts,
            dst_hosts,
            delivered,
            path,
            detail,
        })
    }

    /// One routing step: the class (or its surviving parts) moves
    /// through device `flight.device`.
    fn step(&mut self, flight: Flight, dst_seg: usize, trace: &mut Trace, stack: &mut Vec<Flight>) {
        let Flight {
            part,
            device,
            in_port,
            path,
            uses,
        } = flight;
        if path.len() > MAX_HOPS {
            return;
        }
        let Some(config) = self.config(device) else {
            return;
        };

        // Inbound ACL.
        let mut parts = vec![(part, uses)];
        if let Some(port) = in_port {
            let acl_in = config.interfaces.get(&port).and_then(|i| i.acl_in);
            if let Some(acl_id) = acl_in {
                if let Some(rules) = config.acls.get(&acl_id).cloned() {
                    let mut passed = Vec::new();
                    for (p, u) in parts {
                        passed.extend(
                            self.apply_acl(device, acl_id, &rules, "in", port, p, &u, &path, trace),
                        );
                    }
                    parts = passed;
                }
            }
        }

        for (p, u) in parts {
            // Collect claims eagerly: route decisions borrow the fib,
            // and diagnostics need `&mut self`.
            struct Claim {
                dst: (u32, u8),
                kind: FibKind,
                key: Option<CoverKey>,
            }
            let fib = self
                .topo
                .fibs
                .get(&device)
                .map_or(&[][..], |f| f.as_slice());
            let (claimed, unrouted) = lpm_partition(fib, p.dst);
            let claims: Vec<Claim> = claimed
                .into_iter()
                .map(|(dst, route)| Claim {
                    dst,
                    kind: route.kind,
                    key: match route.kind {
                        FibKind::Connected { .. } => None,
                        FibKind::Static { idx, .. } => Some(CoverKey {
                            device,
                            kind: CoverKind::StaticRoute,
                            index: idx as u32,
                        }),
                        FibKind::Rip { net_idx, .. } => Some(CoverKey {
                            device,
                            kind: CoverKind::RipNetwork,
                            index: net_idx as u32,
                        }),
                    },
                })
                .collect();
            for dead in unrouted {
                if path.len() > 1 {
                    // Someone routed the class here: a real blackhole.
                    trace.hard_error = true;
                    self.push_diag(
                        Diagnostic::new(
                            BLACKHOLE,
                            Severity::Error,
                            format!(
                                "class for {} is forwarded to {device}, which has no route for it; hop path {}",
                                prefix_str(dead),
                                path_str(&path)
                            ),
                        )
                        .on(device),
                    );
                }
                trace.blocked.push(Blocked::Route {
                    reason: format!(
                        "destination {} has no route at {device}; hop path {}",
                        prefix_str(dead),
                        path_str(&path)
                    ),
                    path: path.clone(),
                });
            }
            for claim in claims {
                let sub = ClassPart {
                    src: p.src,
                    dst: claim.dst,
                };
                let mut u = u.clone();
                if let Some(key) = claim.key {
                    u.insert(key);
                }
                self.forward(
                    device, config, claim.kind, sub, u, &path, dst_seg, trace, stack,
                );
            }
        }
    }

    /// Resolve a route decision to an egress port + next hop, apply the
    /// outbound ACL, cross the wire/segment, and either deliver or
    /// queue the next router.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &mut self,
        device: RouterId,
        config: &ParsedConfig,
        kind: FibKind,
        part: ClassPart,
        mut uses: BTreeSet<CoverKey>,
        path: &[RouterId],
        dst_seg: usize,
        trace: &mut Trace,
        stack: &mut Vec<Flight>,
    ) {
        // Resolve egress port and the on-link hop to ARP for.
        let (egress, arp): (u16, Option<u32>) = match kind {
            FibKind::Connected { port } => (port, None),
            FibKind::Rip { hop, port, .. } => (port, Some(hop)),
            FibKind::Static { hop, idx } => {
                match config.interface_facing(Ipv4Addr::from(hop)) {
                    Some(port) => (port, Some(hop)),
                    None => {
                        // Recursive resolution through a covering route
                        // (commonly the default route).
                        let via = config
                            .static_routes
                            .iter()
                            .enumerate()
                            .filter(|&(i, (prefix, _))| {
                                i != idx && prefix.contains(Ipv4Addr::from(hop))
                            })
                            .max_by_key(|(_, (prefix, _))| prefix.prefix_len())
                            .and_then(|(i, (_, hop2))| {
                                config.interface_facing(*hop2).map(|port| (i, *hop2, port))
                            });
                        match via {
                            Some((i, hop2, port)) => {
                                uses.insert(CoverKey {
                                    device,
                                    kind: CoverKind::StaticRoute,
                                    index: i as u32,
                                });
                                (port, Some(u32::from(hop2)))
                            }
                            None => {
                                trace.hard_error = true;
                                self.push_diag(
                                    Diagnostic::new(
                                        BLACKHOLE,
                                        Severity::Error,
                                        format!(
                                            "route for {} points at next hop {}, which no connected subnet or covering route resolves; hop path {}",
                                            prefix_str(part.dst),
                                            Ipv4Addr::from(hop),
                                            path_str(path)
                                        ),
                                    )
                                    .on(device),
                                );
                                trace.blocked.push(Blocked::Route {
                                    reason: format!(
                                        "next hop {} unresolvable at {device}",
                                        Ipv4Addr::from(hop)
                                    ),
                                    path: path.to_vec(),
                                });
                                return;
                            }
                        }
                    }
                }
            }
        };
        uses.insert(CoverKey {
            device,
            kind: CoverKind::Interface,
            index: u32::from(egress),
        });

        let Some(egress_ep) = self.topo.endpoint_index(device, egress) else {
            trace.hard_error = true;
            self.push_diag(
                Diagnostic::new(
                    BLACKHOLE,
                    Severity::Error,
                    format!(
                        "class for {} routes out {device}:p{egress}, but that port is not wired; hop path {}",
                        prefix_str(part.dst),
                        path_str(path)
                    ),
                )
                .at(device, PortId(egress)),
            );
            trace.blocked.push(Blocked::Route {
                reason: format!("egress port {device}:p{egress} is not wired"),
                path: path.to_vec(),
            });
            return;
        };

        // Outbound ACL.
        let mut parts = vec![(part, uses)];
        if let Some(acl_id) = config.interfaces.get(&egress).and_then(|i| i.acl_out) {
            if let Some(rules) = config.acls.get(&acl_id).cloned() {
                let mut passed = Vec::new();
                for (p, u) in parts {
                    passed.extend(
                        self.apply_acl(device, acl_id, &rules, "out", egress, p, &u, path, trace),
                    );
                }
                parts = passed;
            }
        }

        let Some(seg) = self.topo.segment_of_endpoint(egress_ep) else {
            return;
        };
        for (p, u) in parts {
            match arp {
                None => {
                    // Connected delivery: the destination network must
                    // live on this segment.
                    if seg != dst_seg {
                        trace.hard_error = true;
                        self.push_diag(
                            Diagnostic::new(
                                BLACKHOLE,
                                Severity::Error,
                                format!(
                                    "class for {} is switched onto the segment at {device}:p{egress}, but the destination network is not there; hop path {}",
                                    prefix_str(p.dst),
                                    path_str(path)
                                ),
                            )
                            .at(device, PortId(egress)),
                        );
                        trace.blocked.push(Blocked::Route {
                            reason: format!(
                                "destination network absent on the segment at {device}:p{egress}"
                            ),
                            path: path.to_vec(),
                        });
                        continue;
                    }
                    // Cross any transparent firewall toward the hosts.
                    let host_eps: Vec<usize> = self
                        .topo
                        .segments
                        .get(&seg)
                        .map(|s| s.hosts.iter().map(|&(_, ep)| ep).collect())
                        .unwrap_or_default();
                    let targets = if host_eps.is_empty() {
                        vec![egress_ep]
                    } else {
                        host_eps
                    };
                    let mut any = false;
                    for target in targets {
                        let survived = self.cross_bridge(egress_ep, target, p, &u, path, trace);
                        for (sp, su) in survived {
                            any = true;
                            self.used.extend(su.iter().copied());
                            trace.delivered.push((sp, path.to_vec()));
                        }
                        if any {
                            break;
                        }
                    }
                }
                Some(hop) => {
                    let owner = self.topo.segments.get(&seg).and_then(|s| {
                        s.ifaces
                            .iter()
                            .find(|i| i.addr == hop)
                            .map(|i| (i.device, i.port, i.endpoint))
                    });
                    let Some((next_dev, next_port, next_ep)) = owner else {
                        trace.hard_error = true;
                        self.push_diag(
                            Diagnostic::new(
                                BLACKHOLE,
                                Severity::Error,
                                format!(
                                    "class for {} routes toward next hop {}, but no device on the segment at {device}:p{egress} owns that address; hop path {}",
                                    prefix_str(p.dst),
                                    Ipv4Addr::from(hop),
                                    path_str(path)
                                ),
                            )
                            .at(device, PortId(egress)),
                        );
                        trace.blocked.push(Blocked::Route {
                            reason: format!(
                                "next hop {} answers on no segment device",
                                Ipv4Addr::from(hop)
                            ),
                            path: path.to_vec(),
                        });
                        continue;
                    };
                    for (sp, su) in self.cross_bridge(egress_ep, next_ep, p, &u, path, trace) {
                        if path.contains(&next_dev) {
                            trace.hard_error = true;
                            let mut cycle = path.to_vec();
                            cycle.push(next_dev);
                            self.push_diag(
                                Diagnostic::new(
                                    FORWARDING_LOOP,
                                    Severity::Error,
                                    format!(
                                        "forwarding loop for destination {}: {}",
                                        prefix_str(sp.dst),
                                        path_str(&cycle)
                                    ),
                                )
                                .on(next_dev),
                            );
                            continue;
                        }
                        let mut next_path = path.to_vec();
                        next_path.push(next_dev);
                        stack.push(Flight {
                            part: sp,
                            device: next_dev,
                            in_port: Some(next_port),
                            path: next_path,
                            uses: su,
                        });
                    }
                }
            }
        }
    }
}

fn path_str(path: &[RouterId]) -> String {
    path.iter()
        .map(|r| format!("{r}"))
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn cidr_of(p: (u32, u8)) -> Cidr {
    // `min(32)` makes the constructor infallible; the Err arm is dead.
    match Cidr::new(Ipv4Addr::from(p.0), p.1.min(32)) {
        Ok(c) => c,
        Err(_) => cidr_of((0, 0)),
    }
}

use rnl_net::addr::Cidr;

/// Run the verifier over one design.
pub fn verify(input: &AnalysisInput) -> VerifyOutcome {
    let topo = Topo::compile(input);
    let mut coverage = Coverage::enumerate(input);

    // Edge segments: hosts attached, or a stub network (exactly one
    // router interface). Transit segments between routers are interior.
    let edge_segs: Vec<usize> = topo
        .segments
        .iter()
        .filter(|(_, seg)| {
            !seg.ifaces.is_empty() && (!seg.hosts.is_empty() || seg.ifaces.len() == 1)
        })
        .map(|(&id, _)| id)
        .collect();

    let mut verifier = Verifier {
        topo,
        diags: Vec::new(),
        seen_messages: BTreeSet::new(),
        used: BTreeSet::new(),
    };
    let mut pairs = Vec::new();
    let mut outcome_index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for &src in &edge_segs {
        for &dst in &edge_segs {
            if src == dst {
                continue;
            }
            if let Some(outcome) = verifier.trace_pair(src, dst) {
                outcome_index.insert((src, dst), pairs.len());
                pairs.push(outcome);
            }
        }
    }

    // RNL0504: both directions delivered but over different router
    // sequences.
    for (&(a, b), &i) in &outcome_index {
        if a >= b {
            continue;
        }
        let Some(&j) = outcome_index.get(&(b, a)) else {
            continue;
        };
        let (fwd, ret) = (&pairs[i], &pairs[j]);
        if fwd.delivered && ret.delivered {
            let mut reversed = ret.path.clone();
            reversed.reverse();
            if fwd.path != reversed {
                verifier.push_diag(
                    Diagnostic::new(
                        ASYMMETRIC_PATH,
                        Severity::Warning,
                        format!(
                            "asymmetric paths between {} and {}: forward {} but return {}",
                            fwd.src_subnet,
                            fwd.dst_subnet,
                            path_str(&fwd.path),
                            path_str(&ret.path)
                        ),
                    )
                    .on(fwd.src),
                );
            }
        }
    }

    let used = std::mem::take(&mut verifier.used);
    coverage.mark(&used);
    VerifyOutcome {
        report: Report {
            design: input.design.clone(),
            diagnostics: verifier.diags,
        },
        coverage,
        pairs,
    }
}
