//! # rnl-lint — pre-deploy static analysis for Remote Network Labs
//!
//! The paper's users reserve real hardware, deploy, and only then
//! discover that a VLAN trunk was mismatched or an ACL rule shadowed.
//! This crate shifts that cost left: [`analyze`] runs a registry of
//! checks ([`checks::REGISTRY`]) over a design's wiring plus whatever
//! the caller knows about each device — inventory kind and port count,
//! and the §2.1 auto-dumped config text parsed by
//! `rnl_device::confparse` — and reports findings with stable `RNL0xxx`
//! codes, severities, and `device:port` spans, in both human text and
//! machine-readable JSON.
//!
//! The crate has no third-party dependencies and does not depend on
//! `rnl-server`; the server converts its `Design` + `Inventory` into an
//! [`AnalysisInput`] to gate deploys, and the `rnl-lint` CLI builds one
//! from an exported design JSON offline.

#![deny(unsafe_code)]

pub mod checks;
pub mod cover;
pub mod diag;
pub mod model;
pub mod verify;

pub use checks::{CheckDef, Layer, REGISTRY};
pub use cover::{CoverItem, CoverKey, CoverKind, Coverage};
pub use diag::{Diagnostic, Report, Severity};
pub use model::{AnalysisInput, DeviceInput, DeviceKind};
pub use verify::{verify, PairOutcome, VerifyOutcome};

/// Run every registered check over the input.
pub fn analyze(input: &AnalysisInput) -> Report {
    let mut diagnostics = Vec::new();
    for check in REGISTRY {
        (check.run)(input, &mut diagnostics);
    }
    Report {
        design: input.design.clone(),
        diagnostics,
    }
}

/// The check catalog as (code, layer, severity, summary) rows — what
/// `rnl-lint --catalog` prints and DESIGN.md documents. Includes the
/// verifier's RNL05xx codes after the static-check registry.
pub fn catalog() -> Vec<(&'static str, &'static str, Severity, &'static str)> {
    let mut rows: Vec<_> = REGISTRY
        .iter()
        .map(|c| (c.code, c.layer.label(), c.severity, c.summary))
        .collect();
    rows.extend(verify::catalog_rows());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_device::acl::{Action, AddrMatch, PortMatch, ProtoMatch, Rule};
    use rnl_device::confparse::{FwsmConfig, InterfaceConfig, ParsedConfig};
    use rnl_device::switch::PortMode;
    use rnl_net::addr::MacAddr;
    use rnl_tunnel::msg::{PortId, RouterId};

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    fn p(n: u16) -> PortId {
        PortId(n)
    }

    fn wire(a: (u32, u16), b: (u32, u16)) -> ((RouterId, PortId), (RouterId, PortId)) {
        ((r(a.0), p(a.1)), (r(b.0), p(b.1)))
    }

    fn dev(id: u32, kind: DeviceKind) -> DeviceInput {
        DeviceInput {
            kind,
            ..DeviceInput::bare(r(id))
        }
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn iface(ip: &str) -> InterfaceConfig {
        InterfaceConfig {
            ip: Some(ip.parse().unwrap()),
            ..InterfaceConfig::default()
        }
    }

    #[test]
    fn registry_reports_at_least_twelve_distinct_codes() {
        let mut codes: Vec<&str> = REGISTRY.iter().map(|c| c.code).collect();
        codes.sort();
        codes.dedup();
        assert!(codes.len() >= 12, "only {} codes: {codes:?}", codes.len());
        assert!(codes.iter().all(|c| c.starts_with("RNL0")), "{codes:?}");
        // Every layer is represented.
        for layer in [Layer::Graph, Layer::L2, Layer::L3, Layer::Policy] {
            assert!(REGISTRY.iter().any(|c| c.layer == layer));
        }
        // The verifier's RNL05xx rows ride along in the catalog.
        assert_eq!(
            catalog().len(),
            REGISTRY.len() + verify::catalog_rows().len()
        );
        assert!(catalog()
            .iter()
            .any(|(code, layer, _, _)| { *code == verify::FORWARDING_LOOP && *layer == "verify" }));
    }

    #[test]
    fn empty_design_is_clean() {
        let report = analyze(&AnalysisInput::default());
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn rnl0001_notes_missing_configs_but_not_for_hosts() {
        let input = AnalysisInput {
            devices: vec![dev(1, DeviceKind::Router), dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        assert_eq!(codes(&report), vec![checks::CONFIG_MISSING]);
        assert_eq!(report.diagnostics[0].device, Some(r(1)));
        assert_eq!(report.diagnostics[0].severity, Severity::Info);
    }

    #[test]
    fn rnl0101_flags_isolated_devices() {
        let input = AnalysisInput {
            devices: vec![
                dev(1, DeviceKind::Host),
                dev(2, DeviceKind::Host),
                dev(3, DeviceKind::Host),
            ],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        let isolated: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == checks::ISOLATED_DEVICE)
            .collect();
        assert_eq!(isolated.len(), 1);
        assert_eq!(isolated[0].device, Some(r(3)));
    }

    #[test]
    fn rnl0102_flags_host_to_host_wires() {
        let input = AnalysisInput {
            devices: vec![dev(1, DeviceKind::Host), dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::HOST_TO_HOST_WIRE));
        // A host-to-switch wire is fine.
        let input = AnalysisInput {
            devices: vec![dev(1, DeviceKind::Host), dev(2, DeviceKind::Switch)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::HOST_TO_HOST_WIRE));
    }

    #[test]
    fn rnl0103_flags_designs_larger_than_the_inventory() {
        let input = AnalysisInput {
            devices: vec![dev(1, DeviceKind::Host), dev(2, DeviceKind::Host)],
            inventory_capacity: Some(1),
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        assert!(codes(&report).contains(&checks::CAPACITY_EXCEEDED));
        assert!(report.has_errors());
    }

    #[test]
    fn rnl0104_flags_out_of_range_ports() {
        let mut two_port = dev(1, DeviceKind::Router);
        two_port.ports = Some(2);
        let input = AnalysisInput {
            devices: vec![two_port, dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 5), (2, 0))],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.code == checks::PORT_OUT_OF_RANGE)
            .expect("port range finding");
        assert_eq!((hit.device, hit.port), (Some(r(1)), Some(p(5))));
        assert_eq!(hit.severity, Severity::Error);
    }

    fn switch_with_port(id: u32, port: u16, mode: PortMode) -> DeviceInput {
        let mut config = ParsedConfig::default();
        config.interfaces.insert(
            port,
            InterfaceConfig {
                switchport: Some(mode),
                ..InterfaceConfig::default()
            },
        );
        DeviceInput {
            config: Some(config),
            ..dev(id, DeviceKind::Switch)
        }
    }

    #[test]
    fn rnl0201_flags_vlan_mismatch_across_a_wire() {
        let input = AnalysisInput {
            devices: vec![
                switch_with_port(1, 0, PortMode::Access(10)),
                switch_with_port(2, 0, PortMode::Access(20)),
            ],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::VLAN_MISMATCH));
        // Access 10 ↔ trunk with native 10: untagged traffic agrees.
        let input = AnalysisInput {
            devices: vec![
                switch_with_port(1, 0, PortMode::Access(10)),
                switch_with_port(2, 0, PortMode::Trunk { native: 10 }),
            ],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::VLAN_MISMATCH));
    }

    #[test]
    fn rnl0202_flags_duplicate_macs() {
        let mac = MacAddr::derived(7, 0);
        let mut a = dev(1, DeviceKind::Host);
        a.macs = vec![mac];
        let mut b = dev(2, DeviceKind::Host);
        b.macs = vec![mac, MacAddr::derived(8, 0)];
        let input = AnalysisInput {
            devices: vec![a, b],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        let dups: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == checks::DUPLICATE_MAC)
            .collect();
        assert_eq!(dups.len(), 1, "{}", report.render());
    }

    fn stp_off_switch(id: u32) -> DeviceInput {
        let config = ParsedConfig {
            stp_enabled: false,
            ..ParsedConfig::default()
        };
        DeviceInput {
            config: Some(config),
            ..dev(id, DeviceKind::Switch)
        }
    }

    #[test]
    fn rnl0203_flags_switch_loops_with_no_spanning_tree() {
        // Triangle of switches, all with `no spanning-tree`.
        let input = AnalysisInput {
            devices: vec![stp_off_switch(1), stp_off_switch(2), stp_off_switch(3)],
            wires: vec![
                wire((1, 0), (2, 0)),
                wire((2, 1), (3, 0)),
                wire((3, 1), (1, 1)),
            ],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::STP_LOOP_RISK));
        // Same triangle but one switch left at the STP-on default: the
        // loop will be blocked, no finding.
        let input = AnalysisInput {
            devices: vec![
                stp_off_switch(1),
                stp_off_switch(2),
                dev(3, DeviceKind::Switch),
            ],
            wires: vec![
                wire((1, 0), (2, 0)),
                wire((2, 1), (3, 0)),
                wire((3, 1), (1, 1)),
            ],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::STP_LOOP_RISK));
        // A tree of STP-less switches has no loop, no finding.
        let input = AnalysisInput {
            devices: vec![stp_off_switch(1), stp_off_switch(2), stp_off_switch(3)],
            wires: vec![wire((1, 0), (2, 0)), wire((2, 1), (3, 0))],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::STP_LOOP_RISK));
    }

    fn router_with_if(id: u32, port: u16, ip: &str) -> DeviceInput {
        let mut config = ParsedConfig::default();
        config.interfaces.insert(port, iface(ip));
        DeviceInput {
            config: Some(config),
            ..dev(id, DeviceKind::Router)
        }
    }

    #[test]
    fn rnl0301_flags_subnet_mismatch_across_a_wire() {
        let input = AnalysisInput {
            devices: vec![
                router_with_if(1, 0, "192.168.12.1/24"),
                router_with_if(2, 0, "192.168.99.2/24"),
            ],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::SUBNET_MISMATCH));
        let input = AnalysisInput {
            devices: vec![
                router_with_if(1, 0, "192.168.12.1/24"),
                router_with_if(2, 0, "192.168.12.2/24"),
            ],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::SUBNET_MISMATCH));
    }

    #[test]
    fn rnl0302_flags_duplicate_ips_as_errors() {
        let input = AnalysisInput {
            devices: vec![
                router_with_if(1, 0, "10.0.0.1/24"),
                router_with_if(2, 0, "10.0.0.1/24"),
            ],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        assert!(codes(&report).contains(&checks::DUPLICATE_IP));
        assert!(report.has_errors());
    }

    #[test]
    fn rnl0303_flags_rip_networks_covering_no_interface() {
        let mut config = ParsedConfig {
            rip_enabled: true,
            rip_networks: vec!["172.16.0.0/16".parse().unwrap()],
            ..ParsedConfig::default()
        };
        config.interfaces.insert(0, iface("10.0.0.1/24"));
        let input = AnalysisInput {
            devices: vec![DeviceInput {
                config: Some(config),
                ..dev(1, DeviceKind::Router)
            }],
            wires: vec![],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::RIP_NO_INTERFACE));
    }

    #[test]
    fn rnl0304_flags_unreachable_next_hops() {
        // Next hop on no local subnet.
        let mut config = ParsedConfig::default();
        config.interfaces.insert(0, iface("10.0.0.1/24"));
        config.static_routes.push((
            "10.2.0.0/16".parse().unwrap(),
            "172.16.0.9".parse().unwrap(),
        ));
        let strange_hop = DeviceInput {
            config: Some(config),
            ..dev(1, DeviceKind::Router)
        };
        let input = AnalysisInput {
            devices: vec![strange_hop, dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::NEXT_HOP_UNREACHABLE));

        // Next hop on a local subnet whose port is unwired.
        let mut config = ParsedConfig::default();
        config.interfaces.insert(0, iface("10.0.0.1/24"));
        config.interfaces.insert(1, iface("192.168.1.1/24"));
        config.static_routes.push((
            "10.2.0.0/16".parse().unwrap(),
            "192.168.1.2".parse().unwrap(),
        ));
        let unwired = DeviceInput {
            config: Some(config),
            ..dev(1, DeviceKind::Router)
        };
        let input = AnalysisInput {
            devices: vec![unwired, dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))], // port 1 not wired
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.code == checks::NEXT_HOP_UNREACHABLE)
            .expect("unwired next-hop finding");
        assert_eq!(hit.port, Some(p(1)));

        // Wired and on-subnet: clean.
        let mut config = ParsedConfig::default();
        config.interfaces.insert(0, iface("10.0.0.1/24"));
        config
            .static_routes
            .push(("10.2.0.0/16".parse().unwrap(), "10.0.0.2".parse().unwrap()));
        let fine = DeviceInput {
            config: Some(config),
            ..dev(1, DeviceKind::Router)
        };
        let input = AnalysisInput {
            devices: vec![fine, dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::NEXT_HOP_UNREACHABLE));
    }

    #[test]
    fn rnl0304_accepts_next_hops_resolved_through_a_default_route() {
        // Next hop off-subnet, but a default route points at a connected
        // gateway: IOS resolves it recursively, so no finding.
        let mut config = ParsedConfig::default();
        config.interfaces.insert(0, iface("10.0.0.1/24"));
        config.static_routes.push((
            "10.2.0.0/16".parse().unwrap(),
            "172.16.0.9".parse().unwrap(),
        ));
        config
            .static_routes
            .push(("0.0.0.0/0".parse().unwrap(), "10.0.0.254".parse().unwrap()));
        let device = DeviceInput {
            config: Some(config),
            ..dev(1, DeviceKind::Router)
        };
        let input = AnalysisInput {
            devices: vec![device, dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        assert!(
            !codes(&analyze(&input)).contains(&checks::NEXT_HOP_UNREACHABLE),
            "{}",
            analyze(&input).render()
        );

        // A default route whose own hop is off-subnet does not rescue it.
        let mut config = ParsedConfig::default();
        config.interfaces.insert(0, iface("10.0.0.1/24"));
        config.static_routes.push((
            "10.2.0.0/16".parse().unwrap(),
            "172.16.0.9".parse().unwrap(),
        ));
        config
            .static_routes
            .push(("0.0.0.0/0".parse().unwrap(), "192.168.5.1".parse().unwrap()));
        let device = DeviceInput {
            config: Some(config),
            ..dev(1, DeviceKind::Router)
        };
        let input = AnalysisInput {
            devices: vec![device, dev(2, DeviceKind::Host)],
            wires: vec![wire((1, 0), (2, 0))],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        // Both the /16 and the default route itself are unresolvable.
        assert_eq!(
            codes(&report)
                .iter()
                .filter(|&&c| c == checks::NEXT_HOP_UNREACHABLE)
                .count(),
            2,
            "{}",
            report.render()
        );
    }

    fn acl_device(id: u32, acl_id: u16, rules: Vec<Rule>) -> DeviceInput {
        let mut config = ParsedConfig::default();
        config.acls.insert(acl_id, rules);
        DeviceInput {
            config: Some(config),
            ..dev(id, DeviceKind::Router)
        }
    }

    #[test]
    fn rnl0401_flags_shadowed_rules() {
        // permit ip any any followed by a narrower deny: shadowed.
        let input = AnalysisInput {
            devices: vec![acl_device(
                1,
                101,
                vec![
                    Rule::permit_any(),
                    Rule::deny_net_to_net(
                        "10.1.0.0/16".parse().unwrap(),
                        "10.2.0.0/16".parse().unwrap(),
                    ),
                ],
            )],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::SHADOWED_ACL_RULE));
        // The correct order (specific first) is clean.
        let input = AnalysisInput {
            devices: vec![acl_device(
                1,
                101,
                vec![
                    Rule::deny_net_to_net(
                        "10.1.0.0/16".parse().unwrap(),
                        "10.2.0.0/16".parse().unwrap(),
                    ),
                    Rule::permit_any(),
                ],
            )],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::SHADOWED_ACL_RULE));
    }

    #[test]
    fn rnl0401_subsumption_respects_prefix_containment() {
        // /24 deny after a /16 deny of a containing prefix: shadowed.
        let covering = Rule::deny_net_to_net(
            "10.1.0.0/16".parse().unwrap(),
            "10.2.0.0/16".parse().unwrap(),
        );
        let covered = Rule::deny_net_to_net(
            "10.1.3.0/24".parse().unwrap(),
            "10.2.0.0/16".parse().unwrap(),
        );
        let input = AnalysisInput {
            devices: vec![acl_device(1, 101, vec![covering, covered])],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::SHADOWED_ACL_RULE));
        // Sibling /24s do not shadow each other.
        let a = Rule::deny_net_to_net(
            "10.1.0.0/24".parse().unwrap(),
            "10.2.0.0/16".parse().unwrap(),
        );
        let b = Rule::deny_net_to_net(
            "10.9.0.0/24".parse().unwrap(),
            "10.2.0.0/16".parse().unwrap(),
        );
        let input = AnalysisInput {
            devices: vec![acl_device(1, 101, vec![a, b])],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&checks::SHADOWED_ACL_RULE));
    }

    #[test]
    fn rnl0402_flags_undefined_acl_references() {
        let mut config = ParsedConfig::default();
        config.interfaces.insert(
            1,
            InterfaceConfig {
                acl_out: Some(102),
                ..InterfaceConfig::default()
            },
        );
        let input = AnalysisInput {
            devices: vec![DeviceInput {
                config: Some(config),
                ..dev(1, DeviceKind::Router)
            }],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.code == checks::UNDEFINED_ACL_REF)
            .expect("undefined acl finding");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.port, Some(p(1)));
    }

    #[test]
    fn rnl0402_flags_interface_sections_beyond_the_port_count() {
        let mut config = ParsedConfig::default();
        config.interfaces.insert(7, iface("10.0.0.1/24"));
        let mut device = DeviceInput {
            config: Some(config),
            ..dev(1, DeviceKind::Router)
        };
        device.ports = Some(2);
        let input = AnalysisInput {
            devices: vec![device],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&checks::UNDEFINED_ACL_REF));
    }

    #[test]
    fn rnl0403_flags_contradictory_rules() {
        let deny = Rule::deny_net_to_net(
            "10.1.0.0/16".parse().unwrap(),
            "10.2.0.0/16".parse().unwrap(),
        );
        let permit = Rule {
            action: Action::Permit,
            ..deny
        };
        let input = AnalysisInput {
            devices: vec![acl_device(1, 150, vec![deny, permit])],
            ..AnalysisInput::default()
        };
        let report = analyze(&input);
        assert!(codes(&report).contains(&checks::CONTRADICTORY_RULES));
        // The exact-opposite pair is a contradiction, not a shadow.
        assert!(!codes(&report).contains(&checks::SHADOWED_ACL_RULE));
    }

    #[test]
    fn rnl0404_flags_fwsm_without_bpdu_forward() {
        let make = |bpdu: bool| {
            let config = ParsedConfig {
                fwsm: Some(FwsmConfig {
                    inside: 20,
                    outside: 30,
                    bpdu_forward: bpdu,
                    outside_acl: None,
                    failover_vlan: None,
                }),
                ..ParsedConfig::default()
            };
            AnalysisInput {
                devices: vec![DeviceInput {
                    config: Some(config),
                    ..dev(1, DeviceKind::Switch)
                }],
                ..AnalysisInput::default()
            }
        };
        assert!(codes(&analyze(&make(false))).contains(&checks::FWSM_NO_BPDU_FORWARD));
        assert!(!codes(&analyze(&make(true))).contains(&checks::FWSM_NO_BPDU_FORWARD));
    }

    #[test]
    fn rule_cover_matrix() {
        use checks::*;
        let any = Rule::permit_any();
        let narrow = Rule {
            action: Action::Deny,
            proto: ProtoMatch::Udp,
            src: AddrMatch::Net("10.0.0.0/8".parse().unwrap()),
            dst: AddrMatch::Any,
            dst_port: PortMatch::Eq(53),
        };
        // `permit ip any any` covers everything; nothing narrower
        // covers it back.
        let input = AnalysisInput {
            devices: vec![acl_device(1, 1, vec![any, narrow])],
            ..AnalysisInput::default()
        };
        assert!(codes(&analyze(&input)).contains(&SHADOWED_ACL_RULE));
        let input = AnalysisInput {
            devices: vec![acl_device(1, 1, vec![narrow, any])],
            ..AnalysisInput::default()
        };
        assert!(!codes(&analyze(&input)).contains(&SHADOWED_ACL_RULE));
    }

    mod verify_tests {
        use super::*;
        use crate::verify::{self, verify};

        /// A router with `(port, ip)` interfaces and `(prefix, hop)`
        /// static routes.
        fn router(id: u32, ifaces: &[(u16, &str)], routes: &[(&str, &str)]) -> DeviceInput {
            let mut config = ParsedConfig::default();
            for &(port, ip) in ifaces {
                config.interfaces.insert(port, iface(ip));
            }
            for &(prefix, hop) in routes {
                config
                    .static_routes
                    .push((prefix.parse().unwrap(), hop.parse().unwrap()));
            }
            DeviceInput {
                config: Some(config),
                ..dev(id, DeviceKind::Router)
            }
        }

        #[test]
        fn planted_loop_is_an_error_with_the_cycle_in_the_message() {
            // r1 and r2 each route 10.2.0.0/16 at the other; the real
            // 10.2 network hangs off r3, which neither can reach.
            let input = AnalysisInput {
                design: "loop".into(),
                devices: vec![
                    router(
                        1,
                        &[(0, "192.168.0.1/24"), (1, "10.1.0.1/16")],
                        &[("10.2.0.0/16", "192.168.0.2")],
                    ),
                    router(
                        2,
                        &[(0, "192.168.0.2/24")],
                        &[
                            ("10.2.0.0/16", "192.168.0.1"),
                            ("10.1.0.0/16", "192.168.0.1"),
                        ],
                    ),
                    router(3, &[(0, "10.2.0.1/16")], &[]),
                    dev(4, DeviceKind::Host),
                    dev(5, DeviceKind::Host),
                ],
                wires: vec![
                    wire((1, 0), (2, 0)),
                    wire((1, 1), (4, 0)),
                    wire((3, 0), (5, 0)),
                ],
                ..AnalysisInput::default()
            };
            let outcome = verify(&input);
            let hit = outcome
                .report
                .diagnostics
                .iter()
                .find(|d| d.code == verify::FORWARDING_LOOP)
                .expect("loop finding");
            assert_eq!(hit.severity, Severity::Error);
            assert!(hit.message.contains("r1 -> r2 -> r1"), "{}", hit.message);
            assert!(outcome.report.has_errors());
        }

        #[test]
        fn planted_blackhole_is_an_error_with_the_hop_path() {
            // r1 forwards 10.2.0.0/16 to r2, which has no route for it.
            let input = AnalysisInput {
                design: "blackhole".into(),
                devices: vec![
                    router(
                        1,
                        &[(0, "192.168.0.1/24"), (1, "10.1.0.1/16")],
                        &[("10.2.0.0/16", "192.168.0.2")],
                    ),
                    router(2, &[(0, "192.168.0.2/24")], &[]),
                    router(3, &[(0, "10.2.0.1/16")], &[]),
                    dev(4, DeviceKind::Host),
                    dev(5, DeviceKind::Host),
                ],
                wires: vec![
                    wire((1, 0), (2, 0)),
                    wire((1, 1), (4, 0)),
                    wire((3, 0), (5, 0)),
                ],
                ..AnalysisInput::default()
            };
            let outcome = verify(&input);
            let hit = outcome
                .report
                .diagnostics
                .iter()
                .find(|d| d.code == verify::BLACKHOLE)
                .expect("blackhole finding");
            assert_eq!(hit.severity, Severity::Error);
            assert_eq!(hit.device, Some(r(2)));
            assert!(hit.message.contains("hop path r1 -> r2"), "{}", hit.message);
        }

        #[test]
        fn acl_severed_pair_is_a_warning_naming_the_blocking_line() {
            // Proper routes both ways, but r1's outbound ACL denies the
            // 10.1 -> 10.2 class on the transit link.
            let mut r1 = router(
                1,
                &[(0, "192.168.0.1/24"), (1, "10.1.0.1/16")],
                &[("10.2.0.0/16", "192.168.0.2")],
            );
            if let Some(config) = r1.config.as_mut() {
                config.acls.insert(
                    102,
                    vec![
                        Rule::deny_net_to_net(
                            "10.1.0.0/16".parse().unwrap(),
                            "10.2.0.0/16".parse().unwrap(),
                        ),
                        Rule::permit_any(),
                    ],
                );
                if let Some(iface) = config.interfaces.get_mut(&0) {
                    iface.acl_out = Some(102);
                }
            }
            let input = AnalysisInput {
                design: "severed".into(),
                devices: vec![
                    r1,
                    router(
                        2,
                        &[(0, "192.168.0.2/24"), (1, "10.2.0.1/16")],
                        &[("10.1.0.0/16", "192.168.0.1")],
                    ),
                    dev(3, DeviceKind::Host),
                    dev(4, DeviceKind::Host),
                ],
                wires: vec![
                    wire((1, 0), (2, 0)),
                    wire((1, 1), (3, 0)),
                    wire((2, 1), (4, 0)),
                ],
                ..AnalysisInput::default()
            };
            let outcome = verify(&input);
            assert!(!outcome.report.has_errors(), "{}", outcome.report.render());
            let hit = outcome
                .report
                .diagnostics
                .iter()
                .find(|d| d.code == verify::UNREACHABLE_PAIR)
                .expect("unreachable pair finding");
            assert_eq!(hit.severity, Severity::Warning);
            assert!(hit.message.contains("access-list 102"), "{}", hit.message);
            assert!(hit.message.contains("hop path r1"), "{}", hit.message);
            // The reverse direction still delivers; the deny rule is
            // counted as used (it matched traffic).
            assert!(outcome.pairs.iter().any(|p| p.delivered));
            assert!(outcome.pairs.iter().any(|p| !p.delivered));
            let (used_rules, total_rules) = outcome.coverage.counts(CoverKind::AclRule);
            assert_eq!((used_rules, total_rules), (1, 2));
        }

        #[test]
        fn asymmetric_forward_and_return_paths_are_flagged() {
            // Forward 10.1 -> 10.2 detours through r3; return goes
            // straight over the r1-r2 link.
            let input = AnalysisInput {
                design: "asym".into(),
                devices: vec![
                    router(
                        1,
                        &[
                            (0, "192.168.13.1/24"),
                            (1, "10.1.0.1/16"),
                            (2, "192.168.12.1/24"),
                        ],
                        &[("10.2.0.0/16", "192.168.13.3")],
                    ),
                    router(
                        2,
                        &[
                            (0, "192.168.23.2/24"),
                            (1, "192.168.12.2/24"),
                            (2, "10.2.0.1/16"),
                        ],
                        &[("10.1.0.0/16", "192.168.12.1")],
                    ),
                    router(
                        3,
                        &[(0, "192.168.13.3/24"), (1, "192.168.23.3/24")],
                        &[("10.2.0.0/16", "192.168.23.2")],
                    ),
                    dev(4, DeviceKind::Host),
                    dev(5, DeviceKind::Host),
                ],
                wires: vec![
                    wire((1, 0), (3, 0)),
                    wire((3, 1), (2, 0)),
                    wire((2, 1), (1, 2)),
                    wire((1, 1), (4, 0)),
                    wire((2, 2), (5, 0)),
                ],
                ..AnalysisInput::default()
            };
            let outcome = verify(&input);
            assert!(!outcome.report.has_errors(), "{}", outcome.report.render());
            let hit = outcome
                .report
                .diagnostics
                .iter()
                .find(|d| d.code == verify::ASYMMETRIC_PATH)
                .expect("asymmetric path finding");
            assert!(hit.message.contains("r1 -> r3 -> r2"), "{}", hit.message);
            assert!(hit.message.contains("r2 -> r1"), "{}", hit.message);
        }

        #[test]
        fn symmetric_design_verifies_clean_with_full_coverage() {
            let input = AnalysisInput {
                design: "clean".into(),
                devices: vec![
                    router(
                        1,
                        &[(0, "192.168.0.1/24"), (1, "10.1.0.1/16")],
                        &[("10.2.0.0/16", "192.168.0.2")],
                    ),
                    router(
                        2,
                        &[(0, "192.168.0.2/24"), (1, "10.2.0.1/16")],
                        &[("10.1.0.0/16", "192.168.0.1")],
                    ),
                    dev(3, DeviceKind::Host),
                    dev(4, DeviceKind::Host),
                ],
                wires: vec![
                    wire((1, 0), (2, 0)),
                    wire((1, 1), (3, 0)),
                    wire((2, 1), (4, 0)),
                ],
                ..AnalysisInput::default()
            };
            let outcome = verify(&input);
            assert!(
                outcome.report.diagnostics.is_empty(),
                "{}",
                outcome.report.render()
            );
            assert_eq!(outcome.pairs.len(), 2);
            assert!(outcome.pairs.iter().all(|p| p.delivered));
            assert_eq!(
                outcome.coverage.percent(),
                100,
                "{}",
                outcome.coverage.summary()
            );
        }

        #[test]
        fn rip_learned_routes_deliver_and_count_as_coverage() {
            // No static routes at all: both routers run RIP over the
            // shared transit subnet and learn each other's stub.
            let make = |id: u32, transit: &str, stub: &str| {
                let mut d = router(id, &[(0, transit), (1, stub)], &[]);
                if let Some(config) = d.config.as_mut() {
                    config.rip_enabled = true;
                    config.rip_networks.push("10.0.0.0/8".parse().unwrap());
                }
                d
            };
            let input = AnalysisInput {
                design: "rip".into(),
                devices: vec![
                    make(1, "10.12.0.1/24", "10.1.0.1/16"),
                    make(2, "10.12.0.2/24", "10.2.0.1/16"),
                    dev(3, DeviceKind::Host),
                    dev(4, DeviceKind::Host),
                ],
                wires: vec![
                    wire((1, 0), (2, 0)),
                    wire((1, 1), (3, 0)),
                    wire((2, 1), (4, 0)),
                ],
                ..AnalysisInput::default()
            };
            let outcome = verify(&input);
            assert!(
                outcome.report.diagnostics.is_empty(),
                "{}",
                outcome.report.render()
            );
            assert!(outcome.pairs.iter().all(|p| p.delivered));
            let (used, total) = outcome.coverage.counts(CoverKind::RipNetwork);
            assert_eq!((used, total), (2, 2), "{}", outcome.coverage.summary());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A well-formed random input: every wire endpoint references a
        /// listed device, ports are arbitrary, some devices carry
        /// synthetic configs.
        fn arbitrary_input(
            n_devices: usize,
            raw_wires: &[(u8, u8, u8, u8)],
            with_config: &[bool],
        ) -> AnalysisInput {
            let kinds = [
                DeviceKind::Router,
                DeviceKind::Switch,
                DeviceKind::Host,
                DeviceKind::Unknown,
            ];
            let devices: Vec<DeviceInput> = (0..n_devices)
                .map(|i| {
                    let mut d = dev(i as u32, kinds[i % kinds.len()]);
                    d.ports = if i % 3 == 0 {
                        Some((i % 5) as u16)
                    } else {
                        None
                    };
                    if with_config.get(i).copied().unwrap_or(false) {
                        let mut config = ParsedConfig::default();
                        config
                            .interfaces
                            .insert((i % 4) as u16, iface(&format!("10.{}.0.1/24", i % 7)));
                        config.static_routes.push((
                            "10.200.0.0/16".parse().unwrap(),
                            format!("10.{}.0.2", i % 3).parse().unwrap(),
                        ));
                        config.rip_enabled = i % 2 == 0;
                        config.rip_networks.push("10.0.0.0/8".parse().unwrap());
                        config
                            .acls
                            .insert(101, vec![Rule::permit_any(), Rule::permit_any()]);
                        d.config = Some(config);
                    }
                    d
                })
                .collect();
            let wires = raw_wires
                .iter()
                .map(|&(a, ap, b, bp)| {
                    wire(
                        ((a as usize % n_devices) as u32, ap as u16),
                        ((b as usize % n_devices) as u32, bp as u16),
                    )
                })
                .collect();
            AnalysisInput {
                design: "prop".into(),
                devices,
                wires,
                inventory_capacity: Some(n_devices),
            }
        }

        proptest! {
            /// `analyze` never panics on arbitrary well-formed designs,
            /// and the human renderings never panic either.
            #[test]
            fn analyze_never_panics(
                n in 1usize..8,
                raw_wires in proptest::collection::vec(
                    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
                    0..12,
                ),
                with_config in proptest::collection::vec(any::<bool>(), 8),
            ) {
                let input = arbitrary_input(n, &raw_wires, &with_config);
                let report = analyze(&input);
                let _ = report.render();
                let _ = report.summary();
                prop_assert!(report.count(Severity::Error) <= report.diagnostics.len());
                // The symbolic verifier must also survive anything a
                // well-formed design JSON can throw at it.
                let outcome = verify::verify(&input);
                let _ = outcome.report.render();
                let _ = outcome.coverage.summary();
                prop_assert!(outcome.coverage.percent() <= 100);
            }
        }
    }
}
