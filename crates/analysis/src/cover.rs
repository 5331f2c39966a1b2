//! NetCov-style configuration coverage.
//!
//! The verifier's traversal ([`crate::verify`]) delivers packet classes
//! across the design; every config stanza that *contributed* to a
//! delivered class — the interface it entered and left through, the
//! route that forwarded it, the ACL rule that permitted it — is marked
//! used. A deny rule that actually blocks a traversed class also counts
//! as used (it matched traffic, exactly as NetCov attributes drops).
//! Everything else is an untested line: a route no experiment ever
//! follows, a rule no packet ever reaches, an interface no class ever
//! crosses. The nightly report surfaces the gap so untested config is
//! visible run over run.

use std::collections::BTreeSet;

use rnl_tunnel::msg::RouterId;

use crate::model::AnalysisInput;

/// Which kind of config stanza a coverage item tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoverKind {
    Interface,
    StaticRoute,
    AclRule,
    RipNetwork,
}

impl CoverKind {
    /// Lowercase label for report lines.
    pub fn label(self) -> &'static str {
        match self {
            CoverKind::Interface => "interface",
            CoverKind::StaticRoute => "route",
            CoverKind::AclRule => "acl rule",
            CoverKind::RipNetwork => "rip network",
        }
    }
}

/// A stable key naming one config stanza on one device.
///
/// * `Interface` — port index.
/// * `StaticRoute` — index into `static_routes`.
/// * `AclRule` — `acl_id * 10_000 + rule_index`.
/// * `RipNetwork` — index into `rip_networks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverKey {
    pub device: RouterId,
    pub kind: CoverKind,
    pub index: u32,
}

impl CoverKey {
    /// Key for rule `rule` of access list `acl` (see type docs).
    pub fn acl_rule(device: RouterId, acl: u16, rule: usize) -> CoverKey {
        CoverKey {
            device,
            kind: CoverKind::AclRule,
            index: u32::from(acl) * 10_000 + rule as u32,
        }
    }
}

/// One config stanza with its usage verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverItem {
    pub key: CoverKey,
    /// The stanza as CLI text (`ip route …`, `access-list …`).
    pub label: String,
    pub used: bool,
}

/// Per-design coverage: every route, ACL rule, interface and RIP
/// network stanza in the design, each marked used or unused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    pub items: Vec<CoverItem>,
}

impl Coverage {
    /// Enumerate every coverable stanza in the input, all unused.
    pub fn enumerate(input: &AnalysisInput) -> Coverage {
        let mut items = Vec::new();
        for dev in &input.devices {
            let Some(config) = dev.config.as_ref() else {
                continue;
            };
            for (&idx, iface) in &config.interfaces {
                // Pure switchports are L2 plumbing, covered implicitly
                // by the segment model; track L3 interfaces.
                if iface.ip.is_none() && iface.switchport.is_none() {
                    continue;
                }
                items.push(CoverItem {
                    key: CoverKey {
                        device: dev.id,
                        kind: CoverKind::Interface,
                        index: u32::from(idx),
                    },
                    label: format!("interface FastEthernet0/{idx}"),
                    used: false,
                });
            }
            for (i, (prefix, hop)) in config.static_routes.iter().enumerate() {
                items.push(CoverItem {
                    key: CoverKey {
                        device: dev.id,
                        kind: CoverKind::StaticRoute,
                        index: i as u32,
                    },
                    label: format!("ip route {} {} {hop}", prefix.network(), prefix.netmask()),
                    used: false,
                });
            }
            for (&acl, rules) in &config.acls {
                for (i, rule) in rules.iter().enumerate() {
                    items.push(CoverItem {
                        key: CoverKey::acl_rule(dev.id, acl, i),
                        label: rule.to_cli(acl),
                        used: false,
                    });
                }
            }
            for (i, net) in config.rip_networks.iter().enumerate() {
                items.push(CoverItem {
                    key: CoverKey {
                        device: dev.id,
                        kind: CoverKind::RipNetwork,
                        index: i as u32,
                    },
                    label: format!("router rip network {net}"),
                    used: false,
                });
            }
        }
        Coverage { items }
    }

    /// Mark every stanza in `keys` used.
    pub fn mark(&mut self, keys: &BTreeSet<CoverKey>) {
        for item in &mut self.items {
            if keys.contains(&item.key) {
                item.used = true;
            }
        }
    }

    /// `(used, total)` for one stanza kind.
    pub fn counts(&self, kind: CoverKind) -> (usize, usize) {
        let total = self.items.iter().filter(|i| i.key.kind == kind).count();
        let used = self
            .items
            .iter()
            .filter(|i| i.key.kind == kind && i.used)
            .count();
        (used, total)
    }

    /// Whole-design coverage percentage (100 when nothing is coverable).
    pub fn percent(&self) -> u32 {
        if self.items.is_empty() {
            return 100;
        }
        let used = self.items.iter().filter(|i| i.used).count();
        (used * 100 / self.items.len()) as u32
    }

    /// The unused stanzas, in device order.
    pub fn unused(&self) -> impl Iterator<Item = &CoverItem> {
        self.items.iter().filter(|i| !i.used)
    }

    /// `"67% — interfaces 3/4, routes 2/2, acl rules 1/3, rip networks 0/0"`.
    pub fn summary(&self) -> String {
        let (iu, it) = self.counts(CoverKind::Interface);
        let (ru, rt) = self.counts(CoverKind::StaticRoute);
        let (au, at) = self.counts(CoverKind::AclRule);
        let (pu, pt) = self.counts(CoverKind::RipNetwork);
        format!(
            "{}% — interfaces {iu}/{it}, routes {ru}/{rt}, acl rules {au}/{at}, rip networks {pu}/{pt}",
            self.percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DeviceInput, DeviceKind};
    use rnl_device::acl::Rule;
    use rnl_device::confparse::{InterfaceConfig, ParsedConfig};
    use rnl_tunnel::msg::RouterId;

    fn input_with_one_router() -> AnalysisInput {
        let mut config = ParsedConfig::default();
        config.interfaces.insert(
            0,
            InterfaceConfig {
                ip: Some("10.0.0.1/24".parse().unwrap()),
                ..InterfaceConfig::default()
            },
        );
        config
            .static_routes
            .push(("10.2.0.0/16".parse().unwrap(), "10.0.0.2".parse().unwrap()));
        config.acls.insert(101, vec![Rule::permit_any()]);
        config.rip_networks.push("10.0.0.0/8".parse().unwrap());
        AnalysisInput {
            devices: vec![DeviceInput {
                kind: DeviceKind::Router,
                config: Some(config),
                ..DeviceInput::bare(RouterId(1))
            }],
            ..AnalysisInput::default()
        }
    }

    #[test]
    fn enumerates_every_stanza_kind() {
        let cover = Coverage::enumerate(&input_with_one_router());
        assert_eq!(cover.counts(CoverKind::Interface), (0, 1));
        assert_eq!(cover.counts(CoverKind::StaticRoute), (0, 1));
        assert_eq!(cover.counts(CoverKind::AclRule), (0, 1));
        assert_eq!(cover.counts(CoverKind::RipNetwork), (0, 1));
        assert_eq!(cover.percent(), 0);
        assert_eq!(cover.unused().count(), 4);
    }

    #[test]
    fn marking_moves_the_needle() {
        let mut cover = Coverage::enumerate(&input_with_one_router());
        let mut keys = BTreeSet::new();
        keys.insert(CoverKey {
            device: RouterId(1),
            kind: CoverKind::Interface,
            index: 0,
        });
        keys.insert(CoverKey::acl_rule(RouterId(1), 101, 0));
        cover.mark(&keys);
        assert_eq!(cover.percent(), 50);
        assert!(cover.summary().starts_with("50%"), "{}", cover.summary());
        assert!(
            cover
                .unused()
                .any(|i| i.label.contains("ip route 10.2.0.0")),
            "{}",
            cover.summary()
        );
    }

    #[test]
    fn empty_design_is_fully_covered() {
        let cover = Coverage::enumerate(&AnalysisInput::default());
        assert_eq!(cover.percent(), 100);
        assert_eq!(
            cover.summary(),
            "100% — interfaces 0/0, routes 0/0, acl rules 0/0, rip networks 0/0"
        );
    }
}
