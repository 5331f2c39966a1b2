//! The RIS configuration file — the on-disk form of Fig. 3.
//!
//! "Once all configurations are specified, the lab manager can save the
//! current configuration, then click the 'Join Labs' button." The
//! deployable `ris` binary reads this file instead of a GUI form. The
//! format is line-oriented:
//!
//! ```text
//! # which PC this is and where the route server lives
//! pc-name lab-pc-1
//! server 127.0.0.1:4510
//! compression on
//! base-device-num 1
//!
//! # one line per device this PC fronts
//! device host s1 ip=10.0.0.1/24 gateway=10.0.0.254 desc="server s1"
//! device router r1 ports=4 desc="edge router"
//! device switch sw1 ports=8 fwsm=1:110 desc="catalyst with FWSM"
//! device traffgen g1 ports=2 desc="traffic analyzer"
//! ```
//!
//! `desc` values may be double-quoted to contain spaces. Device numbers
//! (MAC seeds) are assigned sequentially from `base-device-num`
//! (default 1); give each `ris` process of one lab a different base or
//! their devices mint identical MACs.

use std::net::SocketAddr;

use rnl_device::device::Device;
use rnl_device::host::Host;
use rnl_device::router::Router;
use rnl_device::switch::Switch;
use rnl_device::traffgen::TrafficGen;
use rnl_net::time::Instant;

/// A parsed configuration.
#[derive(Debug)]
pub struct RisConfig {
    pub pc_name: String,
    pub server: SocketAddr,
    pub compression: bool,
    /// Device number (MAC seed) of the first device.
    pub base_device_num: u32,
    pub devices: Vec<DeviceSpec>,
}

/// One `device` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    pub kind: DeviceKind,
    pub name: String,
    pub description: String,
    pub ports: usize,
    pub ip: Option<String>,
    pub gateway: Option<String>,
    /// `unit:priority` for a switch's FWSM.
    pub fwsm: Option<(u32, u8)>,
}

/// Supported device kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    Host,
    Router,
    Switch,
    TrafficGen,
}

/// Configuration parse failure with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Split a line into tokens, honoring double quotes in `key="a b"`.
fn split_tokens(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

impl RisConfig {
    /// Parse a configuration file body.
    pub fn parse(text: &str) -> Result<RisConfig, ConfigError> {
        let mut pc_name = None;
        let mut server = None;
        let mut compression = false;
        let mut base_device_num = 1;
        let mut devices = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let err = |message: String| ConfigError {
                line: lineno,
                message,
            };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens = split_tokens(line);
            match tokens[0].as_str() {
                "pc-name" => {
                    pc_name = Some(
                        tokens
                            .get(1)
                            .ok_or_else(|| err("pc-name needs a value".into()))?
                            .clone(),
                    );
                }
                "server" => {
                    let addr = tokens
                        .get(1)
                        .ok_or_else(|| err("server needs host:port".into()))?;
                    server = Some(
                        addr.parse()
                            .map_err(|_| err(format!("bad server address {addr:?}")))?,
                    );
                }
                "compression" => {
                    compression = matches!(tokens.get(1).map(String::as_str), Some("on" | "true"));
                }
                "base-device-num" => {
                    let num = tokens
                        .get(1)
                        .ok_or_else(|| err("base-device-num needs a number".into()))?;
                    base_device_num = num
                        .parse()
                        .map_err(|_| err(format!("bad base-device-num {num:?}")))?;
                }
                "device" => {
                    let kind = match tokens.get(1).map(String::as_str) {
                        Some("host") => DeviceKind::Host,
                        Some("router") => DeviceKind::Router,
                        Some("switch") => DeviceKind::Switch,
                        Some("traffgen") => DeviceKind::TrafficGen,
                        other => return Err(err(format!("unknown device kind {other:?}"))),
                    };
                    let name = tokens
                        .get(2)
                        .ok_or_else(|| err("device needs a name".into()))?
                        .clone();
                    let mut spec = DeviceSpec {
                        kind,
                        name: name.clone(),
                        description: name,
                        ports: default_ports(kind),
                        ip: None,
                        gateway: None,
                        fwsm: None,
                    };
                    for kv in &tokens[3..] {
                        let (key, value) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("expected key=value, got {kv:?}")))?;
                        match key {
                            "desc" => spec.description = value.to_string(),
                            "ports" => {
                                spec.ports = value
                                    .parse()
                                    .map_err(|_| err(format!("bad ports {value:?}")))?;
                            }
                            "ip" => spec.ip = Some(value.to_string()),
                            "gateway" => spec.gateway = Some(value.to_string()),
                            "fwsm" => {
                                let (unit, prio) = value
                                    .split_once(':')
                                    .ok_or_else(|| err("fwsm needs unit:priority".into()))?;
                                spec.fwsm = Some((
                                    unit.parse()
                                        .map_err(|_| err(format!("bad fwsm unit {unit:?}")))?,
                                    prio.parse()
                                        .map_err(|_| err(format!("bad fwsm priority {prio:?}")))?,
                                ));
                            }
                            other => return Err(err(format!("unknown key {other:?}"))),
                        }
                    }
                    devices.push(spec);
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
        }
        Ok(RisConfig {
            pc_name: pc_name.ok_or(ConfigError {
                line: 0,
                message: "missing pc-name".into(),
            })?,
            server: server.ok_or(ConfigError {
                line: 0,
                message: "missing server".into(),
            })?,
            compression,
            base_device_num,
            devices,
        })
    }

    /// Instantiate the configured devices, numbering MAC seeds from
    /// `base-device-num`.
    pub fn build_devices(&self) -> Result<Vec<Box<dyn Device>>, ConfigError> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, spec)| spec.build(self.base_device_num.wrapping_add(i as u32 * 10)))
            .collect()
    }
}

fn default_ports(kind: DeviceKind) -> usize {
    match kind {
        DeviceKind::Host => 1,
        DeviceKind::Router => 2,
        DeviceKind::Switch => 8,
        DeviceKind::TrafficGen => 2,
    }
}

impl DeviceSpec {
    /// Instantiate this device.
    pub fn build(&self, device_num: u32) -> Result<Box<dyn Device>, ConfigError> {
        let bad = |message: String| ConfigError { line: 0, message };
        Ok(match self.kind {
            DeviceKind::Host => {
                let mut h = Host::new(&self.name, device_num);
                if let Some(ip) = &self.ip {
                    h.set_ip(ip.parse().map_err(|_| bad(format!("bad ip {ip:?}")))?);
                }
                if let Some(gw) = &self.gateway {
                    h.set_gateway(gw.parse().map_err(|_| bad(format!("bad gateway {gw:?}")))?);
                }
                Box::new(h)
            }
            DeviceKind::Router => Box::new(Router::new(&self.name, device_num, self.ports)),
            DeviceKind::Switch => {
                let mut sw = Switch::new(&self.name, device_num, self.ports, Instant::EPOCH);
                if let Some((unit, prio)) = self.fwsm {
                    sw.install_fwsm(unit, prio);
                }
                Box::new(sw)
            }
            DeviceKind::TrafficGen => Box::new(TrafficGen::new(&self.name, device_num, self.ports)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a typical interface PC
pc-name lab-pc-1
server 127.0.0.1:4510
compression on

device host s1 ip=10.0.0.1/24 gateway=10.0.0.254 desc="server s1"
device router r1 ports=4 desc="edge router"
device switch sw1 ports=8 fwsm=1:110
device traffgen g1
"#;

    #[test]
    fn parses_the_sample() {
        let cfg = RisConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.pc_name, "lab-pc-1");
        assert_eq!(cfg.server.port(), 4510);
        assert!(cfg.compression);
        assert_eq!(cfg.devices.len(), 4);
        assert_eq!(cfg.devices[0].description, "server s1");
        assert_eq!(cfg.devices[0].ip.as_deref(), Some("10.0.0.1/24"));
        assert_eq!(cfg.devices[1].ports, 4);
        assert_eq!(cfg.devices[2].fwsm, Some((1, 110)));
        assert_eq!(cfg.devices[3].kind, DeviceKind::TrafficGen);
        // Default description falls back to the name.
        assert_eq!(cfg.devices[3].description, "g1");
    }

    #[test]
    fn builds_devices() {
        let cfg = RisConfig::parse(SAMPLE).unwrap();
        let devices = cfg.build_devices().unwrap();
        assert_eq!(devices.len(), 4);
        assert_eq!(devices[0].model(), "Linux Server");
        assert_eq!(devices[1].num_ports(), 4);
        assert_eq!(devices[2].model(), "Catalyst 6500");
        assert_eq!(devices[3].model(), "IXIA Traffic Generator");
    }

    #[test]
    fn base_device_num_seeds_the_macs() {
        let text = |base: &str| {
            format!(
                "pc-name x\nserver 1.2.3.4:1\n{base}\
                 device host h1 ip=10.0.0.1/24\ndevice host h2 ip=10.0.0.2/24\n"
            )
        };
        // A host's MAC is the source address of the ARP its ping emits.
        let macs = |cfg: &RisConfig| -> Vec<Vec<u8>> {
            let mut devices = cfg.build_devices().unwrap();
            devices
                .iter_mut()
                .map(|d| {
                    d.console("ping 10.0.0.9 count 1", Instant::EPOCH);
                    d.tick(Instant::EPOCH)[0].frame[6..12].to_vec()
                })
                .collect()
        };
        // Default 1: what the binary hard-coded before the line parsed.
        let default = RisConfig::parse(&text("")).unwrap();
        assert_eq!(default.base_device_num, 1);
        let explicit = RisConfig::parse(&text("base-device-num 1\n")).unwrap();
        assert_eq!(macs(&default), macs(&explicit));
        // A second RIS of the same lab picks another base: no MAC in
        // common with the first.
        let other = RisConfig::parse(&text("base-device-num 101\n")).unwrap();
        assert_eq!(other.base_device_num, 101);
        let first = macs(&default);
        for mac in macs(&other) {
            assert!(!first.contains(&mac), "duplicate {mac:02x?}");
        }
        let err = RisConfig::parse(&text("base-device-num lots\n")).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("lots"));
        assert!(RisConfig::parse(&text("base-device-num\n")).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = RisConfig::parse("pc-name x\nserver nope\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = RisConfig::parse("pc-name x\nserver 1.2.3.4:1\nfrobnicate\n").unwrap_err();
        assert_eq!(err.line, 3);
        let err = RisConfig::parse("pc-name x\nserver 1.2.3.4:1\ndevice toaster t1\n").unwrap_err();
        assert!(err.message.contains("toaster"));
    }

    #[test]
    fn missing_required_fields() {
        assert!(RisConfig::parse("server 1.2.3.4:1\n")
            .unwrap_err()
            .message
            .contains("pc-name"));
        assert!(RisConfig::parse("pc-name x\n")
            .unwrap_err()
            .message
            .contains("server"));
    }

    #[test]
    fn quoted_descriptions_keep_spaces() {
        let cfg = RisConfig::parse("pc-name x\nserver 1.2.3.4:1\ndevice host h desc=\"a b c\"\n")
            .unwrap();
        assert_eq!(cfg.devices[0].description, "a b c");
    }
}
