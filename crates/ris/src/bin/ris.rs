//! The deployable Router Interface Software: the process running on the
//! PC in front of the equipment.
//!
//! ```text
//! cargo run -p rnl-ris --bin ris -- /path/to/ris.conf
//! ```
//!
//! Reads the Fig.-3-style configuration file (see
//! [`rnl_ris::config`]), instantiates the simulated equipment it
//! fronts, and runs the packet-forwarding loop until killed. The
//! connection to the route server is *supervised*: the process starts
//! disconnected and the [`rnl_ris::Supervisor`] dials (outbound only —
//! firewall friendly) with jittered exponential backoff, rejoining and
//! re-registering after every outage instead of exiting. Virtual time
//! maps 1:1 to wall time in this process.
//!
//! Between supervision steps the loop blocks in [`rnl_tunnel::wait`] on
//! the uplink socket, so a frame from the route server is replayed into
//! its device when it arrives. Device timers, keepalives and — while
//! there is no uplink to block on — the redial schedule run off the
//! wait's [`TICK`] timeout.

use std::time::Instant as WallInstant;

use rnl_net::time::Instant;
use rnl_ris::config::RisConfig;
use rnl_ris::{Ris, RisError, Supervisor, TcpDialer};
use rnl_tunnel::transport::ClosedTransport;
use rnl_tunnel::wait::wait;

/// Longest the loop blocks with nothing ready: the period of its timer
/// work, and poll(2)'s granularity.
const TICK: std::time::Duration = std::time::Duration::from_millis(1);

fn main() {
    let mut path: Option<String> = None;
    let mut retry_budget: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--retry-budget" => {
                retry_budget =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("ris: --retry-budget needs a count");
                        std::process::exit(2);
                    }));
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("ris: unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("usage: ris <config-file> [--retry-budget N]");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("ris: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let config = RisConfig::parse(&text).unwrap_or_else(|e| {
        eprintln!("ris: {e}");
        std::process::exit(2);
    });

    // Start disconnected; the supervisor owns every dial, including the
    // first, so a route server that is down at boot is an outage to
    // ride out, not a fatal error.
    let mut ris = Ris::new(&config.pc_name, Box::new(ClosedTransport));
    ris.set_compression(config.compression);
    let devices = config.build_devices().unwrap_or_else(|e| {
        eprintln!("ris: {e}");
        std::process::exit(2);
    });
    for (device, spec) in devices.into_iter().zip(&config.devices) {
        let local = ris.add_device(device, &spec.description);
        eprintln!("ris: fronting {} (local id {local})", spec.name);
    }

    let start = WallInstant::now();
    let now = move || Instant::from_micros(start.elapsed().as_micros() as u64);

    let mut dialer = TcpDialer {
        addr: config.server,
    };
    // Seed from the PC name so two RIS boxes do not thunder in lockstep;
    // determinism only matters under the virtual clock, not here.
    let seed = rnl_obs::fnv1a64(config.pc_name.as_bytes());
    let mut supervisor = Supervisor::new(seed, ris.obs(), &[]);
    supervisor.set_retry_budget(retry_budget);
    eprintln!(
        "ris: {} supervising uplink to {} …",
        config.pc_name, config.server
    );

    let mut was_connected = false;
    let mut fds = Vec::new();
    loop {
        let t = now();
        // The supervisor owns the keepalive schedule: healthy ticks
        // heartbeat every `DEFAULT_HEARTBEAT_EVERY` on their own.
        match supervisor.tick(&mut ris, &mut dialer, t) {
            Ok(true) => {
                eprintln!("ris: joined labs (epoch {:?})", ris.epoch());
            }
            Ok(false) => {}
            // Application-level faults are bugs; do not mask them.
            Err(e @ (RisError::UnknownRouter(_) | RisError::Compression(_))) => {
                eprintln!("ris: {e}; exiting");
                std::process::exit(1);
            }
            Err(RisError::Transport(_)) => {}
        }
        if supervisor.retry_budget_exhausted() {
            // Adding more dial attempts to an unreachable (or shedding)
            // server is how retries become the overload. Exit and let
            // the process supervisor apply its own restart policy.
            eprintln!("ris: retry budget exhausted; exiting");
            std::process::exit(1);
        }
        let connected = ris.connected();
        if was_connected && !connected {
            eprintln!("ris: lost the route server; redialing with backoff");
        }
        was_connected = connected;
        fds.clear();
        ris.wait_fds(&mut fds);
        wait(&mut fds, TICK);
    }
}
