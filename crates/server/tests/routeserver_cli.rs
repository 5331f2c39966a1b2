//! `routeserver --shards N` runs every shard with the default overload
//! policy, fsync policy and snapshot interval, so the four flags that
//! tune those for a single server are refused up front rather than
//! silently ignored. Argument parsing happens before any socket is
//! bound, so these runs need no ports.

use std::process::Command;

#[test]
fn shards_refuse_single_server_flags() {
    for (flag, value) in [
        ("--hwm", "500"),
        ("--op-deadline", "5"),
        ("--fsync-every", "poll"),
        ("--snapshot-every", "30"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_routeserver"))
            .args(["--shards", "2", flag, value])
            .output()
            .expect("spawn routeserver");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag} not named: {stderr}");
        // Flag order does not matter.
        let out = Command::new(env!("CARGO_BIN_EXE_routeserver"))
            .args([flag, value, "--shards", "3"])
            .output()
            .expect("spawn routeserver");
        assert_eq!(out.status.code(), Some(2), "{flag} before --shards");
    }
}
