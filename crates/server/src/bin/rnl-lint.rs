//! `rnl-lint` — offline pre-deploy analysis of an exported design.
//!
//! Usage: `rnl-lint [--json] [--verify] [--coverage] <design.json>...`
//! or `rnl-lint --catalog`.
//!
//! Reads design files in the web API's `export_design` format, runs the
//! same analyzer the server's deploy gate uses (without an inventory, so
//! device kinds are inferred from saved config text), and prints each
//! report. `--verify` additionally runs the symbolic data-plane
//! verifier (RNL05xx forwarding loops, blackholes, severed host pairs);
//! `--coverage` prints the NetCov-style config-coverage summary (and
//! implies `--verify`, which produces it). Exit status: 0 when no
//! design has Error findings, 1 when any does, 2 on usage or parse
//! failure. `--json` prints one line per report in exactly the shape the
//! web API's `analyze_design` (`analysis`) and `verify_design`
//! (`verification`) ops answer.

use std::process::ExitCode;

use rnl_server::design::Design;
use rnl_server::json::Json;
use rnl_server::lint;
use rnl_server::web::{report_to_json, verify_to_json};

fn usage() -> ExitCode {
    eprintln!("usage: rnl-lint [--json] [--verify] [--coverage] <design.json>...");
    eprintln!("       rnl-lint --catalog");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--catalog") {
        for (code, layer, severity, summary) in rnl_analysis::catalog() {
            println!("{code}  {layer:<7} {severity:<8} {summary}");
        }
        return ExitCode::SUCCESS;
    }
    let as_json = args.iter().any(|a| a == "--json");
    let coverage = args.iter().any(|a| a == "--coverage");
    let run_verify = coverage || args.iter().any(|a| a == "--verify");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        return usage();
    }
    let mut any_errors = false;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("rnl-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let json = match Json::parse(&text) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("rnl-lint: {path}: bad JSON: {e}");
                return ExitCode::from(2);
            }
        };
        // Accept both a bare exported design and a full `export_design`
        // response envelope ({"ok":true,"design":{...}}).
        let design_json = json.get("design").cloned().unwrap_or(json);
        let design = match Design::from_json(&design_json) {
            Ok(design) => design,
            Err(e) => {
                eprintln!("rnl-lint: {path}: not a design: {e}");
                return ExitCode::from(2);
            }
        };
        let report = lint::analyze_design(&design, None);
        if as_json {
            println!("{}", report_to_json(&report).encode());
        } else {
            print!("{}", report.render());
        }
        any_errors |= report.has_errors();
        if run_verify {
            let outcome = lint::verify_design(&design, None);
            if as_json {
                println!("{}", verify_to_json(&outcome).encode());
            } else {
                print!("{}", outcome.report.render());
                if coverage {
                    println!("  coverage: {}", outcome.coverage.summary());
                    for item in outcome.coverage.unused() {
                        println!(
                            "    uncovered: {} {} `{}`",
                            item.key.device,
                            item.key.kind.label(),
                            item.label
                        );
                    }
                }
            }
            any_errors |= outcome.report.has_errors();
        }
    }
    if any_errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
