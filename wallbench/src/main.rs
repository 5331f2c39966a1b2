//! wallbench: a wall-clock benchmark of the RNL Fig. 4 path over the
//! real `routeserver` and `ris` binaries, with a per-layer cost ledger.
//! See `wallbench/README.md`; `wallbench/run.sh` builds and calls this.
//!
//! ```text
//! wallbench run --bin-dir DIR --out-dir DIR [--workload W]… [--seed N]
//!               [--seconds S] [--trace 0|1] [--repeat K]
//! wallbench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod e2e;
mod layers;
mod probe;
mod stack;
mod stats;
mod trace;

use std::path::PathBuf;

use rnl_server::json::Json;

use e2e::{Dirs, Metric, Outcome, Workload};

/// Counts every heap allocation of this process, so the per-layer run
/// can report allocations per frame of the code it calls in-process.
#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

struct RunArgs {
    dirs: Dirs,
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn usage(problem: &str) -> ! {
    eprintln!("wallbench: {problem}");
    eprintln!(
        "usage: wallbench run --bin-dir DIR --out-dir DIR [--workload W]... [--seed N] \
         [--seconds S] [--trace 0|1] [--repeat K] [W...]\n       \
         wallbench compare A.json B.json [--benchmark BENCHMARK.json]\n\
         workloads: {}",
        e2e::WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut parsed = RunArgs {
        dirs: Dirs {
            bin: PathBuf::new(),
            out: PathBuf::new(),
        },
        workloads: Vec::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
                .clone()
        };
        let workload = |name: &str| {
            e2e::workload(name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")))
        };
        match arg.as_str() {
            "--bin-dir" => parsed.dirs.bin = PathBuf::from(value("a directory")),
            "--out-dir" => parsed.dirs.out = PathBuf::from(value("a directory")),
            "--workload" => parsed.workloads.push(workload(&value("a name"))),
            "--seed" => {
                parsed.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                parsed.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s| (1.0..=60.0).contains(s))
                    .unwrap_or_else(|| usage("--seconds needs a number from 1 to 60"));
            }
            "--trace" => {
                parsed.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--repeat" => {
                parsed.repeat = value("a count")
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage("--repeat needs a count of at least 1"));
            }
            name if !name.starts_with('-') => parsed.workloads.push(workload(name)),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if parsed.dirs.bin.as_os_str().is_empty() || parsed.dirs.out.as_os_str().is_empty() {
        usage("--bin-dir and --out-dir are required");
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = e2e::WORKLOADS.iter().collect();
    }
    parsed
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!("    {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The result line the benchmark contract prescribes: exactly
/// `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    Json::obj([
        (
            "correct",
            Json::Bool(out.failed == 0 && out.failures.is_empty()),
        ),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&out.metrics)),
    ])
    .encode()
}

fn run_once(w: &Workload, args: &RunArgs, seed: u64) -> Outcome {
    println!("wallbench: {} — {}", w.name, w.why);
    println!(
        "wallbench: seed {seed}, {} s, {} — loopback TCP, no real link is measured",
        args.seconds,
        if args.trace {
            "per-layer ledger (traced)"
        } else {
            "end to end (tracing off)"
        }
    );
    let result = if args.trace {
        layers::run(w, &args.dirs, seed, args.seconds)
    } else {
        e2e::run(w, &args.dirs, seed, args.seconds)
    };
    let out = result.unwrap_or_else(|e| {
        // No result line: a run that could not finish must not score.
        eprintln!("wallbench: {} failed: {e}", w.name);
        eprintln!("wallbench: child logs are in {}", args.dirs.out.display());
        std::process::exit(1);
    });
    print_table(
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        &out.metrics,
    );
    print_table("informational", &out.info);
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
    let late = out.metrics.iter().chain(&out.info);
    if let Some(late) = late.into_iter().find(|m| m.name == "gen.late_p99_us") {
        if late.value > e2e::GEN_LATE_LIMIT_US {
            println!(
                "  INVALID: the generator ran {:.0} us late (p99, limit {} us): \
                 open-loop latencies of this run measure the generator",
                late.value,
                e2e::GEN_LATE_LIMIT_US
            );
        }
    }
    out
}

/// `median`, `min`, `max` and the raw values of one metric over the
/// repeats, as `compare` reads them back.
fn summarize(values: &[f64], unit: &str) -> Json {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::obj([
        (
            "median",
            Json::Num(stats::median(values).unwrap_or(f64::NAN)),
        ),
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
        ("unit", Json::str(unit)),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

fn run(args: &RunArgs) {
    let mut incorrect = false;
    let mut last = None;
    let mut suite = Vec::new();
    for w in &args.workloads {
        let mut per_metric: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
        for k in 0..args.repeat {
            let out = run_once(w, args, args.seed + k as u64);
            incorrect |= out.failed > 0 || !out.failures.is_empty();
            for m in out.metrics.iter().chain(&out.info) {
                match per_metric.iter_mut().find(|(name, _, _)| *name == m.name) {
                    Some((_, _, values)) => values.push(m.value),
                    None => per_metric.push((m.name, m.unit, vec![m.value])),
                }
            }
            last = Some(out);
        }
        suite.push((
            w.name.to_string(),
            Json::Obj(
                per_metric
                    .iter()
                    .map(|(name, unit, values)| (name.to_string(), summarize(values, unit)))
                    .collect(),
            ),
        ));
    }
    let summary = Json::obj([
        ("host", stack::host_fingerprint()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("trace", Json::Bool(args.trace)),
        ("workloads", Json::Obj(suite.into_iter().collect())),
    ]);
    let path = args.dirs.out.join(if args.trace {
        "layers.json"
    } else {
        "results.json"
    });
    match std::fs::write(&path, summary.encode() + "\n") {
        Ok(()) => println!("wallbench: summary written to {}", path.display()),
        Err(e) => {
            eprintln!("wallbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if args.repeat > 1 {
        println!("{}", summary.encode());
    }
    // One workload, one run: the last line of stdout is the result.
    if let (1, 1, Some(out)) = (args.workloads.len(), args.repeat, &last) {
        println!("{}", result_line(out));
    }
    if incorrect {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&parse_run(&args[1..])),
        Some("compare") => std::process::exit(compare::main(&args[1..])),
        _ => usage("expected `run` or `compare`"),
    }
}
