//! `wallbench compare A.json B.json`: judge run set B against run set A
//! with each metric's direction and bound from `BENCHMARK.json`.
//!
//! One row per (metric, workload): *better*, *worse*, *within-bound*,
//! or *unresolved* when the run-to-run spread is wider than the bound
//! and the two sets overlap — a difference the benchmark cannot see is
//! not reported as "unchanged". Exits non-zero on any *worse*.

use rnl_server::json::Json;

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the rule the benchmark's acceptance uses). Zero for
/// fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    let Some(mid) = median(values).filter(|m| n >= 2 && *m != 0.0) else {
        return 0.0;
    };
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    ((quartile(3) - quartile(1)) / mid).abs()
}

/// Judge `b` against `a`. `lower` is the metric's better direction;
/// `bound` the share of `a`'s median by which it may get worse.
pub fn judge(a: &[f64], b: &[f64], lower: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a).unwrap_or(f64::NAN), median(b).unwrap_or(f64::NAN));
    let worse_by = if lower {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    let all = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    let verdict = if !worse_by.is_finite() {
        Verdict::Unresolved
    } else if all(b, a) && a.len() > 1 {
        Verdict::Better
    } else if worse_by > bound && (all(a, b) || spread <= bound) {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by, spread)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

/// The values of one metric of one workload in a `results.json`.
fn values(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return Err("usage: wallbench compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load(&benchmark)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{benchmark}: no end_to_end list"))?;
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{benchmark}: no workloads list"))?;

    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "spread%", "bound%"
    );
    // (In the informational rows below the bounded ones, the fifth
    // column is the plain change of the median, B against A.)
    let mut any_worse = false;
    let mut bounded = Vec::new();
    for w in workloads {
        let w = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in metrics {
            let field = |key: &str| m.get(key).and_then(Json::as_str);
            let name = field("name").ok_or("metric without a name")?;
            let lower = field("better") == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            bounded.push(name);
            let (Some(va), Some(vb)) = (values(&a, w, name), values(&b, w, name)) else {
                println!("{w:<12} {name:<26} missing from one side");
                continue;
            };
            let (verdict, worse_by, spread) = judge(&va, &vb, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{w:<12} {name:<26} {:>14.4} {:>14.4} {:>+8.2} {:>8.2} {:>6.1}  {}",
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    // Everything else both sides measured: shown, never judged. The
    // CPU-bound metrics live here; in paired runs they are still telling.
    println!("informational (no bound):");
    for (w, metrics) in a.get("workloads").and_then(as_obj).into_iter().flatten() {
        for name in as_obj(metrics).into_iter().flat_map(|m| m.keys()) {
            let (false, Some(va), Some(vb)) = (
                bounded.contains(&name.as_str()),
                values(&a, w, name),
                values(&b, w, name),
            ) else {
                continue;
            };
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            println!(
                "{w:<12} {name:<26} {ma:>14.4} {mb:>14.4} {:>+8.2} {:>8.2}",
                (mb - ma) / ma * 100.0,
                quartile_spread(&va).max(quartile_spread(&vb)) * 100.0,
            );
        }
    }
    for (side, json) in [("A", &a), ("B", &b)] {
        for (w, metrics) in json.get("workloads").and_then(as_obj).into_iter().flatten() {
            let failed = metrics
                .get("ops_failed")
                .and_then(|m| m.get("max"))
                .and_then(Json::as_f64);
            if failed.is_some_and(|f| f > 0.0) {
                println!("{side}: {w} had failed operations");
                any_worse = true;
            }
        }
    }
    Ok(any_worse)
}

fn as_obj(json: &Json) -> Option<&std::collections::BTreeMap<String, Json>> {
    match json {
        Json::Obj(map) => Some(map),
        _ => None,
    }
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(false) => 0,
        Ok(true) => 1,
        Err(e) => {
            eprintln!("wallbench compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let within = [101.0, 102.0, 100.0, 101.5, 99.9];
        assert_eq!(judge(&a, &within, true, 0.1).0, Verdict::WithinBound);
        let worse = [120.0, 121.0, 119.0, 122.0, 120.5];
        assert_eq!(judge(&a, &worse, true, 0.1).0, Verdict::Worse);
        assert_eq!(judge(&a, &worse, false, 0.1).0, Verdict::Better);
        let better = [80.0, 81.0, 79.0, 82.0, 80.5];
        assert_eq!(judge(&a, &better, true, 0.1).0, Verdict::Better);
        // Wide, overlapping sets resolve nothing at a 10 % bound…
        let noisy_a = [100.0, 140.0, 70.0, 120.0, 90.0];
        let noisy_b = [105.0, 150.0, 75.0, 125.0, 95.0];
        assert_eq!(judge(&noisy_a, &noisy_b, true, 0.1).0, Verdict::Unresolved);
        // …unless every run of one side beats every run of the other.
        let clear = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(judge(&noisy_a, &clear, true, 0.1).0, Verdict::Better);
        assert_eq!(judge(&clear, &noisy_a, true, 0.1).0, Verdict::Worse);
    }
}
