//! The repository benchmark: host speed of the simulator and simulated
//! performance of the designs, end to end, plus a per-layer trace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tatp-adaptive|tpcc-designs|ycsb-open|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  One simulation thread repeats the
//! workload until `--seconds` of host time have passed and reports
//! medians.  `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repeats and prints the per-layer
//! metrics and the tracing overhead.  Every segment of every repeat is
//! checked, and every repeat must reproduce the same simulated digest;
//! any failure exits with code 1.  The last line of standard output is
//! the JSON result.  `--workload all` runs each workload in its own
//! process, untraced and then traced.

mod metrics;
mod pace;
mod run;
mod suite;
mod trace;

use atrapos_engine::HostFingerprint;
use metrics::{check_complete, median, result_line, END_TO_END, PER_LAYER};
use pace::Kernel;
use run::{fnv1a, median_layer_metrics, run_repeat, setup_only, Repeat, FNV_OFFSET};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suite::{JobFn, Size};

/// Untraced repeats at least, however short `--seconds` is.
const MIN_REPEATS: usize = 2;
/// Set-ups timed at least for `setup_s` (set-up-only rounds make up for
/// repeats when a repeat is long).
const MIN_SETUPS: usize = 15;

const USAGE: &str = "usage: perfbench --workload <tatp-adaptive|tpcc-designs|ycsb-open|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(plan) = suite::plan(&args.workload, args.seed, Size::Full) else {
        eprintln!(
            "perfbench: unknown workload '{}' (known: {}, all)\n{USAGE}",
            args.workload,
            suite::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let source = match source_digest(Path::new(".")) {
        Ok(digest) => digest,
        Err(e) => {
            eprintln!("perfbench: run from the repository root: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host: {}", HostFingerprint::detect().summary());
    println!("# source: tree-fnv64 {source:016x} (crates/, shims/, Cargo.toml)");
    let result = measure(&plan, Duration::from_secs(args.seconds), args.trace);
    report(&result)
}

/// Everything one invocation measured.
struct Measured {
    untraced: Vec<Repeat>,
    traced: Vec<Repeat>,
    setups: Vec<f64>,
    traced_mode: bool,
}

/// Untraced mode makes the number of repeats that comes closest to
/// `seconds`, judged by the first repeat.  Traced mode alternates
/// untraced and traced repeats, so that drift in host speed hits both
/// alike, until `seconds` have passed.
fn measure(plan: &[JobFn], seconds: Duration, traced_mode: bool) -> Measured {
    let start = Instant::now();
    let kernel = Arc::new(Kernel::new());
    let mut m = Measured {
        untraced: Vec::new(),
        traced: Vec::new(),
        setups: Vec::new(),
        traced_mode,
    };
    if traced_mode {
        while m.untraced.is_empty() || start.elapsed() < seconds {
            m.untraced.push(run_repeat(plan, false, &kernel));
            m.traced.push(run_repeat(plan, true, &kernel));
        }
    } else {
        m.untraced.push(run_repeat(plan, false, &kernel));
        let per_repeat = start.elapsed().as_secs_f64();
        let repeats = ((seconds.as_secs_f64() / per_repeat).round() as usize).max(MIN_REPEATS);
        while m.untraced.len() < repeats {
            m.untraced.push(run_repeat(plan, false, &kernel));
        }
    }
    m.setups = m.untraced.iter().map(|r| r.setup_s).collect();
    if !traced_mode {
        while m.setups.len() < MIN_SETUPS {
            m.setups.push(setup_only(plan, &kernel));
        }
    }
    m
}

/// Every repeat's problems, numbered, and how many repeats had any.  A
/// repeat whose simulated digest differs from the first's has one.
fn repeat_problems(m: &Measured) -> (usize, Vec<String>) {
    let repeats: Vec<&Repeat> = m.untraced.iter().chain(&m.traced).collect();
    let reference = repeats[0].digest;
    let mut failed = 0;
    let mut problems = Vec::new();
    for (i, r) in repeats.iter().enumerate() {
        let mut own = r.problems.clone();
        if r.digest != reference {
            own.push(format!(
                "simulated digest {:016x} differs from the first repeat's {reference:016x}",
                r.digest
            ));
        }
        if !own.is_empty() {
            failed += 1;
        }
        problems.extend(own.into_iter().map(|p| format!("repeat {i}: {p}")));
    }
    (failed, problems)
}

type Defs = &'static [(&'static str, &'static str)];

/// The metrics of the mode that ran, and any problem computing them.
fn metric_values(m: &Measured) -> (Defs, BTreeMap<String, f64>, Vec<String>) {
    let mut problems = Vec::new();
    let (defs, values) = if m.traced_mode {
        let mut values = median_layer_metrics(&m.traced);
        let untraced = median(&m.untraced.iter().map(|r| r.sim_s).collect::<Vec<_>>());
        let traced = median(&m.traced.iter().map(|r| r.sim_s).collect::<Vec<_>>());
        values.insert(
            "trace_overhead_pct".to_string(),
            100.0 * (traced - untraced) / untraced,
        );
        (PER_LAYER, values)
    } else {
        let mut values = BTreeMap::new();
        let txns: f64 = m.untraced.iter().map(|r| r.sim.txns() as f64).sum();
        let ref_secs: f64 = m.untraced.iter().map(|r| r.sim_ref_s).sum();
        values.insert("host_txns_per_ref_s".to_string(), txns / ref_secs);
        values.insert("setup_s".to_string(), median(&m.setups));
        match peak_rss_mb() {
            Ok(mb) => {
                values.insert("peak_rss_mb".to_string(), mb);
            }
            Err(e) => problems.push(format!("peak RSS unavailable: {e}")),
        }
        m.untraced[0].sim.end_to_end(&mut values);
        (END_TO_END, values)
    };
    problems.extend(check_complete(defs, &values));
    (defs, values, problems)
}

fn report(m: &Measured) -> ExitCode {
    let (failed, mut problems) = repeat_problems(m);
    let (defs, values, metric_problems) = metric_values(m);
    problems.extend(metric_problems);

    let sim = &m.untraced[0].sim;
    println!(
        "# repeats: {} untraced, {} traced; {} set-ups timed",
        m.untraced.len(),
        m.traced.len(),
        m.setups.len()
    );
    println!(
        "# simulated per repeat: {} committed, {} aborted, {} rejected in {} virtual s",
        sim.committed, sim.aborted, sim.rejected, sim.virtual_secs
    );
    let rates: Vec<String> = m
        .untraced
        .iter()
        .map(|r| format!("{:.0}", r.host_rate()))
        .collect();
    println!("# host txn/s of each untraced repeat: {}", rates.join(" "));
    let rates: Vec<String> = m
        .untraced
        .iter()
        .map(|r| format!("{:.0}", r.ref_rate()))
        .collect();
    println!("# txn/ref_s of each untraced repeat: {}", rates.join(" "));
    println!("# sim_digest: {:016x}", m.untraced[0].digest);
    for (name, unit) in defs {
        if let Some(v) = values.get(*name) {
            println!("{name} {v} {unit}");
        }
    }
    for p in &problems {
        println!("# FAILED: {p}");
    }
    let correct = problems.is_empty();
    let attempted = m.untraced.len() + m.traced.len();
    println!("{}", result_line(correct, attempted, failed, defs, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload untraced and then traced, each in a
/// process of its own so that its peak RSS is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in suite::NAMES {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("perfbench: {name} --trace {trace} failed ({s})");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {name}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A digest of the simulator's source tree, standing in for a revision
/// where the checkout has no version-control metadata: FNV-1a over the
/// sorted paths and contents of `crates/`, `shims/` and `Cargo.toml`.
fn source_digest(root: &Path) -> Result<u64, String> {
    let mut files = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        collect_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut hash = FNV_OFFSET;
    for f in &files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        hash = fnv1a(hash, f.to_string_lossy().as_bytes());
        hash = fnv1a(hash, &bytes);
    }
    Ok(hash)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if name
            .as_deref()
            .is_some_and(|n| n == "target" || n.starts_with('.'))
        {
            continue;
        }
        if path.is_dir() {
            collect_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = args("--workload ycsb-open --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ycsb-open", 7, 3, true)
        );
        assert!(args("--seed 1").is_err(), "workload is required");
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seed").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }

    /// The metric names of `BENCHMARK.json`, by section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json readable");
        let json = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &serde::Value, k: &str| match v.get(k) {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("{section} entry has no string '{k}': {other:?}"),
        };
        json.get(section)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{section}' list"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn defined(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        assert_eq!(declared("end_to_end"), defined(END_TO_END));
        assert_eq!(declared("per_layer"), defined(PER_LAYER));
    }

    /// Every workload runs at smoke size in both modes, passes every
    /// check, reproduces its digest, and computes every declared metric.
    #[test]
    fn smoke_run_of_each_workload() {
        for name in suite::NAMES {
            let plan = suite::plan(name, 3, Size::Tiny).expect("known workload");
            for traced in [false, true] {
                let m = measure(&plan, Duration::ZERO, traced);
                let (failed, problems) = repeat_problems(&m);
                assert_eq!((failed, problems), (0, vec![]), "{name}");
                let (defs, values, problems) = metric_values(&m);
                assert!(problems.is_empty(), "{name}: {problems:?}");
                assert_eq!(values.len(), defs.len(), "{name}");
                assert!(m.untraced[0].sim.committed > 0, "{name}: nothing committed");
            }
        }
    }
}
