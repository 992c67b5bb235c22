//! perf_ledger — open-loop SLO benchmark of the two-hop monitor.
//!
//! ```text
//! perf_ledger [--seed N] [--seconds S] [--smoke]
//!     every workload, each in its own child process: untraced with the
//!     SLO search, then traced; prints every metric and writes
//!     out/results.json
//! perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--search]
//!     one workload in this process; the last stdout line is the result
//! ```

use cm_perf::run::{out_dir, run, RunSpec};
use cm_perf::workload::{Workload, ALL};
use cm_rest::{parse_json, Json};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str =
    "usage: perf_ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--search] [--smoke]";
/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;
/// Largest reconciliation error the smoke run accepts.
const RECONCILE_LIMIT: f64 = 0.05;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    search: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        search: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" || flag == "--search" {
            parsed.smoke |= flag == "--smoke";
            parsed.search |= flag == "--search";
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => one(&args, workload),
        None => all(&args),
    }
}

/// Run one workload here and print its result as the last line.
fn one(args: &Args, workload: Workload) -> ExitCode {
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace || args.smoke,
        smoke: args.smoke,
        search: args.search && !args.trace && !args.smoke,
    };
    eprintln!(
        "perf_ledger {} seed {} seconds {} trace {}{}",
        workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace),
        if spec.smoke { " smoke" } else { "" }
    );
    match run(&spec) {
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::from(1)
        }
        Ok(report) => {
            for note in &report.notes {
                eprintln!("  FAILED {note}");
            }
            println!(
                "{}",
                Json::object(vec![("detail", report.detail.clone())]).to_compact_string()
            );
            println!("{}", report.result_json().to_compact_string());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

/// One child run's parsed output.
struct Child {
    workload: Workload,
    trace: bool,
    code: Option<i32>,
    result: Option<Json>,
    detail: Option<Json>,
}

impl Child {
    fn correct(&self) -> bool {
        self.code == Some(0)
            && self
                .result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .is_some_and(|c| *c == Json::Bool(true))
    }

    fn metric(&self, name: &str) -> Option<f64> {
        let v = self
            .result
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?;
        match v {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.result
            .as_ref()
            .and_then(|r| r.get(name))
            .and_then(Json::as_int)
            .map_or(0.0, |v| v as f64)
    }
}

fn spawn(args: &Args, workload: Workload, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    } else if !trace {
        command.arg("--search");
    }
    let output = command
        .output()
        .map_err(|e| format!("run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| parse_json(l).ok());
    let detail = lines
        .next()
        .and_then(|l| parse_json(l).ok())
        .and_then(|d| d.get("detail").cloned());
    Ok(Child {
        workload,
        trace,
        code: output.status.code(),
        result,
        detail,
    })
}

/// Run every workload in its own child process and report.
fn all(args: &Args) -> ExitCode {
    let started = Instant::now();
    let passes: &[bool] = if args.smoke { &[true] } else { &[false, true] };
    let mut children = Vec::new();
    for workload in ALL {
        for &trace in passes {
            match spawn(args, workload, trace) {
                Ok(child) => children.push(child),
                Err(e) => {
                    eprintln!("perf_ledger: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    let mut ok = true;
    println!();
    println!(
        "perf_ledger: {} load threads, {} keep-alive connections, open loop, seed {}, {} s per run",
        cm_perf::run::CONNECTIONS,
        cm_perf::run::CONNECTIONS,
        args.seed,
        args.seconds
    );
    for child in &children {
        let label = format!(
            "{} ({})",
            child.workload.name(),
            if child.trace { "traced" } else { "end to end" }
        );
        if !child.correct() {
            ok = false;
            println!("{label}: FAILED (exit {:?})", child.code);
            continue;
        }
        let attempted = child.count("attempted");
        let failed = child.count("failed");
        println!("{label}: {attempted} requests");
        let row =
            |name: &str, value: String, unit: &str| println!("  {name:<36} {value:>24} {unit}");
        row(
            "failed_frac",
            (failed / attempted.max(1.0)).to_string(),
            "ratio",
        );
        let rows = |metrics: Option<&Json>, suffix: &str| {
            if let Some(Json::Object(metrics)) = metrics {
                for (name, m) in metrics {
                    let value = m.get("value").map(ToString::to_string).unwrap_or_default();
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    row(&format!("{name}{suffix}"), value, unit);
                }
            }
        };
        rows(child.result.as_ref().and_then(|r| r.get("metrics")), "");
        rows(
            child.detail.as_ref().and_then(|d| d.get("reported")),
            " (not gated)",
        );
        if args.smoke {
            match child.metric("trace.reconcile_err") {
                Some(err) if err <= RECONCILE_LIMIT => {}
                other => {
                    ok = false;
                    println!("  reconcile error {other:?} exceeds {RECONCILE_LIMIT}");
                }
            }
        }
    }
    let file = out_dir().join(if args.smoke {
        "results.smoke.json"
    } else {
        "results.json"
    });
    let runs = children
        .iter()
        .map(|c| {
            Json::object(vec![
                ("workload", Json::Str(c.workload.name().into())),
                ("trace", Json::Bool(c.trace)),
                (
                    "exit_code",
                    c.code.map_or(Json::Null, |v| Json::Int(i64::from(v))),
                ),
                ("result", c.result.clone().unwrap_or(Json::Null)),
                ("detail", c.detail.clone().unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let doc = Json::object(vec![
        ("host", host_fingerprint()),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds_per_run", Json::Float(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("wall_s", Json::Float(started.elapsed().as_secs_f64())),
        ("runs", Json::Array(runs)),
    ]);
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, doc.to_pretty_string()))
    {
        eprintln!("perf_ledger: write {}: {e}", file.display());
        return ExitCode::from(1);
    }
    println!(
        "wrote {} in {:.0} s",
        file.display(),
        started.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Cores, kernel, toolchain and revision the numbers were taken on.
fn host_fingerprint() -> Json {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::object(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command("rustc", &["-V"]))),
        ("git_rev", Json::Str(command("git", &["rev-parse", "HEAD"]))),
    ])
}
