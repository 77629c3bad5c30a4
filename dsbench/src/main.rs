//! `dsbench` — the dsearch benchmark.
//!
//! ```text
//! dsbench --dsearch <path to the dsearch binary> --workload <name>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the untraced end-to-end session ([`session`]) and
//! reports the end-to-end metrics; `--trace 1` runs the traced replay
//! ([`traced`]) and reports the per-layer metrics.  The log and a run record
//! go to stderr; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  A wrong answer makes the
//! exit code 1; a run that cannot finish exits 2 without a result.
//!
//! Scratch corpora and stores live under `.bench_work/` of the current
//! directory and are removed on every exit path that unwinds; spawned
//! `dsearch` processes die with the harness.

mod check;
mod client;
mod corpus;
mod procs;
mod queries;
mod session;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    dsearch: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut dsearch, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--dsearch" => dsearch = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        dsearch: dsearch.ok_or("--dsearch is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Host fingerprint for the run record.
fn host_record() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_owned())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let engine = dsearch::server::EngineConfig::default();
    let router = dsearch::server::RouterConfig::default();
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu),
        ("kernel".into(), kernel),
        ("serve_cache_entries".into(), engine.cache_capacity.to_string()),
        ("route_cache_entries".into(), router.cache_capacity.to_string()),
        ("serve_workers".into(), engine.workers.to_string()),
        ("index_extractors_default".into(), nproc.to_string()),
        ("flush_policy".into(), "store writes are not fsynced (write + rename)".into()),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = session::WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("dsbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if !args.dsearch.is_file() {
        eprintln!("dsbench: no dsearch binary at {}", args.dsearch.display());
        return ExitCode::from(2);
    }
    let work_root = std::env::current_dir().expect("current dir").join(".bench_work");
    procs::sweep_stale(&work_root);
    let work = match procs::WorkDir::create(work_root.join(format!(
        "{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ))) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.trace {
            traced::run(&args.dsearch, workload, args.seed, args.seconds, &work.path)
        } else {
            session::run(&args.dsearch, workload, args.seed, args.seconds, &work.path)
        }
    }));
    drop(work);
    let _ = std::fs::remove_dir(&work_root);
    let result = match outcome {
        Ok(Ok(result)) => result,
        Ok(Err(e)) => {
            eprintln!("dsbench: {} failed: {e}", workload.name);
            return ExitCode::from(2);
        }
        Err(_) => {
            eprintln!("dsbench: {} panicked", workload.name);
            return ExitCode::from(2);
        }
    };
    let mut record = vec![
        ("workload".to_owned(), workload.name.to_owned()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
    ];
    record.extend(host_record());
    record.extend(result.record);
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {}", stats::json_str(k), stats::json_str(v)))
        .collect();
    eprintln!("dsbench: record {{{}}}", fields.join(", "));
    for note in &result.tally.notes {
        eprintln!("dsbench: failure: {note}");
    }
    let correct = result.tally.wrong == 0;
    println!(
        "{}",
        result.metrics.result_line(correct, result.tally.attempted, result.tally.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
