//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Deploys three processes of the shipped stack (`TcpRuntime` over
//! loopback, an on-disk `WalStorage` each), drives one workload from a
//! single generator thread, checks the delivered output, and prints a
//! report, a JSON line of every end-to-end figure (gated or not, in both
//! modes), and a final JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A violation of
//! Integrity, Validity or Total Order exits non-zero without numbers.
//! `run.py` builds this package and runs it; see `README.md` there.

mod analysis;
mod generator;
mod probe;
mod procfs;
mod stats;
mod workload;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use abcast_types::{MsgId, ProcessId};

use analysis::{analyze, Metric, RunData};
use workload::{Deployment, Workload, DRAIN_TIMEOUT, N, WORKLOADS};

/// Everything the benchmark writes lives under this directory of the
/// working directory (the checkout root).
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = run(&args, &work);
    let _ = fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload and prints its report; `Ok(false)` when the output
/// checks found a violation.
fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let w = &args.workload;
    fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let wal_fs = procfs::fs_type(work)?;
    if matches!(wal_fs.as_str(), "tmpfs" | "ramfs") {
        return Err(format!("the WAL directory is on {wal_fs}, not a disk"));
    }
    let generator_comm = fs::read_to_string("/proc/thread-self/comm")
        .map_err(|e| format!("/proc/thread-self/comm: {e}"))?
        .trim()
        .to_string();
    println!(
        "perfbench {} seed={} seconds={} trace={}: {}; WAL: WalStorage::open defaults (group window 8, 64 KiB segments) on {wal_fs}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        w.describe()
    );

    let epoch = Instant::now();
    let (d, setup_s) = workload::set_up(w, args.seed, work, args.traced, epoch)?;
    let result = measure_on(&d, args, setup_s, generator_comm, wal_fs);
    let data = match result {
        Ok(data) => data,
        Err(e) => {
            d.shutdown();
            return Err(e);
        }
    };
    let spans = data.spans.clone();
    d.shutdown();

    let a = analyze(&data);
    if !a.violations.is_empty() {
        for v in &a.violations {
            eprintln!("perfbench: {v}");
        }
        return Ok(false);
    }
    if args.traced {
        write_spans(w, &spans)?;
    }
    report(args, &a);
    Ok(true)
}

fn measure_on(
    d: &Deployment,
    args: &Args,
    setup_s: Vec<f64>,
    generator_comm: String,
    wal_fs: String,
) -> Result<RunData, String> {
    let maps = d.clock_maps()?;
    let gen = generator::drive(d, &args.workload, args.seed, args.seconds)?;
    // Drain: every process delivers every submission (plus the set-up
    // probe) or the deadline passes and the missing ones count as failed.
    let expected = gen.subs.len() as u64 + 1;
    d.wait_until(DRAIN_TIMEOUT, |s| {
        s.procs
            .iter()
            .all(|p| p.total_delivered.load(Relaxed) >= expected)
    });
    let maps_end = d.clock_maps()?;

    let shared = &d.shared;
    let broadcasts: Vec<Vec<(u64, MsgId)>> = shared
        .procs
        .iter()
        .map(|p| p.log().broadcasts.clone())
        .collect();
    let deliveries: Vec<Vec<(u32, u64, MsgId)>> = shared
        .procs
        .iter()
        .map(|p| p.log().deliveries.clone())
        .collect();
    let accepted: Vec<MsgId> = broadcasts.iter().flatten().map(|&(_, id)| id).collect();
    let mut final_agreed = Vec::with_capacity(N);
    let mut undelivered = Vec::with_capacity(N);
    let mut decode_failures = 0;
    for i in 0..N {
        let p = ProcessId::new(i as u32);
        let ids = accepted.clone();
        let (queue, missing, failures) = d
            .runtime
            .inspect(p, move |a| {
                let missing: BTreeSet<MsgId> = ids
                    .into_iter()
                    .filter(|id| !a.protocol().is_delivered(*id))
                    .collect();
                (a.protocol().agreed().clone(), missing, a.decode_failures())
            })
            .ok_or_else(|| format!("{p} is down at the end of the run"))?;
        final_agreed.push(queue);
        undelivered.push(missing);
        decode_failures += failures;
    }
    Ok(RunData {
        traced: args.traced,
        setup_s,
        gen,
        maps,
        maps_end,
        broadcasts,
        deliveries,
        final_agreed,
        undelivered,
        decode_failures,
        generator_comm,
        accept_ns: shared.accept_times(),
        commit_us: shared.procs.iter().map(|p| p.commit_samples()).collect(),
        unordered_len: shared.procs.iter().map(|p| p.unordered_samples()).collect(),
        spans: if args.traced {
            shared.procs.iter().map(|p| p.spans()).collect()
        } else {
            Vec::new()
        },
        wal_fs,
    })
}

/// Writes the traced run's spans, one per line, replacing the previous
/// trace of the same workload.
fn write_spans(w: &Workload, spans: &[Vec<probe::Span>]) -> Result<(), String> {
    let path = PathBuf::from(WORK_DIR).join(format!("trace-{}.tsv", w.name));
    let mut out = String::from("process\tspan\tstart_ns\tend_ns\tparent\tmsg\n");
    for (p, list) in spans.iter().enumerate() {
        for s in list {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let msg = s.msg.map_or_else(|| "-".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "p{p}\t{}\t{}\t{}\t{parent}\t{msg}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
    }
    fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let n = m.samples.map_or_else(String::new, |n| format!(" (n={n})"));
        println!("  {:<36} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
}

fn report(args: &Args, a: &analysis::Analysis) {
    print_metrics("end-to-end", &a.end_to_end);
    print_metrics("end-to-end, not gated", &a.ungated);
    if args.traced {
        print_metrics("per-layer", &a.per_layer);
    }
    for note in &a.notes {
        println!("  note: {note}");
    }
    for p in &a.problems {
        println!("  PROBLEM: {p}");
    }
    let metrics = if args.traced {
        &a.per_layer
    } else {
        &a.end_to_end
    };
    let correct = a.problems.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let figures: Vec<&Metric> = a.end_to_end.iter().chain(&a.ungated).collect();
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{{\"end_to_end\": {}}}", json_metrics(&figures));
    let _ = writeln!(
        stdout,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        a.attempted,
        a.failed,
        json_metrics(&metrics.iter().collect::<Vec<_>>())
    );
    let _ = stdout.flush();
}

/// `{"<name>": {"value": <v>, "unit": "<unit>"}, ...}`
fn json_metrics(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
