//! `apc-benchmark`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! apc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! apc-benchmark --aa <N> [--seconds <s>]      two sets of N runs per workload, compared
//! apc-benchmark --smoke                       every workload at 5% length, all checks on
//! ```

mod check;
mod clock;
mod driver;
mod layers;
mod metrics;
mod reference;
mod run;
mod spans;
mod stats;
mod stream;
mod sys;
mod world;

use std::process::{Command, ExitCode};

use metrics::{value_in, END_TO_END};
use stats::{median, quartiles};
use stream::{Workload, NOMINAL_SECONDS, WORKLOADS};

/// `--smoke` runs every workload at this share of its nominal length.
const SMOKE_SHARE: f64 = 0.05;
/// A paced run that did nothing worse than shed guests
/// (`run::Refusal::repeat`) is repeated, in a fresh process, until this
/// many attempts have been made.
const MAX_ATTEMPTS: u32 = 5;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    smoke: bool,
    attempt: u32,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        aa: None,
        smoke: false,
        attempt: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".to_string());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--aa" => {
                cli.aa = Some(value("a run count")?.parse().map_err(|e| format!("--aa: {e}"))?)
            }
            "--smoke" => cli.smoke = true,
            // Set by the benchmark itself when it repeats a run.
            "--attempt" => {
                cli.attempt = value("a number")?.parse().map_err(|e| format!("--attempt: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in a fresh process (so that every run starts from
/// the same heap) and returns its result line.
fn run_child(wl: &Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", wl.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: {}",
            wl.name,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().map(str::to_string).ok_or(format!("{}: no result line", wl.name))
}

/// Every workload once at [`SMOKE_SHARE`] of its length, all checks on.
fn smoke() -> Result<(), String> {
    for wl in &WORKLOADS {
        let started = std::time::Instant::now();
        let line = run_child(wl, 1, NOMINAL_SECONDS * SMOKE_SHARE)?;
        println!("{:<14} ok in {:>5.1} s  {line}", wl.name, started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// The A/A check: each workload `2 × n` times, the runs dealt
/// alternately to two sets of the same code, and for every end-to-end
/// metric the gap between the sets' medians against the metric's bound.
fn aa(n: usize, seconds: f64) -> Result<(), String> {
    if n < 2 {
        return Err("--aa needs at least 2 runs per set".to_string());
    }
    let mut breaches = 0;
    for wl in &WORKLOADS {
        // sets[set][metric] = the set's values
        let mut sets = [vec![Vec::new(); END_TO_END.len()], vec![Vec::new(); END_TO_END.len()]];
        for run in 0..2 * n {
            // A B B A A B B A ...: neither set always runs first.
            let set = run.div_ceil(2) % 2;
            let line = run_child(wl, 1 + (run / 2) as u64, seconds)?;
            eprintln!("{} run {}/{} (set {})", wl.name, run + 1, 2 * n, ["A", "B"][set]);
            for (m, values) in END_TO_END.iter().zip(sets[set].iter_mut()) {
                values.push(
                    value_in(&line, m.name)
                        .ok_or(format!("{}: {} not reported", wl.name, m.name))?,
                );
            }
        }
        println!("{}", wl.name);
        println!(
            "  {:<16} {:>34} {:>34} {:>8} {:>7}",
            "metric", "A: q1 / median / q3", "B: q1 / median / q3", "gap", "bound"
        );
        let [set_a, set_b] = &mut sets;
        for (m, (a, b)) in END_TO_END.iter().zip(set_a.iter_mut().zip(set_b.iter_mut())) {
            let (qa, qb) = (quartiles(a), quartiles(b));
            let (ma, mb) = (median(a), median(b));
            let gap = (ma - mb).abs() / ma.min(mb);
            let breach = gap > m.bound;
            breaches += usize::from(breach);
            let show = |q: [f64; 3], mid: f64| format!("{:.4} / {:.4} / {:.4}", q[0], mid, q[2]);
            println!(
                "  {:<16} {:>34} {:>34} {:>7.2}% {:>6.0}%{}",
                m.name,
                show(qa, ma),
                show(qb, mb),
                gap * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    if breaches > 0 {
        return Err(format!(
            "{breaches} end-to-end metrics disagree between two sets of the same code"
        ));
    }
    Ok(())
}

/// Replaces this process with a fresh one running the same command as
/// attempt `attempt`: a run must start from an untouched heap. Returns
/// only if that failed.
fn again(args: &[String], attempt: u32) -> String {
    use std::os::unix::process::CommandExt;
    let Ok(exe) = std::env::current_exe() else { return "cannot find own executable".to_string() };
    let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
    if let Some(at) = args.iter().position(|a| *a == "--attempt") {
        args.drain(at..at + 2);
    }
    let error = Command::new(exe).args(args).args(["--attempt", &attempt.to_string()]).exec();
    format!("cannot start attempt {attempt}: {error}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| {
        if cli.smoke {
            smoke()
        } else if let Some(n) = cli.aa {
            aa(n, cli.seconds)
        } else {
            let name = cli.workload.ok_or("--workload is required")?;
            let wl = stream::workload(&name).ok_or(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            ))?;
            let run = run::RunArgs {
                wl,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                attempt: cli.attempt,
            };
            run::run(&run).map_err(|refusal| {
                if refusal.repeat && cli.attempt < MAX_ATTEMPTS {
                    eprintln!(
                        "apc-benchmark: attempt {}: {}; repeating",
                        cli.attempt, refusal.reason
                    );
                    return again(&args, cli.attempt + 1);
                }
                refusal.reason
            })
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("apc-benchmark: {reason}");
            ExitCode::FAILURE
        }
    }
}
