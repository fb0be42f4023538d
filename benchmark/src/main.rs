//! One-command end-to-end benchmark of the optimizing Prolog front end
//! and its relational back end. See `benchmark/README.md`.
//!
//! ```text
//! pfe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pfe-benchmark [--smoke] [--repeat <n>] [--out <file>]     # every workload
//! pfe-benchmark --print-manifest                            # BENCHMARK.json
//! ```
//!
//! A single-workload run prints a header and, as the last line of its
//! standard output, one JSON object: `correct`, `attempted`, `failed`,
//! and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

mod metrics;
mod paper;
mod storage_layer;
mod tcp;
mod trace;
mod util;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use util::{json_num, json_str};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1984;
/// Seconds one run measures when `--seconds` is not given (the value
/// `BENCHMARK.json` records as `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;
const SMOKE_SECONDS: f64 = 2.0;
/// Share of `--seconds` a traced invocation gives its untraced
/// reference segment; the traced segment gets the rest.
pub const UNTRACED_SHARE: f64 = 0.3;

const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper_small",
        "21-employee firm inside the buffer pool: metaeval + optimizer + sqlgen are most of each op, \
         so front-end CPU work shows here and only here",
    ),
    (
        "paper_large",
        "same goal stream on 7651 employees under a 16-frame pool: RQS execution and the buffer pool \
         dominate, so plan quality, eviction and the optimizer's page savings show here",
    ),
    (
        "server_reads",
        "4 TCP connections, indexed point and range SELECTs on 20000 rows that fit the pool: wire, \
         dispatch, parse, plan and snapshot reads, no locks and no WAL",
    ),
    (
        "server_mixed",
        "same reads on the table being written (20 % UPDATE/INSERT/DELETE/transactions): MVCC \
         versions, row locks, WAL force and the statement latch all engage",
    ),
];

/// Settings of one workload run.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where database files and trace files go (inside the checkout).
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Whether set-up has been repeated often enough for a stable
    /// median: three times or more, up to fifteen while all of them
    /// together stay under a second — but never past ten seconds in
    /// total. Once in smoke mode.
    pub fn enough_setups(&self, done: usize, spent_s: f64) -> bool {
        self.smoke || done >= 15 || spent_s >= 10.0 || (done >= 3 && spent_s >= 1.0)
    }

    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_dir.join(format!("{workload}.trace.jsonl"))
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: u64,
    out: Option<PathBuf>,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfe-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        println!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let result = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pfe-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS as f64
        }),
        smoke: args.smoke,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={name} seed={} seconds={} trace={} smoke={} nproc={nproc}",
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        cfg.smoke
    );
    let outcome = match name {
        "paper_small" => paper::run_spec(&paper::SMALL, args.trace, &cfg),
        "paper_large" if cfg.smoke => paper::run_spec(&paper::LARGE_SMOKE, args.trace, &cfg),
        "paper_large" => paper::run_spec(&paper::LARGE, args.trace, &cfg),
        "server_reads" => tcp::run_spec(&tcp::READS, args.trace, &cfg),
        "server_mixed" => tcp::run_spec(&tcp::MIXED, args.trace, &cfg),
        _ => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }?;
    for note in &outcome.notes {
        println!("# {note}");
    }
    let correct = outcome.failed == 0;
    println!("{}", result_line(&outcome, args.trace, correct)?);
    Ok(correct)
}

/// The contract's result object, on one line.
fn result_line(outcome: &Outcome, traced: bool, correct: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    if traced {
        for m in PER_LAYER {
            // A layer this workload does not exercise did no work: 0.
            let value = outcome.values.get(m.name).copied().unwrap_or(0.0);
            fields.push((m.name, value, m.unit));
        }
    } else {
        for m in END_TO_END {
            let value = outcome
                .values
                .get(m.name)
                .copied()
                .ok_or(format!("workload did not report {}", m.name))?;
            fields.push((m.name, value, m.unit));
        }
    }
    let metrics: Vec<String> = fields
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

// ---------------------------------------------------------------------
// Every workload, each in a fresh process
// ---------------------------------------------------------------------

/// Runs every workload untraced and traced, each in a fresh process of
/// this same executable, and writes their result lines to one file
/// (`benchmark/compare.py` takes two such files). Claims nothing.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out/results.json"));
    let mut runs = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        for repeat in 0..args.repeat {
            for trace in ["0", "1"] {
                let seed = args.seed + repeat;
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", name, "--trace", trace])
                    .args(["--seed", &seed.to_string()]);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd.output().map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or("").to_owned();
                if !output.status.success() || !last.starts_with('{') {
                    all_correct = false;
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                }
                println!("== {name} trace={trace} seed={seed}");
                print!("{stdout}");
                if last.starts_with('{') {
                    runs.push(format!(
                        "{{\"workload\": {}, \"trace\": {trace}, \"seed\": {seed}, \"result\": {last}}}",
                        json_str(name)
                    ));
                }
            }
        }
    }
    let summary = format!(
        "{{\n\"smoke\": {},\n\"runs\": [\n{}\n],\n\"claim\": null\n}}\n",
        args.smoke,
        runs.join(",\n")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, &summary).map_err(|e| e.to_string())?;
    println!(
        "== {} runs written to {}; \"claim\": null",
        runs.len(),
        out.display()
    );
    Ok(all_correct)
}

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                json_num(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
