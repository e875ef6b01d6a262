//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! bash perfbench/run.sh --workload tables --seed 2015 --seconds 10 --trace 0
//! ```
//!
//! Every workload is a closed loop with one client: a pass starts only
//! after the previous pass has been read to the end. Untraced runs
//! (`--trace 0`) print the end-to-end metrics; a traced run (`--trace 1`)
//! times calls into each layer's public functions over all four workloads
//! and prints the per-layer metrics. Every pass's JSONL output is checked
//! byte for byte against a serial in-process reference computed outside
//! every timed region; any mismatch fails the run (exit code 1).
//!
//! `ringlab …` as the first argument runs the `ringlab` CLI entry point
//! (`ring_harness::cli::run`): the `fleet` workload's daemon and workers
//! are this binary in that mode.

mod fleet;
mod layers;
mod report;
mod trace;
mod workloads;

use report::{median, metric, Metric};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Grid, Workload, JOBS};

const USAGE: &str = "usage: ring-perfbench --workload <tables|faults|scaling_cold|fleet|all> \
[--seed N (default 2015)] [--seconds S (default 10)] [--trace 0|1] [--grid full|tiny] \
[--corrupt-reference]";

/// An in-process run sets up at least `SETUPS` times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median. A fleet sets up
/// `FLEET_SETUPS` times. A `scaling_cold` set-up includes starting one pass
/// process over no items, the fixed start-up cost every one of its passes
/// pays.
const SETUPS: usize = 20;
const SETUP_SECONDS: f64 = 0.05;
const FLEET_SETUPS: usize = 5;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Flips one byte of every reference, so every pass must fail: the
    /// smoke test's check that the output check can fail.
    corrupt_reference: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 2015,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_reference: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                options.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?]
                };
                i += 1;
            }
            "--seed" => {
                options.seed = value(i)?.parse().map_err(|_| "--seed takes an integer")?;
                i += 1;
            }
            "--seconds" => {
                options.seconds = value(i)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
                i += 1;
            }
            "--trace" => {
                options.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
                i += 1;
            }
            "--grid" => {
                options.tiny = match value(i)?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err("--grid takes full or tiny".into()),
                };
                i += 1;
            }
            "--corrupt-reference" => options.corrupt_reference = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if options.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(options)
}

/// What one workload's run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The run's scratch directory inside the checkout, removed when the run
/// ends (traces are written next to it and kept).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ringlab") => std::process::exit(ring_harness::cli::run(&args[1..])),
        Some(workloads::COLD_PASS) => {
            if let Err(message) = workloads::cold_pass_child(&args[1..]) {
                eprintln!("ring-perfbench: {message}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ring-perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&options) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("ring-perfbench: {message}");
            std::process::exit(1);
        }
    }
}

fn run(options: &Options) -> Result<bool, String> {
    let hardware = report::hardware();
    println!(
        "{}",
        serde_json::to_string(&serde::Value::Object(vec![("hardware".into(), hardware)]))
            .expect("serializable hardware")
    );
    let root = Path::new(".bench_run");
    let scratch = Scratch(root.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let grid = Grid::new(options.tiny, options.seed);
    let seconds = Duration::from_secs_f64(options.seconds);
    let mut all_correct = true;
    for &workload in &options.workloads {
        let outcome = if options.trace {
            let traces = root.join("traces");
            std::fs::create_dir_all(&traces)
                .map_err(|e| format!("cannot create {}: {e}", traces.display()))?;
            let path = traces.join(format!(
                "trace-{}-seed{}.jsonl",
                workload.name(),
                options.seed
            ));
            layers::traced_run(&grid, seconds, options.corrupt_reference, &scratch.0, &path)?
        } else if workload == Workload::Fleet {
            measure_fleet(&grid, seconds, options.corrupt_reference, &scratch.0)?
        } else {
            measure_in_process(
                workload,
                &grid,
                seconds,
                options.corrupt_reference,
                &scratch.0,
            )?
        };
        let correct = outcome.failed == 0;
        all_correct &= correct;
        println!("# workload {} (seed {})", workload.name(), options.seed);
        for m in &outcome.metrics {
            println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{:<44} {:>16.6} ratio ({} of {} cases failed)",
            "fail_frac",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
        println!(
            "{}",
            report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
        );
    }
    Ok(all_correct)
}

pub fn corrupt(reference: &mut [u8]) {
    if let Some(byte) = reference.first_mut() {
        *byte ^= 0x20;
    }
}

/// Runs `pass` in a closed loop until `seconds` have passed (at least
/// `min` times).
pub fn closed_loop(
    seconds: Duration,
    min: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + seconds;
    let mut done = 0;
    while done < min || Instant::now() < deadline {
        pass()?;
        done += 1;
    }
    Ok(())
}

fn measure_in_process(
    workload: Workload,
    grid: &Grid,
    seconds: Duration,
    corrupt_reference: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let log = scratch.join("pass.log");
    let mut setups = Vec::new();
    let mut prepared = None;
    let began = Instant::now();
    while setups.len() < SETUPS || began.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        let items = grid.items(workload);
        let store = Arc::new(ring_harness::StructureStore::in_memory());
        if workload.warm() {
            workloads::warm_structures(&store, &items);
        }
        let engine = ring_harness::SweepEngine::with_store(JOBS, Arc::clone(&store));
        std::hint::black_box(&engine);
        if !workload.warm() {
            workloads::cold_start(&log)?;
        }
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((items, store));
    }
    let (items, store) = prepared.expect("at least one set-up");
    let mut reference = workloads::reference_bytes(&items);
    if corrupt_reference {
        corrupt(&mut reference);
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rates, mut firsts, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    closed_loop(seconds, 3, || {
        let pass = workloads::pass(workload, grid, &items, &store, JOBS, &log)?;
        attempted += items.len() as u64;
        failed += workloads::failed_cases(&pass.bytes, &reference, items.len()) as u64;
        rates.push(items.len() as f64 / pass.wall_s);
        firsts.push(pass.first_record_s);
        peaks.extend(pass.peak_rss_mb);
        Ok(())
    })?;
    // A pass in its own process reports its own peak; otherwise the peak
    // is this process's.
    let peak = if peaks.is_empty() {
        report::peak_rss_mb(std::process::id())
    } else {
        median(&peaks)
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", "s", median(&setups)),
            metric("cases_per_s", "cases/s", median(&rates)),
            metric("first_record_s", "s", median(&firsts)),
            metric("peak_rss_mb", "MB", peak),
        ],
    })
}

/// Starts `FLEET_SETUPS` fleets (all but the last are shut down again) and
/// returns the set-up times and the running fleet.
pub fn start_fleets(scratch: &Path, count: usize) -> Result<(Vec<f64>, fleet::Fleet), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for k in 0..count {
        let start = Instant::now();
        let fleet = fleet::Fleet::start(&scratch.join(format!("fleet-{k}")))?;
        setups.push(start.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(fleet) {
            fleet::Fleet::shutdown(previous)?;
        }
    }
    Ok((setups, last.expect("at least one fleet")))
}

/// One fleet pass: submit, read the results to the end, check them. HTTP
/// and worker errors fail every case of the pass.
pub struct FleetPass {
    pub run: Option<u64>,
    pub wall_s: f64,
    pub first_record_s: f64,
    pub failed: usize,
}

pub fn fleet_pass(fleet: &fleet::Fleet, grid: &Grid, reference: &[u8], cases: usize) -> FleetPass {
    let start = Instant::now();
    let outcome = fleet
        .submit(&grid.tables)
        .and_then(|run| fleet.results(run).map(|(bytes, first)| (run, bytes, first)));
    let wall_s = start.elapsed().as_secs_f64();
    match outcome {
        Ok((run, bytes, first)) => FleetPass {
            run: Some(run),
            wall_s,
            first_record_s: first.map_or(wall_s, |t| t.duration_since(start).as_secs_f64()),
            failed: workloads::failed_cases(&bytes, reference, cases),
        },
        Err(e) => {
            eprintln!("ring-perfbench: fleet pass failed: {e}");
            FleetPass {
                run: None,
                wall_s,
                first_record_s: wall_s,
                failed: cases,
            }
        }
    }
}

fn measure_fleet(
    grid: &Grid,
    seconds: Duration,
    corrupt_reference: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let items = grid.items(Workload::Fleet);
    // The reference of the in-process sweep: the fleet's bytes must equal
    // what `tables` produces, across the process boundary.
    let mut reference = workloads::reference_bytes(&items);
    if corrupt_reference {
        corrupt(&mut reference);
    }
    let (setups, fleet) = start_fleets(scratch, FLEET_SETUPS)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rates, mut firsts) = (Vec::new(), Vec::new());
    let mut previous_run = None;
    let stopped = closed_loop(seconds, 3, || {
        let pass = fleet_pass(&fleet, grid, &reference, items.len());
        attempted += items.len() as u64;
        failed += pass.failed as u64;
        rates.push(items.len() as f64 / pass.wall_s);
        firsts.push(pass.first_record_s);
        // The previous run has merged by now (the daemon runs one at a
        // time); its directory is no longer read by anyone.
        if let Some(run) = std::mem::replace(&mut previous_run, pass.run) {
            std::fs::remove_dir_all(fleet.run_dir(run)).ok();
        }
        match pass.run {
            Some(_) => Ok(()),
            None => Err("the fleet failed a pass".into()),
        }
    });
    // A failed pass is already counted in `failed`; stop and report it.
    if let Err(e) = stopped {
        eprintln!("ring-perfbench: {e}");
    }
    let peak = fleet.peak_rss_mb();
    fleet.shutdown()?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", "s", median(&setups)),
            metric("cases_per_s", "cases/s", median(&rates)),
            metric("first_record_s", "s", median(&firsts)),
            metric("peak_rss_mb", "MB", peak),
        ],
    })
}
