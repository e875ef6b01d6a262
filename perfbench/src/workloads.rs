//! The four workloads: their inputs (a pure function of the seed and the
//! grid), their set-up, the serial reference their output is checked
//! against, and one untraced pass of each.

use ring_experiments::distinguisher_scaling::ScalingSpec;
use ring_experiments::{FaultAxes, SweepSpec};
use ring_harness::scenario::{faults_items, scaling_items, table1_items, table2_items};
use ring_harness::{JsonlSink, StructureStore, SweepEngine, WorkItem};
use ring_protocols::structures::StructureProvider;
use std::io::{Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of every in-process pass: the core count of the box the
/// bounds were set on, so no pass measures oversubscription.
pub const JOBS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Tables,
    Faults,
    ScalingCold,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tables,
        Workload::Faults,
        Workload::ScalingCold,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tables => "tables",
            Workload::Faults => "faults",
            Workload::ScalingCold => "scaling_cold",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether passes reuse structures warmed during set-up (`false`: every
    /// pass starts from an empty in-memory store).
    pub fn warm(self) -> bool {
        !matches!(self, Workload::ScalingCold)
    }
}

/// The input grid. `tiny` is the smoke test's grid; `full` the measured one.
#[derive(Clone, Debug)]
pub struct Grid {
    pub tiny: bool,
    pub seed: u64,
    pub tables: SweepSpec,
    pub faults: SweepSpec,
    pub scaling: ScalingSpec,
}

impl Grid {
    pub fn new(tiny: bool, seed: u64) -> Grid {
        let sweep =
            |sizes: &[usize], factors: &[u64], reps: u64, faults: Option<FaultAxes>| SweepSpec {
                sizes: sizes.to_vec(),
                universe_factors: factors.to_vec(),
                repetitions: reps,
                seed,
                structure_seeds: None,
                faults,
            };
        let axes = |drops: &[u64]| FaultAxes {
            drops: drops.to_vec(),
            crashes: 1,
            churn: 0,
            adversarial: false,
        };
        if tiny {
            Grid {
                tiny,
                seed,
                tables: sweep(&[15, 16], &[4], 1, None),
                faults: sweep(&[15, 16], &[4], 1, Some(axes(&[0, 100]))),
                scaling: ScalingSpec {
                    universe: 1 << 10,
                    sizes: vec![16, 32],
                    seed,
                },
            }
        } else {
            Grid {
                tiny,
                seed,
                tables: sweep(
                    &[15, 16, 31, 32, 63, 64, 127, 128, 255, 256],
                    &[4, 64],
                    6,
                    None,
                ),
                faults: sweep(
                    &[64, 63, 32, 31, 16, 15],
                    &[4],
                    10,
                    Some(axes(&[0, 50, 100, 200, 400])),
                ),
                scaling: ScalingSpec {
                    universe: 1 << 17,
                    sizes: vec![16, 32, 64],
                    seed,
                },
            }
        }
    }

    /// The item list a workload runs. `fleet` runs the `tables` items (the
    /// `ringlab sweep` list), submitted to the daemon as a spec.
    pub fn items(&self, workload: Workload) -> Vec<WorkItem> {
        match workload {
            Workload::Tables | Workload::Fleet => {
                let mut items = table1_items(&self.tables);
                items.extend(table2_items(&self.tables));
                items
            }
            Workload::Faults => faults_items(&self.faults),
            Workload::ScalingCold => scaling_items(&self.scaling),
        }
    }
}

/// Resolves every structure the items will request, so timed passes find
/// them in the store's memory tier. Strong-distinguisher prefixes are
/// materialised as far as the largest ring that uses them needs.
pub fn warm_structures(store: &StructureStore, items: &[WorkItem]) {
    use ring_combinat::StructureKind;
    let mut keys: Vec<(ring_combinat::StructureKey, usize)> = Vec::new();
    for item in items {
        for (key, hint) in item.structure_keys() {
            match keys.iter_mut().find(|(k, _)| *k == key) {
                Some((_, existing)) => *existing = (*existing).max(hint),
                None => keys.push((key, hint)),
            }
        }
    }
    for (key, hint) in keys {
        match key.kind {
            StructureKind::StrongDistinguisher => {
                let strong = store.strong_distinguisher(key.universe, key.seed);
                for i in 0..strong.prefix_size_for(hint.max(2)) {
                    std::hint::black_box(strong.set(i));
                }
            }
            StructureKind::Distinguisher => {
                store.distinguisher(key.universe, key.n as usize, key.seed);
            }
            StructureKind::SelectiveFamily => {
                store.selective_family(key.universe, key.n as usize, key.seed);
            }
        }
    }
}

/// The JSONL bytes of a serial (one job, in-process, fresh store) run of
/// the items: what every pass of the workload must reproduce byte for byte.
pub fn reference_bytes(items: &[WorkItem]) -> Vec<u8> {
    let engine = SweepEngine::new(1);
    let sink = JsonlSink::new(Vec::new());
    engine.run(items, Some(&sink));
    sink.finish()
}

/// Checks one pass's output against the reference and returns the number
/// of failed cases: a case fails when its line differs from the
/// reference's, is missing, or is a Table I/II record not `verified`.
pub fn failed_cases(bytes: &[u8], reference: &[u8], cases: usize) -> usize {
    let got: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let want: Vec<&[u8]> = reference.split(|&b| b == b'\n').collect();
    let mut failed = 0;
    for i in 0..cases {
        let line = got.get(i).copied().unwrap_or_default();
        let differs = want.get(i).copied() != Some(line);
        if differs || unverified_table_record(line) {
            failed += 1;
        }
    }
    // Lines beyond the expected cases (a duplicated or foreign record).
    let extra = got.iter().skip(cases).filter(|l| !l.is_empty()).count();
    failed + extra
}

fn unverified_table_record(line: &[u8]) -> bool {
    let Ok(record) = std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    else {
        return true;
    };
    let table = matches!(
        record.get("experiment").and_then(serde::Value::as_str),
        Some("table1" | "table2")
    );
    table && record.get("verified").and_then(serde::Value::as_bool) != Some(true)
}

/// A writer that notes when its first byte arrives: the time the first
/// record reached the client of an in-process pass.
pub struct FirstWrite {
    pub bytes: Vec<u8>,
    pub first: Option<Instant>,
}

impl Write for FirstWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.first.is_none() && !buf.is_empty() {
            self.first = Some(Instant::now());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one pass produced.
pub struct PassOutcome {
    pub wall_s: f64,
    pub first_record_s: f64,
    pub bytes: Vec<u8>,
    pub steals: u64,
    /// Peak resident memory of the pass's own process (`scaling_cold`).
    pub peak_rss_mb: Option<f64>,
}

/// One untraced pass of `workload` at `jobs` workers. Warm workloads run
/// `SweepEngine::run` over the warm store in this process. A
/// `scaling_cold` pass is a fresh process running the items on a fresh
/// store ([`cold_pass_child`]): every pass pays what a cold run pays, and
/// no allocator state carries over from earlier passes (in one process,
/// memory kept from earlier passes made later ones faster and larger, by
/// chance per process).
pub fn pass(
    workload: Workload,
    grid: &Grid,
    items: &[WorkItem],
    store: &Arc<StructureStore>,
    jobs: usize,
    log: &Path,
) -> Result<PassOutcome, String> {
    if workload.warm() {
        Ok(engine_pass(items, store, jobs))
    } else {
        cold_pass(
            grid.seed,
            if grid.tiny { "tiny" } else { "full" },
            jobs,
            log,
        )
    }
}

/// The start-up every `scaling_cold` pass pays: a pass process over no
/// items, from spawn to exit. This is that workload's set-up.
pub fn cold_start(log: &Path) -> Result<(), String> {
    cold_pass(0, NO_ITEMS, JOBS, log).map(drop)
}

fn engine_pass(items: &[WorkItem], store: &Arc<StructureStore>, jobs: usize) -> PassOutcome {
    let start = Instant::now();
    let engine = SweepEngine::with_store(jobs, Arc::clone(store));
    let sink = JsonlSink::new(FirstWrite {
        bytes: Vec::new(),
        first: None,
    });
    engine.run(items, Some(&sink));
    let wall_s = start.elapsed().as_secs_f64();
    let out = sink.finish();
    PassOutcome {
        wall_s,
        first_record_s: out
            .first
            .map_or(wall_s, |t| t.duration_since(start).as_secs_f64()),
        bytes: out.bytes,
        steals: engine.exec_stats().steals,
        peak_rss_mb: None,
    }
}

/// The first argument that makes this binary a `scaling_cold` pass.
pub const COLD_PASS: &str = "cold-pass";

/// The grid argument of a pass process that runs no items.
const NO_ITEMS: &str = "none";

fn cold_pass(seed: u64, grid: &str, jobs: usize, log: &Path) -> Result<PassOutcome, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let log_file =
        std::fs::File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args([COLD_PASS, &seed.to_string(), grid, &jobs.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("cannot start a cold pass: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let (mut bytes, mut first) = (Vec::new(), None);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = match stdout.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("cannot read a cold pass: {e}"));
            }
        };
        if first.is_none() && chunk[..n].contains(&b'\n') {
            first = Some(Instant::now());
        }
        bytes.extend_from_slice(&chunk[..n]);
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for a cold pass: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let summary = text
        .lines()
        .last()
        .and_then(|line| serde_json::from_str(line).ok())
        .filter(|_| status.success())
        .ok_or_else(|| format!("a cold pass failed ({status}): {text}"))?;
    let field = |name: &str| summary.get(name).and_then(serde::Value::as_f64);
    Ok(PassOutcome {
        wall_s,
        first_record_s: first.map_or(wall_s, |t| t.duration_since(start).as_secs_f64()),
        bytes,
        steals: field("steals").unwrap_or(0.0) as u64,
        peak_rss_mb: field("peak_rss_mb"),
    })
}

/// `cold-pass <seed> <tiny|full|none> <jobs>`: runs the `scaling_cold`
/// items (none for `none`) through `SweepEngine::run` on a fresh store,
/// streaming the JSONL to standard output, then reports the process's peak
/// resident memory and the executor's steals as one JSON line on standard
/// error.
pub fn cold_pass_child(args: &[String]) -> Result<(), String> {
    let [seed, grid, jobs] = args else {
        return Err(format!("usage: {COLD_PASS} <seed> <tiny|full|none> <jobs>"));
    };
    let seed = seed.parse().map_err(|_| "bad seed")?;
    let jobs = jobs.parse().map_err(|_| "bad job count")?;
    let items = if grid == NO_ITEMS {
        Vec::new()
    } else {
        Grid::new(grid == "tiny", seed).items(Workload::ScalingCold)
    };
    let engine = SweepEngine::new(jobs);
    let sink = JsonlSink::new(std::io::stdout());
    engine.run(&items, Some(&sink));
    sink.finish()
        .flush()
        .map_err(|e| format!("cannot write the results: {e}"))?;
    let summary = serde::Value::Object(vec![
        (
            "peak_rss_mb".into(),
            serde::Value::Float(crate::report::peak_rss_mb(std::process::id())),
        ),
        (
            "steals".into(),
            serde::Value::Uint(engine.exec_stats().steals),
        ),
    ]);
    eprintln!(
        "{}",
        serde_json::to_string(&summary).expect("serializable summary")
    );
    Ok(())
}
