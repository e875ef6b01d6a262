//! The `ringlab` command-line interface.
//!
//! One binary drives every experiment of the reproduction through the
//! parallel sweep engine — in one process, or sharded across many:
//!
//! ```text
//! ringlab <subcommand> [flags]
//!
//! subcommands:
//!   table1         Table I   (general setting)
//!   table2         Table II  (common sense of direction)
//!   fig1           Figure 1  (reductions: odd n / lazy / perceptive)
//!   fig2           Figure 2  (reductions: basic model, even n)
//!   scaling        distinguisher / selective-family scaling (Section IV)
//!   lower-bounds   Lemma 5 / Lemma 6 audits
//!   all            every experiment above
//!   sweep          the full table pipeline over a custom case grid
//!   faults         protocol degradation under deterministic fault
//!                  injection (message drop, crash-stop stations, churn,
//!                  adversarial activation)
//!   worker         run one shard of a subcommand, speaking the
//!                  ring-distrib/v1 protocol on stdout (orchestrator use);
//!                  with --connect ADDR: register with a `serve` daemon
//!                  and execute job frames over TCP until dismissed
//!   serve          sweep-as-a-service daemon (--listen ADDR): accept
//!                  sweep specs over HTTP/JSON, dispatch shards to
//!                  registered TCP workers, stream per-case JSONL to
//!                  subscribers; every run directory stays resumable
//!   merge          k-way-merge shard JSONL files by case_index
//!   resume         complete a partially-run sharded run directory
//!   trace          inspect span-trace sidecars:
//!                    trace summarize <RUN_DIR>  aggregate the directory's
//!                      trace-*.jsonl sidecars into a per-span time-budget
//!                      table (count, total, share, p50/p90/p99)
//!   structures     maintain an on-disk structure store:
//!                    structures prebuild <sub> [spec flags]
//!                      construct and publish every structure the
//!                      subcommand will request
//!                    structures verify   validate every store file
//!                    structures gc       drop corrupt files, stale
//!                      tmp/claim leftovers and unreferenced blobs
//!                    structures stats    per-kind blob counts, bytes and
//!                      logical-keys-per-blob dedup ratios (stderr JSON)
//!
//! flags:
//!   --quick                   reduced sizes (CI smoke)
//!   --jobs N                  worker threads (default: all cores); with
//!                             --shards: concurrent worker processes
//!   --sizes a,b,…             override ring / set sizes
//!   --universe-factors a,b,…  override universe factors (N = factor·n;
//!                             not applicable to `scaling`)
//!   --reps K                  override repetitions per configuration
//!                             (not applicable to `scaling`)
//!   --seed S                  override the base seed
//!   --jsonl PATH|-            JSONL destination (default results/<sub>.jsonl,
//!                             `-` = stdout)
//!   --no-jsonl                disable the JSONL stream
//!   --shards M                shard the sweep over M worker processes and
//!                             merge the results (byte-identical to the
//!                             single-process run)
//!   --shard i/M               run only shard i of an M-way plan in this
//!                             process (manual fleet distribution)
//!   --run-dir DIR             sharded-run directory (manifest + shard
//!                             files; default results/distrib/<sub>)
//!   --retries R               extra worker launches per failing shard
//!                             (default 1)
//!   --structure-store [DIR]   enable the on-disk structure store: every
//!                             thread and every worker process draws its
//!                             combinatorial structures from DIR (default:
//!                             results/structures, or <run-dir>/structures
//!                             for sharded runs), constructing each one
//!                             once per fleet and loading it everywhere
//!                             else; output stays byte-identical
//!   --structure-seeds K       seed-diverse sweep: rotate the cases
//!                             through K distinct structure-schedule seeds
//!                             (1 ≤ K ≤ 64), so repetitions additionally
//!                             sample structure randomness. Absent, every
//!                             case uses the protocol's fixed
//!                             STRUCTURE_SEED. Against a v2 store the K
//!                             seeds share one strong blob per universe.
//!   --fault-drops a,b,…       (`faults` only) per-mille message-drop rates
//!                             to sweep (default 0,50,100,200,400)
//!   --fault-crashes K         (`faults` only) crash-stop stations per case
//!   --fault-churn K           (`faults` only) churning stations per case
//!   --fault-adversarial       (`faults` only) rotate an adversarial
//!                             activation-denial window over the ring
//!   --shard-timeout SECS      wall-clock budget per worker attempt; a
//!                             worker exceeding it is killed and retried
//!                             (recorded in the manifest, so `resume`
//!                             supervises the same way)
//!   --render-fig3 PATH        (`faults`, single-process) additionally
//!                             write the Figure-3-style degradation
//!                             artifact (median rounds and failure % per
//!                             drop rate and ring size) to PATH
//!   --listen ADDR             (`serve`) the daemon's bind address
//!                             (host:port; port 0 picks a free port,
//!                             published in <data-dir>/endpoint)
//!   --data-dir DIR            (`serve`) daemon state directory (default
//!                             results/serve): endpoint file plus one
//!                             runs/run-NNNN/ directory per submission
//!   --lease-timeout SECS      (`serve`) how long a shard attempt waits
//!                             for an idle worker before counting as a
//!                             retryable launch failure (default 600)
//!   --connect ADDR            (`worker`) register with a serve daemon
//!                             and execute its job frames over TCP
//!   --stats                   print structure-cache / structure-store /
//!                             executor statistics as JSON on stderr
//!                             (fleet-wide aggregates for sharded runs)
//!   --trace                   write span-trace sidecars (one
//!                             trace-<pid>.jsonl per process) into the
//!                             trace directory; sweep output stays
//!                             byte-identical — telemetry never touches
//!                             stdout or shard files
//!   --trace-dir DIR           trace sidecar directory (default: the run
//!                             directory for sharded runs, results/trace
//!                             otherwise; implies --trace)
//! ```
//!
//! The spec flags — `--quick`, `--sizes`, `--universe-factors`, `--reps`,
//! `--seed`, `--structure-seeds` and the `--fault-*` axes — are the fields
//! of [`SpecParams`], declared once in [`ring_distrib::SPEC_FLAGS`]; every
//! other flag is runtime-only and never reaches a fingerprint. Spec values
//! are validated by [`resolve`] alone, for the CLI, workers, daemon
//! submissions and `resume` alike.
//!
//! Results stream to the JSONL destination incrementally in case order and
//! the markdown tables print at the end. When the JSONL stream goes to
//! stdout (`--jsonl -`) the tables are routed to **stderr**, so piped
//! output stays valid JSONL; otherwise tables go to stdout and the JSONL
//! bytes are identical for every `--jobs` and `--shards` value (run
//! metadata — jobs, elapsed time, cache statistics — always goes to
//! stderr).

use crate::engine::SweepEngine;
use crate::scenario::{resolve, CaseRecord, Resolved, WorkItem};
use crate::sink::JsonlSink;
use crate::store::StructureStore;
use ring_distrib::{
    fail_after_from_env, merge_shards, plan_shards, run_pending_shards, spec_flag, DoneEvent,
    Manifest, OrchestratorOptions, ShardTally, SpecParams, StartEvent, SPEC_FLAGS,
};
use ring_experiments::report::{aggregate, format_markdown_table};
use ring_experiments::Measurement;
use ring_protocols::structures::StructureProvider;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The usage text, with the spec-flag synopsis rendered from
/// [`SPEC_FLAGS`].
struct Usage;

const USAGE: Usage = Usage;

impl std::fmt::Display for Usage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(USAGE_TEXT)?;
        f.write_str("\n       spec flags:")?;
        for flag in SPEC_FLAGS {
            if flag.is_switch() {
                write!(f, " [{}]", flag.name)?;
            } else {
                write!(f, " [{} {}]", flag.name, flag.operand)?;
            }
        }
        Ok(())
    }
}

const USAGE_TEXT: &str =
    "usage: ringlab <table1|table2|fig1|fig2|scaling|lower-bounds|all|sweep|faults> \
[spec flags] [--jobs N] [--render-fig3 PATH] [--jsonl PATH|-] [--no-jsonl] \
[--shards M] [--shard i/M] [--run-dir DIR] [--retries R] \
[--shard-timeout SECS] [--structure-store [DIR]] [--stats] [--trace] [--trace-dir DIR]
       ringlab worker <subcommand> --shard i/M [spec flags] [--structure-store DIR]
       ringlab worker --connect ADDR
       ringlab serve --listen ADDR [--data-dir DIR] [--jobs N] [--retries R] \
[--shard-timeout SECS] [--lease-timeout SECS]
       ringlab merge [--run-dir DIR | SHARD.jsonl ..] [--jsonl PATH|-]
       ringlab resume <RUN_DIR> [--jobs N] [--jsonl PATH|-] [--stats]
       ringlab trace summarize <RUN_DIR>
       ringlab structures <prebuild <subcommand> [spec flags]\
|verify|gc|stats> [--structure-store DIR]";

/// Default structure-store directory for non-sharded invocations (sharded
/// runs default into `<run-dir>/structures` instead).
const DEFAULT_STORE_DIR: &str = "results/structures";

/// Parsed command-line options: the sweep spec plus the runtime flags.
struct Options {
    /// The `ringlab` subcommand as invoked (`sweep`, `worker`, `resume`, …).
    command: String,
    /// The sweep spec the invocation runs. `spec.subcommand` is the
    /// experiment — the command itself, or the positional of `worker <sub>`
    /// and `structures prebuild <sub>` — and empty for commands that run
    /// none (`resume` takes its spec from the manifest).
    spec: SpecParams,
    jobs: usize,
    jsonl: Option<String>,
    no_jsonl: bool,
    shards: usize,
    shard: Option<(usize, usize)>,
    run_dir: Option<String>,
    retries: u32,
    /// `None` = no store; `Some(None)` = store at the context default
    /// directory; `Some(Some(dir))` = store at an explicit directory.
    structure_store: Option<Option<String>>,
    /// `--shard-timeout` in seconds (`None` = unlimited).
    shard_timeout: Option<u64>,
    /// `serve --listen ADDR`: the daemon's bind address.
    listen: Option<String>,
    /// `worker --connect ADDR`: register with a daemon instead of running
    /// one stdio shard.
    connect: Option<String>,
    /// `serve --data-dir DIR`: the daemon's state directory (endpoint file
    /// plus `runs/run-NNNN/` run directories).
    data_dir: Option<String>,
    /// `serve --lease-timeout SECS`: how long a shard attempt waits for an
    /// idle worker before counting as a (retryable) launch failure.
    lease_timeout: Option<u64>,
    /// `faults --render-fig3 PATH`: write the Figure-3-style degradation
    /// artifact alongside the tables (single-process `faults` only).
    render_fig3: Option<String>,
    stats: bool,
    /// `--trace`: write span-trace sidecars. Runtime-only — never part of
    /// the spec fingerprint, never visible in sweep output.
    trace: bool,
    /// `--trace-dir DIR`: explicit sidecar directory (implies `--trace`);
    /// orchestrators pass the run directory to their workers through this.
    trace_dir: Option<String>,
    positionals: Vec<String>,
}

/// Subcommands `run` dispatches on (usage errors for anything else).
const SUBCOMMANDS: [&str; 15] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "scaling",
    "lower-bounds",
    "all",
    "sweep",
    "faults",
    "worker",
    "merge",
    "resume",
    "structures",
    "serve",
    "trace",
];

/// Runs the CLI on explicit arguments (without the program name), returning
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ringlab: {message}\n{USAGE}");
            return 2;
        }
    };
    // Unknown subcommands are usage errors (exit 2, like bad flags), not
    // runtime failures.
    if !SUBCOMMANDS.contains(&options.command.as_str()) {
        eprintln!("ringlab: unknown subcommand `{}`\n{USAGE}", options.command);
        return 2;
    }
    if let Err(message) = init_trace(&options) {
        eprintln!("ringlab: {message}");
        return 1;
    }
    let result = match options.command.as_str() {
        "worker" => cmd_worker(&options),
        "serve" => cmd_serve(&options),
        "merge" => cmd_merge(&options),
        "resume" => cmd_resume(&options),
        "structures" => cmd_structures(&options),
        "trace" => cmd_trace(&options),
        _ => cmd_experiment(&options),
    };
    // Flush and close the sidecar whatever the outcome: a failed run's
    // spans are exactly the ones worth reading.
    ring_obs::trace::shutdown();
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ringlab: {message}");
            1
        }
    }
}

/// Switches the span-trace layer on when `--trace` (or `--trace-dir`) was
/// given, resolving the sidecar directory against the invocation context:
/// an explicit `--trace-dir` wins, sharded runs and resumes default into
/// their run directory (next to the manifest the sidecars explain), and
/// everything else into `results/trace`. Telemetry is strictly additive —
/// sweep bytes are identical with tracing on or off.
fn init_trace(options: &Options) -> Result<(), String> {
    if !options.trace {
        return Ok(());
    }
    let dir = options.trace_dir.clone().unwrap_or_else(|| {
        if options.command == "resume" {
            options
                .run_dir
                .clone()
                .or_else(|| options.positionals.first().cloned())
                .unwrap_or_else(|| "results/trace".to_string())
        } else if options.shards > 0 {
            options
                .run_dir
                .clone()
                .unwrap_or_else(|| format!("results/distrib/{}", options.command.replace('-', "_")))
        } else {
            "results/trace".to_string()
        }
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = ring_obs::trace::init(Path::new(&dir))
        .map_err(|e| format!("cannot start the trace sidecar in {dir}: {e}"))?;
    eprintln!("ringlab: tracing spans to {}", path.display());
    Ok(())
}

/// The structure-store directory the invocation asked for (`None` = no
/// store), with a bare `--structure-store` resolving to the context's
/// default location.
fn resolve_store_dir(options: &Options, default: impl FnOnce() -> String) -> Option<String> {
    options
        .structure_store
        .as_ref()
        .map(|explicit| explicit.clone().unwrap_or_else(default))
}

/// The runtime flags every engine-running subcommand shares — `--jobs`,
/// `--stats`, `--structure-store` and the JSONL destination — resolved
/// against the invocation context in one place, so the per-subcommand
/// handlers stop repeating the store/destination/engine plumbing.
struct CommonArgs {
    jobs: usize,
    stats: bool,
    store_dir: Option<String>,
    destination: Option<String>,
}

impl Options {
    /// Resolves the shared flags. `store_default` supplies the directory a
    /// bare `--structure-store` means in this context; `jsonl_default` the
    /// stream destination when `--jsonl` was not given (`None` = no
    /// stream). `--no-jsonl` wins over both.
    fn common(
        &self,
        store_default: impl FnOnce() -> String,
        jsonl_default: impl FnOnce() -> Option<String>,
    ) -> CommonArgs {
        CommonArgs {
            jobs: self.jobs,
            stats: self.stats,
            store_dir: resolve_store_dir(self, store_default),
            destination: jsonl_destination(self, jsonl_default),
        }
    }
}

impl CommonArgs {
    /// An engine over a disk-backed store (when a directory was resolved)
    /// or a fresh memory-only store.
    fn engine(&self) -> Result<SweepEngine, String> {
        match self.store_dir.as_deref() {
            None => Ok(SweepEngine::new(self.jobs)),
            Some(dir) => {
                let store = StructureStore::at(dir)
                    .map_err(|e| format!("cannot open structure store {dir}: {e}"))?;
                Ok(SweepEngine::with_store(self.jobs, Arc::new(store)))
            }
        }
    }
}

/// An experiment subcommand: single-process, one local shard, or the full
/// multi-process orchestration.
fn cmd_experiment(options: &Options) -> Result<i32, String> {
    if !options.positionals.is_empty() {
        return Err(format!("unexpected argument `{}`", options.positionals[0]));
    }
    let resolved = resolve(&options.spec)?;
    if options.shards > 0 {
        return cmd_sharded(options, &resolved);
    }
    if let Some((shard, of)) = options.shard {
        return cmd_shard_slice(options, &resolved, shard, of);
    }
    let items = &resolved.items;

    let common = options.common(
        || DEFAULT_STORE_DIR.to_string(),
        || Some(default_jsonl(&options.command)),
    );
    let engine = common.engine()?;
    let start = Instant::now();
    let destination = common.destination.clone();
    let records = run_items_with_offset(&engine, items, 0, destination.as_deref())?;
    let elapsed = start.elapsed();

    let measurements: Vec<Measurement> = records
        .iter()
        .flat_map(|r| r.measurements.iter().cloned())
        .collect();
    print_tables(&render_markdown(&measurements), destination.as_deref());
    if let Some(path) = &options.render_fig3 {
        write_fig3(path, &measurements)?;
        eprintln!("ringlab: wrote the Figure 3 degradation artifact to {path}");
    }

    let stats = engine.cache_stats();
    let store_note = common
        .store_dir
        .as_deref()
        .map(|dir| {
            let store = engine.store_stats();
            format!(
                "; structure store: {} loads / {} constructions at {dir}",
                store.hits, store.misses
            )
        })
        .unwrap_or_default();
    eprintln!(
        "ringlab: {} cases in {:.2}s ({} jobs requested, {:.1} cases/s); \
structure cache: {} hits / {} misses ({:.0}% hit rate){store_note}",
        items.len(),
        elapsed.as_secs_f64(),
        if common.jobs == 0 {
            crate::executor::available_jobs()
        } else {
            common.jobs
        },
        items.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    );
    if common.stats {
        print_engine_stats(&engine);
    }
    Ok(0)
}

/// Prints the markdown tables on stdout, or on stderr when the JSONL
/// stream already owns stdout (so `ringlab … --jsonl - | tool` stays valid
/// JSONL).
fn print_tables(markdown: &str, destination: Option<&str>) {
    if destination == Some("-") {
        eprint!("{markdown}");
    } else {
        print!("{markdown}");
    }
}

/// Overlays the engine's own cache / store / executor counters onto a
/// registry snapshot (ring-obs/v1) under their canonical names. Every stats
/// consumer — `--stats` over the global snapshot, the worker done event
/// over its job's delta, the daemon — reports from this one schema.
fn with_engine_counters(
    mut snapshot: ring_obs::Snapshot,
    engine: &SweepEngine,
) -> ring_obs::Snapshot {
    let cache = engine.cache_stats();
    let store = engine.store_stats();
    let exec = engine.exec_stats();
    snapshot.set_counter("cache_hits", cache.hits);
    snapshot.set_counter("cache_misses", cache.misses);
    snapshot.set_counter("store_hits", store.hits);
    snapshot.set_counter("store_misses", store.misses);
    snapshot.set_counter("executor_executed", exec.executed);
    snapshot.set_counter("executor_steals", exec.steals);
    snapshot
}

/// The engine's cache + store + executor statistics as one stderr JSON
/// line, sourced from the [`with_engine_counters`] schema.
fn print_engine_stats(engine: &SweepEngine) {
    #[derive(serde::Serialize)]
    struct Stats {
        cache: EngineCacheBlock,
        store: crate::store::StoreStats,
        executor: crate::executor::ExecutorStats,
    }
    // The fleet variant in `print_fleet_stats` mirrors this block minus
    // `structures` (per-worker memo sizes do not sum meaningfully); keep
    // the shared field names in step — CI and the verify recipe grep them.
    #[derive(serde::Serialize)]
    struct EngineCacheBlock {
        hits: u64,
        misses: u64,
        hit_rate: f64,
        structures: usize,
    }
    let snapshot = with_engine_counters(ring_obs::global().snapshot(), engine);
    let hits = snapshot.counter("cache_hits");
    let misses = snapshot.counter("cache_misses");
    let total = hits + misses;
    let stats = Stats {
        cache: EngineCacheBlock {
            hits,
            misses,
            hit_rate: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
            structures: engine.cache().len(),
        },
        store: crate::store::StoreStats {
            hits: snapshot.counter("store_hits"),
            misses: snapshot.counter("store_misses"),
        },
        executor: crate::executor::ExecutorStats {
            executed: snapshot.counter("executor_executed"),
            steals: snapshot.counter("executor_steals"),
        },
    };
    eprintln!(
        "ringlab: stats {}",
        serde_json::to_string(&stats).expect("serializable stats")
    );
}

/// Fleet-wide aggregates of a sharded run — the sum over every completed
/// shard's worker counters, printed as one stderr JSON line (the per-shard
/// breakdown stays in the manifest).
fn print_fleet_stats(manifest: &Manifest) {
    #[derive(serde::Serialize)]
    struct FleetStats {
        shards: usize,
        completed_shards: usize,
        records: usize,
        cache: CacheBlock,
        store: StoreBlock,
        executor: StealsBlock,
    }
    // Field names mirror `print_engine_stats`'s cache block (sans the
    // per-process `structures` count).
    #[derive(serde::Serialize)]
    struct CacheBlock {
        hits: u64,
        misses: u64,
        hit_rate: f64,
    }
    #[derive(serde::Serialize)]
    struct StoreBlock {
        hits: u64,
        misses: u64,
    }
    #[derive(serde::Serialize)]
    struct StealsBlock {
        steals: u64,
    }
    // Aggregated from the completed shards' ring-obs/v1 snapshots (the
    // final successful attempt of each shard — a retried shard's earlier
    // attempts never double-count), synthesizing from legacy counters for
    // manifests that predate the snapshots.
    let snapshot = manifest.aggregate_metrics();
    let hits = snapshot.counter("cache_hits");
    let misses = snapshot.counter("cache_misses");
    let cache_total = hits + misses;
    let stats = FleetStats {
        shards: manifest.shards.len(),
        completed_shards: manifest
            .shards
            .iter()
            .filter(|s| s.status == ring_distrib::ShardStatus::Complete)
            .count(),
        records: manifest.aggregate_stats().records,
        cache: CacheBlock {
            hits,
            misses,
            hit_rate: if cache_total == 0 {
                0.0
            } else {
                hits as f64 / cache_total as f64
            },
        },
        store: StoreBlock {
            hits: snapshot.counter("store_hits"),
            misses: snapshot.counter("store_misses"),
        },
        executor: StealsBlock {
            steals: snapshot.counter("executor_steals"),
        },
    };
    eprintln!(
        "ringlab: stats {}",
        serde_json::to_string(&stats).expect("serializable stats")
    );
}

/// The JSONL destination (`None` = disabled): `--no-jsonl` wins, then
/// `--jsonl`, then the context's `default`.
fn jsonl_destination(
    options: &Options,
    default: impl FnOnce() -> Option<String>,
) -> Option<String> {
    if options.no_jsonl {
        None
    } else {
        options.jsonl.clone().or_else(default)
    }
}

/// The default JSONL destination of an experiment subcommand.
fn default_jsonl(subcommand: &str) -> String {
    format!("results/{}.jsonl", subcommand.replace('-', "_"))
}

/// Opens a JSONL destination for writing (`-` = stdout).
fn open_destination(destination: &str) -> Result<Box<dyn Write + Send>, String> {
    if destination == "-" {
        return Ok(Box::new(std::io::stdout()));
    }
    if let Some(parent) = Path::new(destination).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    Ok(Box::new(std::fs::File::create(destination).map_err(
        |e| format!("cannot create {destination}: {e}"),
    )?))
}

// ---------------------------------------------------------------------
// Sharded execution.
// ---------------------------------------------------------------------

/// `--shard i/M`: runs one shard of the plan in this process, writing the
/// shard's records (with their global case indices) as plain JSONL. The
/// shard files of all M runs merge — `ringlab merge` — into the exact
/// single-process stream.
fn cmd_shard_slice(
    options: &Options,
    resolved: &Resolved,
    shard: usize,
    of: usize,
) -> Result<i32, String> {
    let items = &resolved.items;
    let range = plan_shards(items.len(), of)[shard];
    // Fleet mode: a shared store directory is how hand-partitioned workers
    // on one filesystem avoid rebuilding each other's structures.
    let common = options.common(
        || DEFAULT_STORE_DIR.to_string(),
        || {
            Some(format!(
                "results/{}.shard-{shard}-of-{of}.jsonl",
                options.command.replace('-', "_")
            ))
        },
    );
    let engine = common.engine()?;
    let start = Instant::now();
    run_items_with_offset(
        &engine,
        &items[range.start..range.end],
        range.start,
        common.destination.as_deref(),
    )?;
    eprintln!(
        "ringlab: shard {shard}/{of} ({} of {} cases, [{}, {})) in {:.2}s; fingerprint {}",
        range.len(),
        items.len(),
        range.start,
        range.end,
        start.elapsed().as_secs_f64(),
        resolved.fingerprint,
    );
    if common.stats {
        print_engine_stats(&engine);
    }
    Ok(0)
}

/// Executes items through the engine with the configured JSONL
/// destination; item `i` is case `offset + i` of the overall sweep.
fn run_items_with_offset(
    engine: &SweepEngine,
    items: &[WorkItem],
    offset: usize,
    destination: Option<&str>,
) -> Result<Vec<CaseRecord>, String> {
    let Some(destination) = destination else {
        return Ok(engine.run_with_offset::<Box<dyn Write + Send>>(items, offset, None));
    };
    let out = open_destination(destination)?;
    let sink = JsonlSink::new(out);
    let records = engine.run_with_offset(items, offset, Some(&sink));
    sink.finish();
    if destination != "-" {
        eprintln!(
            "ringlab: streamed {} records to {destination}",
            records.len()
        );
    }
    Ok(records)
}

/// `worker`: one shard of an experiment subcommand over stdio, or — with
/// `--connect ADDR` — a long-lived TCP worker registered with a `ringlab
/// serve` daemon. Either way the shard payload is the ring-distrib/v1
/// protocol; stderr stays human-readable.
fn cmd_worker(options: &Options) -> Result<i32, String> {
    if let Some(addr) = options.connect.clone() {
        return cmd_worker_connect(options, &addr);
    }
    run_worker_shard(options, std::io::stdout(), std::io::stdout())?;
    Ok(0)
}

/// Runs one worker shard, writing the ring-distrib/v1 protocol — start
/// event, record lines, done event — to the given writers (`event_out` and
/// `record_out` are two handles onto the same stream: stdout twice for the
/// child-process path, the daemon socket twice for `--connect`).
fn run_worker_shard<E: Write, R: Write + Send>(
    options: &Options,
    mut event_out: E,
    record_out: R,
) -> Result<(), String> {
    if options.spec.subcommand.is_empty() {
        return Err(format!("worker needs a subcommand\n{USAGE}"));
    }
    let Some((shard, of)) = options.shard else {
        return Err("worker requires --shard i/M".into());
    };
    let Resolved {
        items, fingerprint, ..
    } = resolve(&options.spec)?;
    let range = plan_shards(items.len(), of)[shard];

    let start = StartEvent::new(shard, of, range.start, range.end, &fingerprint);
    writeln!(
        event_out,
        "{}",
        serde_json::to_string(&start).expect("serializable event")
    )
    .and_then(|()| event_out.flush())
    .map_err(|e| format!("cannot write the start event: {e}"))?;

    // Orchestrated workers receive the run's store directory explicitly;
    // a hand-launched worker may also point itself at a shared one. The
    // protocol owns the stream, so the shared JSONL destination is unused.
    let common = options.common(|| DEFAULT_STORE_DIR.to_string(), || None);
    let engine = common.engine()?;
    // The done event reports this job's metrics as a delta against the
    // process registry, so a long-lived TCP worker serving many jobs (or a
    // retried shard in one process) never re-reports earlier attempts.
    let baseline = ring_obs::global().snapshot();
    let tally = ShardTally::new(record_out, fail_after_from_env());
    let sink = JsonlSink::new(tally);
    engine.run_with_offset(&items[range.start..range.end], range.start, Some(&sink));
    let tally = sink.finish();

    // The engine's own counters are per-engine (fresh every job), so they
    // overlay the delta exactly.
    let metrics = with_engine_counters(ring_obs::global().snapshot().delta(&baseline), &engine);
    let done = DoneEvent::new(
        shard,
        tally.lines() as usize,
        tally.checksum(),
        metrics.counter("cache_hits"),
        metrics.counter("cache_misses"),
        metrics.counter("executor_steals"),
    )
    .with_store(
        metrics.counter("store_hits"),
        metrics.counter("store_misses"),
    )
    .with_metrics(metrics);
    writeln!(
        event_out,
        "{}",
        serde_json::to_string(&done).expect("serializable event")
    )
    .and_then(|()| event_out.flush())
    .map_err(|e| format!("cannot write the done event: {e}"))?;
    Ok(())
}

/// `worker --connect ADDR`: dial the daemon, register with a hello frame,
/// and serve job frames until dismissed. A broken daemon socket mid-job
/// abandons the shard (the orchestrator already counts it as a retryable
/// failure) and reconnects; once the daemon is gone for good the worker
/// exits cleanly.
fn cmd_worker_connect(options: &Options, addr: &str) -> Result<i32, String> {
    use std::io::{BufRead, BufReader};

    if !options.positionals.is_empty() || options.shard.is_some() {
        return Err(
            "worker --connect takes no subcommand or --shard: jobs arrive as daemon frames".into(),
        );
    }
    let name = format!("worker-{}", std::process::id());
    let mut registered_before = false;
    loop {
        let stream = match connect_with_retry(addr) {
            Ok(stream) => stream,
            Err(e) if registered_before => {
                eprintln!("ringlab: worker {name}: daemon at {addr} is gone ({e}); exiting");
                return Ok(0);
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        };
        let hello = serde::Value::Object(vec![
            ("event".to_string(), serde::Value::Str("hello".to_string())),
            (
                "schema".to_string(),
                serde::Value::Str(ring_serve::SCHEMA.to_string()),
            ),
            ("worker".to_string(), serde::Value::Str(name.clone())),
        ]);
        let mut hello_out = &stream;
        if writeln!(
            hello_out,
            "{}",
            serde_json::to_string(&hello).expect("serializable frame")
        )
        .and_then(|()| hello_out.flush())
        .is_err()
        {
            continue;
        }
        registered_before = true;
        eprintln!("ringlab: worker {name}: registered with {addr}");
        let reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        });
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let Ok(frame) = serde_json::from_str(&line) else {
                break;
            };
            match frame.get("event").and_then(serde::Value::as_str) {
                Some("job") => {
                    let argv: Vec<String> = frame
                        .get("argv")
                        .and_then(serde::Value::as_array)
                        .map(|items| {
                            items
                                .iter()
                                .filter_map(|v| v.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default();
                    if let Err(e) = run_tcp_job(&argv, &stream) {
                        // The stream may hold a half-written shard: poison
                        // the connection and re-register on a fresh one.
                        eprintln!("ringlab: worker {name}: job failed: {e}");
                        break;
                    }
                }
                Some("shutdown") => {
                    eprintln!("ringlab: worker {name}: dismissed by the daemon");
                    return Ok(0);
                }
                _ => break,
            }
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Connects to the daemon, retrying for ~5 seconds (a worker fleet often
/// starts before — or reconnects across — the daemon's listener).
fn connect_with_retry(addr: &str) -> Result<std::net::TcpStream, String> {
    let mut last = String::from("no attempt made");
    for attempt in 0..20 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// Executes one daemon job frame: parse the argv exactly like the
/// child-process worker would have, then run the shard with the daemon
/// socket as the protocol stream. Panics are caught so a poisoned case
/// cannot take the whole worker down silently.
fn run_tcp_job(argv: &[String], stream: &std::net::TcpStream) -> Result<(), String> {
    let parsed = parse(argv).map_err(|e| format!("bad job argv: {e}"))?;
    if parsed.command != "worker" || parsed.connect.is_some() {
        return Err("job frames must carry a plain `worker` argv".into());
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_worker_shard(&parsed, stream, stream)
    })) {
        Ok(result) => result,
        Err(_) => Err("the shard panicked".into()),
    }
}

/// `serve`: the sweep-as-a-service daemon. Accepts sweep specs over
/// HTTP/JSON, dispatches shards to registered `worker --connect` processes
/// over TCP, and streams per-case JSONL to subscribers; every run
/// directory stays `ringlab resume`-able.
fn cmd_serve(options: &Options) -> Result<i32, String> {
    if !options.positionals.is_empty() {
        return Err(format!("unexpected argument `{}`", options.positionals[0]));
    }
    let Some(listen) = options.listen.clone() else {
        return Err(format!("serve requires --listen ADDR\n{USAGE}"));
    };
    let data_dir = PathBuf::from(
        options
            .data_dir
            .clone()
            .unwrap_or_else(|| "results/serve".to_string()),
    );
    // A submitted spec goes through the CLI's own resolver: it is refused
    // exactly when `ringlab` would refuse it, and otherwise records the
    // fingerprint (and case count) a `ringlab sweep` of the spec would.
    let resolver: ring_serve::SpecResolver = Box::new(|spec: &SpecParams| {
        let resolved = resolve(spec)?;
        Ok(ring_serve::ResolvedSpec {
            total_cases: resolved.items.len(),
            fingerprint: resolved.fingerprint,
        })
    });
    ring_serve::serve(ring_serve::ServeConfig {
        listen,
        data_dir,
        jobs_per_worker: if options.jobs == 0 { 1 } else { options.jobs },
        retries: options.retries,
        shard_timeout: options.shard_timeout.map(std::time::Duration::from_secs),
        lease_timeout: std::time::Duration::from_secs(options.lease_timeout.unwrap_or(600)),
        resolver,
    })?;
    Ok(0)
}

/// `--shards M`: plans, orchestrates M worker processes, merges, and
/// renders — one command, output byte-identical to the single-process run.
fn cmd_sharded(options: &Options, resolved: &Resolved) -> Result<i32, String> {
    let run_dir = PathBuf::from(
        options
            .run_dir
            .clone()
            .unwrap_or_else(|| format!("results/distrib/{}", options.command.replace('-', "_"))),
    );
    let total_cases = resolved.items.len();
    let ranges = plan_shards(total_cases, options.shards);
    let destination = jsonl_destination(options, || Some(default_jsonl(&options.command)));
    // The fleet's shared structure store defaults into the run directory,
    // next to the shard files it accelerates.
    let store_dir = resolve_store_dir(options, || {
        run_dir.join("structures").to_string_lossy().into_owned()
    });
    let manifest = Manifest::new(
        options.spec.clone(),
        resolved.fingerprint.clone(),
        total_cases,
        &ranges,
        1,
        // Empty = no JSONL output (`--no-jsonl`): a resume of this run
        // must not invent a stream the original invocation suppressed.
        destination.clone().unwrap_or_default(),
    )
    .with_structure_store(store_dir.unwrap_or_default())
    .with_shard_timeout(options.shard_timeout);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let manifest = Mutex::new(manifest);
    orchestrate_and_finish(options, &run_dir, &manifest, destination)
}

/// `resume`: revalidates a run directory against its manifest, re-runs
/// only the shards whose files do not match, and finishes the run.
fn cmd_resume(options: &Options) -> Result<i32, String> {
    let run_dir = match (&options.run_dir, options.positionals.as_slice()) {
        (Some(dir), []) => PathBuf::from(dir),
        (None, [dir]) => PathBuf::from(dir),
        (None, []) => return Err(format!("resume needs a run directory\n{USAGE}")),
        _ => return Err("resume takes exactly one run directory".into()),
    };
    let mut manifest = Manifest::load(&run_dir)?;

    // The manifest must describe a case enumeration this binary reproduces.
    let Resolved {
        items, fingerprint, ..
    } = resolve(&manifest.spec).map_err(|e| format!("manifest spec: {e}"))?;
    if fingerprint != manifest.spec_fingerprint || items.len() != manifest.total_cases {
        return Err(format!(
            "manifest fingerprint {} does not match this binary's enumeration {} \
             ({} cases vs {}): refusing to mix shards across specs",
            manifest.spec_fingerprint,
            fingerprint,
            manifest.total_cases,
            items.len(),
        ));
    }

    let demoted = manifest
        .revalidate_completed(&run_dir)
        .map_err(|e| format!("cannot revalidate {}: {e}", run_dir.display()))?;
    if !demoted.is_empty() {
        eprintln!(
            "ringlab: shards {demoted:?} no longer match their recorded checksums; re-running"
        );
    }
    // The run's structure store revalidates like its shard files: any file
    // that no longer proves itself (checksum, canonical form, key) is
    // dropped here and rebuilt by the re-launched workers — and the dead
    // fleet's orphaned claim/tmp files are swept so no re-launched worker
    // waits out a claim nobody holds.
    if !manifest.structure_store.is_empty() {
        let store_path = PathBuf::from(&manifest.structure_store);
        let swept = crate::store::sweep_stale_files(&store_path)
            .map_err(|e| format!("cannot sweep store {}: {e}", store_path.display()))?;
        if swept > 0 {
            eprintln!("ringlab: swept {swept} stale claim/tmp file(s) from the structure store");
        }
        let removed = crate::store::revalidate_store_dir(&store_path)
            .map_err(|e| format!("cannot revalidate store {}: {e}", store_path.display()))?;
        if !removed.is_empty() {
            eprintln!(
                "ringlab: {} structure file(s) failed revalidation and will be rebuilt: {:?}",
                removed.len(),
                removed
            );
        }
    }
    let pending = manifest.incomplete_shards().len();
    eprintln!(
        "ringlab: resuming {}: {pending} of {} shards to run",
        run_dir.display(),
        manifest.shards.len()
    );
    // Without an explicit destination the run keeps its recorded one; an
    // empty record means it was started with --no-jsonl, so the stream
    // stays suppressed.
    let destination = jsonl_destination(options, || {
        Some(manifest.output.clone()).filter(|output| !output.is_empty())
    });
    let manifest = Mutex::new(manifest);
    orchestrate_and_finish(options, &run_dir, &manifest, destination)
}

/// Shared tail of `--shards` and `resume`: run the incomplete shards,
/// merge, render tables, report statistics.
fn orchestrate_and_finish(
    options: &Options,
    run_dir: &Path,
    manifest: &Mutex<Manifest>,
    destination: Option<String>,
) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ringlab: {e}"))?;
    let (spec_params, jobs_per_worker, shard_count, store_dir, recorded_timeout) = {
        let m = manifest.lock().expect("manifest lock");
        (
            m.spec.clone(),
            m.jobs_per_worker,
            m.shards.len(),
            m.structure_store.clone(),
            m.shard_timeout,
        )
    };
    let orchestration = OrchestratorOptions {
        concurrency: if options.jobs == 0 {
            crate::executor::available_jobs()
        } else {
            options.jobs
        },
        retries: options.retries,
        // An explicit flag wins; otherwise `resume` supervises with the
        // budget the original run recorded.
        shard_timeout: options
            .shard_timeout
            .or(recorded_timeout)
            .map(std::time::Duration::from_secs),
    };
    let start = Instant::now();
    let outcome = run_pending_shards(run_dir, manifest, &orchestration, &|range| {
        let mut cmd = Command::new(&exe);
        cmd.args(spec_params.worker_args(jobs_per_worker, range, shard_count, &store_dir));
        // Tracing rides along runtime-only: worker sidecars land next to
        // the shard files, and the protocol stream stays byte-identical.
        if options.trace {
            cmd.arg("--trace-dir").arg(run_dir);
        }
        cmd
    })
    .map_err(|e| format!("orchestration failed: {e}"))?;
    let elapsed = start.elapsed();

    let manifest = manifest.lock().expect("manifest lock");
    if !outcome.failed.is_empty() {
        return Err(format!(
            "shards {:?} failed after {} attempt(s) each; fix the cause and run \
             `ringlab resume {}`",
            outcome.failed,
            options.retries + 1,
            run_dir.display(),
        ));
    }

    // Merge the shard files into the destination, parsing each record
    // line as it streams past so only the measurements (for the tables)
    // are retained — never the whole merged byte stream.
    let inputs = manifest.shard_files(run_dir);
    let out: Box<dyn Write + Send> = match destination.as_deref() {
        Some(dest) => open_destination(dest)?,
        None => Box::new(std::io::sink()),
    };
    let mut collector = MeasurementCollector::new(out);
    let report = merge_shards(&inputs, &mut collector, Some(manifest.total_cases))
        .map_err(|e| format!("merge failed: {e}"))?;
    let measurements = collector.finish()?;
    print_tables(&render_markdown(&measurements), destination.as_deref());

    let stats = manifest.aggregate_stats();
    let store_note = if manifest.structure_store.is_empty() {
        String::new()
    } else {
        format!(
            ", {} store loads / {} constructions",
            stats.store_hits, stats.store_misses
        )
    };
    eprintln!(
        "ringlab: {} cases over {} shards ({} run now, {} concurrent workers) in {:.2}s; \
merged {} records (checksum {}); workers: {} cache hits / {} misses, {} steals{store_note}; \
manifest {}",
        manifest.total_cases,
        manifest.shards.len(),
        outcome.completed.len(),
        orchestration.concurrency,
        elapsed.as_secs_f64(),
        report.records,
        report.checksum,
        stats.cache_hits,
        stats.cache_misses,
        stats.steals,
        Manifest::path_in(run_dir).display(),
    );
    if let Some(dest) = destination.as_deref() {
        if dest != "-" {
            eprintln!("ringlab: merged output at {dest}");
        }
    }
    if options.stats {
        print_fleet_stats(&manifest);
    }
    Ok(0)
}

/// `structures`: maintenance of an on-disk structure store — `prebuild`
/// constructs and publishes every structure a subcommand will request,
/// `verify` validates every file, `gc` drops what no longer proves itself
/// plus unreferenced blobs, `stats` reports per-kind dedup ratios.
fn cmd_structures(options: &Options) -> Result<i32, String> {
    let Some(action) = options.positionals.first() else {
        return Err(format!("structures needs an action\n{USAGE}"));
    };
    let dir = resolve_store_dir(options, || DEFAULT_STORE_DIR.to_string())
        .unwrap_or_else(|| DEFAULT_STORE_DIR.to_string());
    let dir_path = PathBuf::from(&dir);
    match action.as_str() {
        "prebuild" => {
            let subcommand = &options.spec.subcommand;
            if subcommand.is_empty() {
                return Err(format!("structures prebuild needs a subcommand\n{USAGE}"));
            }
            if options.positionals.len() > 2 {
                return Err(format!("unexpected argument `{}`", options.positionals[2]));
            }
            let items = resolve(&options.spec)?.items;
            // One entry per distinct key, materialisation hint maximised
            // over every item that will request it.
            let mut keys: Vec<(ring_combinat::StructureKey, usize)> = Vec::new();
            for item in &items {
                for (key, hint) in item.structure_keys() {
                    match keys.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, existing)) => *existing = (*existing).max(hint),
                        None => keys.push((key, hint)),
                    }
                }
            }
            let store = StructureStore::at(&dir_path)
                .map_err(|e| format!("cannot open structure store {dir}: {e}"))?;
            for (key, hint) in &keys {
                match key.kind {
                    ring_combinat::StructureKind::StrongDistinguisher => {
                        let strong = store
                            .try_strong_distinguisher(key.universe, key.seed)
                            .map_err(|e| e.to_string())?;
                        let prefix = strong.prefix_size_for((*hint).max(2));
                        for i in 0..prefix {
                            strong.set(i);
                        }
                    }
                    ring_combinat::StructureKind::Distinguisher => {
                        store
                            .try_distinguisher(key.universe, key.n as usize, key.seed)
                            .map_err(|e| e.to_string())?;
                    }
                    ring_combinat::StructureKind::SelectiveFamily => {
                        store
                            .try_selective_family(key.universe, key.n as usize, key.seed)
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            store.flush().map_err(|e| e.to_string())?;
            let stats = store.stats();
            eprintln!(
                "ringlab: prebuilt {} structure(s) for `{subcommand}` into {dir} \
({} constructed, {} already present)",
                keys.len(),
                stats.misses,
                stats.hits,
            );
            Ok(0)
        }
        "stats" => {
            let stats = crate::store::store_dir_stats(&dir_path)
                .map_err(|e| format!("cannot stat {dir}: {e}"))?;
            eprintln!(
                "ringlab: structures stats {}",
                serde_json::to_string(&stats).expect("serializable stats")
            );
            Ok(0)
        }
        "verify" => {
            let reports = crate::store::scan_store_dir(&dir_path)
                .map_err(|e| format!("cannot scan {dir}: {e}"))?;
            let mut corrupt = 0usize;
            for report in &reports {
                match &report.error {
                    None => eprintln!(
                        "ringlab: ok      {} ({} sets)",
                        report.path.display(),
                        report.sets
                    ),
                    Some(error) => {
                        corrupt += 1;
                        eprintln!("ringlab: CORRUPT {}: {error}", report.path.display());
                    }
                }
            }
            eprintln!(
                "ringlab: verified {dir}: {} file(s), {corrupt} corrupt",
                reports.len()
            );
            Ok(if corrupt == 0 { 0 } else { 1 })
        }
        "gc" => {
            let report = crate::store::gc_store_dir(&dir_path)
                .map_err(|e| format!("cannot gc {dir}: {e}"))?;
            eprintln!(
                "ringlab: gc {dir}: kept {} file(s), removed {} corrupt, {} stale tmp/claim, \
{} unreferenced blob(s)",
                report.kept, report.corrupt, report.stale, report.unreferenced
            );
            Ok(0)
        }
        other => Err(format!("unknown structures action `{other}`\n{USAGE}")),
    }
}

/// `merge`: standalone k-way merge of shard files (or of a run directory's
/// shards) into one JSONL stream.
fn cmd_merge(options: &Options) -> Result<i32, String> {
    let destination = options.jsonl.clone().unwrap_or_else(|| "-".into());
    let (inputs, expect_total) = if let Some(dir) = &options.run_dir {
        if !options.positionals.is_empty() {
            return Err("merge takes either --run-dir or shard files, not both".into());
        }
        let run_dir = PathBuf::from(dir);
        let manifest = Manifest::load(&run_dir)?;
        if !manifest.is_complete() {
            return Err(format!(
                "run directory {} has incomplete shards; run `ringlab resume {}` first",
                run_dir.display(),
                run_dir.display(),
            ));
        }
        (manifest.shard_files(&run_dir), Some(manifest.total_cases))
    } else {
        if options.positionals.is_empty() {
            return Err(format!("merge needs shard files or --run-dir\n{USAGE}"));
        }
        // Hand-listed shard files: indices must be strictly ascending, but
        // the full 0..total sequence is only enforced when the caller
        // merges a complete run directory.
        (
            options.positionals.iter().map(PathBuf::from).collect(),
            None,
        )
    };
    let mut out = open_destination(&destination)?;
    let report =
        merge_shards(&inputs, &mut out, expect_total).map_err(|e| format!("merge failed: {e}"))?;
    eprintln!(
        "ringlab: merged {} records from {} shard file(s) (checksum {})",
        report.records,
        inputs.len(),
        report.checksum,
    );
    Ok(0)
}

/// `trace`: span-trace sidecar inspection. `summarize <RUN_DIR>` scans the
/// directory's `trace-*.jsonl` files and renders a per-span time-budget
/// table — where a run's wall-clock actually went, without re-running it.
fn cmd_trace(options: &Options) -> Result<i32, String> {
    match options.positionals.first().map(String::as_str) {
        Some("summarize") => {
            let dir = match (options.positionals.get(1), &options.run_dir) {
                (Some(dir), None) => PathBuf::from(dir),
                (None, Some(dir)) => PathBuf::from(dir),
                (None, None) => {
                    return Err(format!("trace summarize needs a run directory\n{USAGE}"))
                }
                _ => return Err("trace summarize takes exactly one run directory".into()),
            };
            let (table, files, events) = summarize_traces(&dir)?;
            print!("{table}");
            eprintln!(
                "ringlab: summarized {events} span(s) from {files} trace file(s) in {}",
                dir.display()
            );
            Ok(0)
        }
        Some(other) => Err(format!("unknown trace action `{other}`\n{USAGE}")),
        None => Err(format!("trace needs an action\n{USAGE}")),
    }
}

/// Aggregates every `trace-*.jsonl` sidecar under `dir` into one markdown
/// time-budget table (one row per span name, heaviest first), returning
/// the table plus the file and span-end counts. Durations funnel through
/// [`ring_obs::Histogram`]s, so the percentiles are the same log2-bucket
/// upper bounds `/v1/metrics` reports.
fn summarize_traces(dir: &Path) -> Result<(String, usize, u64), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = 0usize;
    let mut spans: std::collections::BTreeMap<String, ring_obs::Histogram> = Default::default();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("trace-") && name.ends_with(".jsonl")) {
            continue;
        }
        files += 1;
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            let value: serde::Value = serde_json::from_str(line)
                .map_err(|e| format!("corrupt trace line in {name}: {e}"))?;
            if value.get("event").and_then(serde::Value::as_str) != Some("end") {
                continue;
            }
            let Some(span) = value.get("span").and_then(serde::Value::as_str) else {
                continue;
            };
            let dur = value
                .get("dur_ns")
                .and_then(serde::Value::as_u64)
                .unwrap_or(0);
            spans.entry(span.to_string()).or_default().record(dur);
        }
    }
    if files == 0 {
        return Err(format!(
            "no trace-*.jsonl sidecars in {} (run with --trace first)",
            dir.display()
        ));
    }
    let mut snapshots: Vec<ring_obs::HistogramSnapshot> = spans
        .iter()
        .map(|(name, histogram)| histogram.snapshot(name))
        .collect();
    snapshots.sort_by(|a, b| b.sum_ns.cmp(&a.sum_ns).then_with(|| a.name.cmp(&b.name)));
    // Shares are of the summed span time, not wall-clock: spans nest
    // (a `case` contains its `construct_structure`s) and processes run in
    // parallel, so the column answers "which stage dominates", not "how
    // long did the run take".
    let total: u64 = snapshots.iter().map(|s| s.sum_ns).sum();
    let events: u64 = snapshots.iter().map(|s| s.count).sum();
    let mut out = String::from(
        "| span | count | total | share | p50 | p90 | p99 |\n|---|---|---|---|---|---|---|\n",
    );
    for snapshot in &snapshots {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {} | {} | {} |\n",
            snapshot.name,
            snapshot.count,
            format_ns(snapshot.sum_ns),
            100.0 * snapshot.sum_ns as f64 / total.max(1) as f64,
            format_ns(snapshot.p50()),
            format_ns(snapshot.p90()),
            format_ns(snapshot.p99()),
        ));
    }
    Ok((out, files, events))
}

/// Renders a nanosecond quantity with a human-scaled unit (the span table
/// mixes sub-microsecond lock probes with multi-second shard attempts).
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A writer that forwards every byte to its destination while parsing each
/// completed JSONL line into the measurements the tables need — so a merge
/// stays streaming (only the current partial line and the parsed
/// measurements are retained, never the merged byte stream).
struct MeasurementCollector<W: Write> {
    inner: W,
    partial: Vec<u8>,
    measurements: Vec<Measurement>,
    error: Option<String>,
}

impl<W: Write> MeasurementCollector<W> {
    fn new(inner: W) -> Self {
        MeasurementCollector {
            inner,
            partial: Vec::new(),
            measurements: Vec::new(),
            error: None,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        self.partial.extend_from_slice(bytes);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let parsed = std::str::from_utf8(&line[..line.len() - 1])
                .map_err(|_| "merged record is not UTF-8".to_string())
                .and_then(|text| {
                    serde_json::from_str(text).map_err(|e| format!("merged record: {e}"))
                })
                .and_then(|value| CaseRecord::from_json(&value));
            match parsed {
                Ok(record) => self.measurements.extend(record.measurements),
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
    }

    fn finish(self) -> Result<Vec<Measurement>, String> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if !self.partial.is_empty() {
            return Err("merged stream ended mid-record".into());
        }
        Ok(self.measurements)
    }
}

impl<W: Write> Write for MeasurementCollector<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.absorb(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Renders the measurements as the familiar markdown sections, grouped by
/// experiment in canonical order. Table and figure sections compress
/// repetitions via [`aggregate`]; the scaling and audit sections list raw
/// rows, matching the former per-experiment binaries.
pub fn render_markdown(measurements: &[Measurement]) -> String {
    const SECTIONS: [(&str, &str, bool); 6] = [
        (
            "table1",
            "Table I — deterministic solutions in the general setting",
            true,
        ),
        (
            "table2",
            "Table II — deterministic solutions with a common sense of direction",
            true,
        ),
        (
            "fig1",
            "Figure 1 — reductions among coordination problems (odd n / lazy / perceptive)",
            true,
        ),
        (
            "fig2",
            "Figure 2 — reductions among coordination problems (basic model, even n)",
            true,
        ),
        (
            "distinguisher_scaling",
            "Distinguisher and selective-family scaling (Section IV)",
            false,
        ),
        ("lower_bounds", "Lower-bound audits (Lemmas 5 and 6)", false),
    ];
    let mut out = String::new();
    for (key, title, aggregated) in SECTIONS {
        let section: Vec<Measurement> = measurements
            .iter()
            .filter(|m| m.experiment == key)
            .cloned()
            .collect();
        if section.is_empty() {
            continue;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("# {title}\n\n"));
        let rows = if aggregated {
            aggregate(&section)
        } else {
            section
        };
        out.push_str(&format_markdown_table(&rows));
    }
    let faults: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| m.experiment == "faults")
        .collect();
    if !faults.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("# Fault degradation — rounds and failure rates under injected faults\n\n");
        out.push_str(&render_faults_table(&faults));
    }
    out
}

/// The degradation table of the `faults` experiment: per (fault setting,
/// protocol, n, universe) group, the p50/p90 rounds over completed runs and
/// the failure / timeout percentages over all runs. The raw measurement
/// pairs per run are a `rounds` row (`None` = failed or timed out) and a
/// 0/1 `timeout` row; repetitions land in the same group.
fn render_faults_table(measurements: &[&Measurement]) -> String {
    #[derive(Default)]
    struct Bucket {
        completed_rounds: Vec<f64>,
        runs: usize,
        timeouts: u64,
    }
    // Keyed by the numeric drop rate first, so the table reads in
    // increasing-severity order rather than lexicographic label order.
    let drop_rate = |setting: &str| -> u64 {
        setting
            .strip_prefix("drop ")
            .and_then(|rest| rest.split('/').next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or(u64::MAX)
    };
    let mut groups: std::collections::BTreeMap<(u64, String, String, usize, u64), Bucket> =
        std::collections::BTreeMap::new();
    for m in measurements {
        let Some((problem, kind)) = m.quantity.rsplit_once(": ") else {
            continue;
        };
        let key = (
            drop_rate(&m.setting),
            m.setting.clone(),
            problem.to_string(),
            m.n,
            m.universe,
        );
        let bucket = groups.entry(key).or_default();
        match kind {
            "rounds" => {
                bucket.runs += 1;
                if let Some(rounds) = m.value {
                    bucket.completed_rounds.push(rounds);
                }
            }
            "timeout" => bucket.timeouts += m.value.unwrap_or(0.0) as u64,
            _ => {}
        }
    }
    let mut out = String::from(
        "| setting | protocol | n | universe | runs | p50 rounds | p90 rounds \
| failure % | timeout % |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for ((_, setting, problem, n, universe), mut bucket) in groups {
        bucket
            .completed_rounds
            .sort_by(|a, b| a.partial_cmp(b).expect("finite round counts"));
        let percentile = |p: f64| -> String {
            if bucket.completed_rounds.is_empty() {
                "-".into()
            } else {
                let idx = ((bucket.completed_rounds.len() - 1) as f64 * p).round() as usize;
                format!("{:.0}", bucket.completed_rounds[idx])
            }
        };
        let runs = bucket.runs.max(1) as f64;
        let failures = bucket.runs - bucket.completed_rounds.len();
        out.push_str(&format!(
            "| {setting} | {problem} | {n} | {universe} | {} | {} | {} | {:.0} | {:.0} |\n",
            bucket.runs,
            percentile(0.5),
            percentile(0.9),
            100.0 * failures as f64 / runs,
            100.0 * bucket.timeouts as f64 / runs,
        ));
    }
    out
}

/// The Figure-3-style degradation artifact: per protocol, the median
/// rounds to completion as the message-drop rate grows — one row per drop
/// rate, one column per ring size, the failure percentage of runs in
/// parentheses. Built from the same measurement pairs as the faults table,
/// aggregated over universes and repetitions (and over the crash/churn
/// axes, so render it from a drop-only sweep for a clean Figure 3).
fn render_fig3(measurements: &[Measurement]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    #[derive(Default)]
    struct Cell {
        completed_rounds: Vec<f64>,
        runs: usize,
    }
    let drop_rate = |setting: &str| -> Option<u64> {
        setting
            .strip_prefix("drop ")
            .and_then(|rest| rest.split('/').next())
            .and_then(|digits| digits.parse().ok())
    };
    let mut cells: BTreeMap<(String, u64, usize), Cell> = BTreeMap::new();
    let mut sizes: BTreeSet<usize> = BTreeSet::new();
    for m in measurements.iter().filter(|m| m.experiment == "faults") {
        let Some((problem, kind)) = m.quantity.rsplit_once(": ") else {
            continue;
        };
        if kind != "rounds" {
            continue;
        }
        let Some(drop) = drop_rate(&m.setting) else {
            continue;
        };
        sizes.insert(m.n);
        let cell = cells.entry((problem.to_string(), drop, m.n)).or_default();
        cell.runs += 1;
        if let Some(rounds) = m.value {
            cell.completed_rounds.push(rounds);
        }
    }
    let mut out = String::from(
        "# Figure 3 — protocol degradation under message loss\n\n\
         Median rounds to completion per per-mille message-drop rate; the\n\
         failure percentage of runs (wrong answers, aborts and round-limit\n\
         timeouts) in parentheses. `-` marks a cell where no run completed.\n",
    );
    for cell in cells.values_mut() {
        cell.completed_rounds
            .sort_by(|a, b| a.partial_cmp(b).expect("finite round counts"));
    }
    let problems: BTreeSet<String> = cells.keys().map(|(p, _, _)| p.clone()).collect();
    let drops: BTreeSet<u64> = cells.keys().map(|&(_, d, _)| d).collect();
    for problem in problems {
        out.push_str(&format!("\n## {problem}\n\n| drop (per mille) |"));
        for &n in &sizes {
            out.push_str(&format!(" n={n} |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(sizes.len()));
        out.push('\n');
        for &drop in &drops {
            out.push_str(&format!("| {drop} |"));
            for &n in &sizes {
                match cells.get(&(problem.clone(), drop, n)) {
                    None => out.push_str(" · |"),
                    Some(cell) => {
                        let failures = cell.runs - cell.completed_rounds.len();
                        let failure_pct = 100.0 * failures as f64 / cell.runs.max(1) as f64;
                        let p50 = if cell.completed_rounds.is_empty() {
                            "-".to_string()
                        } else {
                            let idx =
                                ((cell.completed_rounds.len() - 1) as f64 * 0.5).round() as usize;
                            format!("{:.0}", cell.completed_rounds[idx])
                        };
                        out.push_str(&format!(" {p50} ({failure_pct:.0}%) |"));
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Writes the `--render-fig3` artifact atomically (tmp + rename), creating
/// parent directories as needed.
fn write_fig3(path: &str, measurements: &[Measurement]) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, render_fig3(measurements))
        .map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalize {path}: {e}"))?;
    Ok(())
}

/// Parses argv into options: the argv syntax, spec flags through
/// [`SPEC_FLAGS`], and the runtime-flag rules. Spec *values* are left to
/// [`resolve`].
fn parse(args: &[String]) -> Result<Options, String> {
    let mut iter = args.iter();
    let Some(command) = iter.next() else {
        return Err("missing subcommand".into());
    };
    let mut options = Options {
        command: command.clone(),
        spec: SpecParams::default(),
        jobs: 0,
        jsonl: None,
        no_jsonl: false,
        shards: 0,
        shard: None,
        run_dir: None,
        retries: 1,
        structure_store: None,
        shard_timeout: None,
        listen: None,
        connect: None,
        data_dir: None,
        lease_timeout: None,
        render_fig3: None,
        stats: false,
        trace: false,
        trace_dir: None,
        positionals: Vec::new(),
    };
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--no-jsonl" => options.no_jsonl = true,
            "--stats" => options.stats = true,
            "--trace" => options.trace = true,
            "--trace-dir" => {
                options.trace_dir = Some(value_of("--trace-dir")?);
                options.trace = true;
            }
            "--jobs" => {
                options.jobs = value_of("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects a non-negative integer".to_string())?;
            }
            "--shards" => {
                options.shards = value_of("--shards")?
                    .parse()
                    .map_err(|_| "--shards expects a positive integer".to_string())?;
            }
            "--shard" => {
                let text = value_of("--shard")?;
                let Some((i, m)) = text.split_once('/') else {
                    return Err("--shard expects i/M (e.g. 0/4)".into());
                };
                let shard: usize = i
                    .parse()
                    .map_err(|_| "--shard expects i/M with integer i".to_string())?;
                let of: usize = m
                    .parse()
                    .map_err(|_| "--shard expects i/M with integer M".to_string())?;
                options.shard = Some((shard, of));
            }
            "--run-dir" => options.run_dir = Some(value_of("--run-dir")?),
            "--structure-store" => {
                // The directory operand is optional: a bare flag means "at
                // the context's default location".
                match iter.clone().next() {
                    Some(next) if !next.starts_with("--") => {
                        iter.next();
                        options.structure_store = Some(Some(next.clone()));
                    }
                    _ => options.structure_store = Some(None),
                }
            }
            "--retries" => {
                options.retries = value_of("--retries")?
                    .parse()
                    .map_err(|_| "--retries expects a non-negative integer".to_string())?;
            }
            "--shard-timeout" => {
                options.shard_timeout = Some(
                    value_of("--shard-timeout")?
                        .parse()
                        .map_err(|_| "--shard-timeout expects seconds".to_string())?,
                );
            }
            "--jsonl" => options.jsonl = Some(value_of("--jsonl")?),
            "--listen" => options.listen = Some(value_of("--listen")?),
            "--connect" => options.connect = Some(value_of("--connect")?),
            "--data-dir" => options.data_dir = Some(value_of("--data-dir")?),
            "--lease-timeout" => {
                options.lease_timeout = Some(
                    value_of("--lease-timeout")?
                        .parse()
                        .map_err(|_| "--lease-timeout expects seconds".to_string())?,
                );
            }
            "--render-fig3" => options.render_fig3 = Some(value_of("--render-fig3")?),
            other => match spec_flag(other) {
                Some(flag) if flag.is_switch() => flag.apply(&mut options.spec, "")?,
                Some(flag) => flag.apply(&mut options.spec, &value_of(flag.name)?)?,
                None if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
                None => options.positionals.push(other.to_string()),
            },
        }
    }
    // The experiment the invocation runs, whose spec the flags describe.
    let experiment = match options.command.as_str() {
        "worker" => options.positionals.first().cloned().unwrap_or_default(),
        "structures" if options.positionals.first().is_some_and(|a| a == "prebuild") => {
            options.positionals.get(1).cloned().unwrap_or_default()
        }
        "structures" | "merge" | "resume" | "serve" | "trace" => String::new(),
        other => other.to_string(),
    };
    if experiment.is_empty() && options.spec != SpecParams::default() {
        return Err(format!(
            "spec flags describe an experiment, and this `{}` invocation runs none",
            options.command
        ));
    }
    options.spec.subcommand = experiment;
    if let Some((shard, of)) = options.shard {
        if of == 0 || shard >= of {
            return Err(format!("--shard {shard}/{of} is out of range (need i < M)"));
        }
        if options.shards != 0 && options.shards != of {
            return Err("--shards and --shard disagree on the shard count".into());
        }
    }
    if options.shard_timeout == Some(0) {
        return Err("--shard-timeout expects a positive number of seconds".into());
    }
    if options.listen.is_some() && options.command != "serve" {
        return Err("--listen applies only to the `serve` subcommand".into());
    }
    if options.connect.is_some() && options.command != "worker" {
        return Err("--connect applies only to the `worker` subcommand".into());
    }
    if (options.data_dir.is_some() || options.lease_timeout.is_some()) && options.command != "serve"
    {
        return Err("--data-dir and --lease-timeout apply only to the `serve` subcommand".into());
    }
    if options.lease_timeout == Some(0) {
        return Err("--lease-timeout expects a positive number of seconds".into());
    }
    if options.render_fig3.is_some()
        && (options.command != "faults" || options.shards != 0 || options.shard.is_some())
    {
        return Err(
            "--render-fig3 applies only to a single-process `faults` run \
             (render it from the merged stream after a sharded run)"
                .into(),
        );
    }
    Ok(options)
}

/// The `ringlab` entry point: runs the CLI on the process arguments and
/// exits with its code.
pub fn main() -> ! {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use ring_distrib::ShardRange;
    use ring_experiments::FaultAxes;
    use ring_sim::config::MIN_AGENTS;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses and resolves, as `ringlab` does before running anything.
    fn resolve_args(list: &[&str]) -> Result<Resolved, String> {
        resolve(&parse(&args(list))?.spec)
    }

    #[test]
    fn flags_parse_into_options() {
        let options = parse(&args(&[
            "sweep",
            "--quick",
            "--jobs",
            "4",
            "--sizes",
            "15,16",
            "--universe-factors",
            "4,64",
            "--reps",
            "2",
            "--seed",
            "9",
            "--no-jsonl",
        ]))
        .unwrap();
        assert_eq!(options.command, "sweep");
        assert_eq!(options.spec.subcommand, "sweep");
        assert!(options.spec.quick && options.no_jsonl);
        assert_eq!(options.jobs, 4);
        let sweep = resolve(&options.spec).unwrap().sweep;
        assert_eq!(sweep.sizes, vec![15, 16]);
        assert_eq!(sweep.universe_factors, vec![4, 64]);
        assert_eq!(sweep.repetitions, 2);
        assert_eq!(sweep.seed, 9);
    }

    #[test]
    fn sharding_flags_parse() {
        let options = parse(&args(&[
            "sweep",
            "--shards",
            "4",
            "--run-dir",
            "/tmp/x",
            "--retries",
            "2",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(options.shards, 4);
        assert_eq!(options.run_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(options.retries, 2);
        assert!(options.stats);

        let options = parse(&args(&["worker", "sweep", "--shard", "1/3"])).unwrap();
        assert_eq!(options.command, "worker");
        assert_eq!(options.spec.subcommand, "sweep");
        assert_eq!(options.shard, Some((1, 3)));

        assert!(parse(&args(&["sweep", "--shard", "3/3"])).is_err());
        assert!(parse(&args(&["sweep", "--shard", "0/0"])).is_err());
        assert!(parse(&args(&["sweep", "--shard", "nope"])).is_err());
        assert!(parse(&args(&["sweep", "--shards", "2", "--shard", "0/3"])).is_err());
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["table1", "--jobs"])).is_err());
        assert!(parse(&args(&["table1", "--sizes", "a,b"])).is_err());
        assert!(parse(&args(&["table1", "--reps"])).is_err());
        assert!(parse(&args(&["table1", "--wat"])).is_err());
        // Spec flags only describe an experiment: a command that runs none
        // refuses them instead of ignoring them.
        assert!(parse(&args(&["resume", "results/distrib/sweep", "--quick"])).is_err());
        assert!(parse(&args(&["worker", "--connect", "x:1", "--sizes", "9"])).is_err());
        assert!(parse(&args(&["structures", "gc", "--seed", "3"])).is_err());
        assert!(parse(&args(&["structures", "prebuild", "sweep", "--seed", "3"])).is_ok());
    }

    /// Arbitrary specs `resolve` accepts, drawing every field: the
    /// subcommand-specific axes only where the subcommand takes them.
    struct ValidSpecs;

    impl Strategy for ValidSpecs {
        type Value = SpecParams;

        fn generate(&self, rng: &mut TestRng) -> SpecParams {
            const EXPERIMENTS: [&str; 9] = [
                "table1",
                "table2",
                "fig1",
                "fig2",
                "scaling",
                "lower-bounds",
                "all",
                "sweep",
                "faults",
            ];
            let subcommand = EXPERIMENTS[rng.below(EXPERIMENTS.len() as u64) as usize];
            let scaling = subcommand == "scaling";
            let faults = subcommand == "faults";
            let coin = |rng: &mut TestRng| rng.below(2) == 1;
            let list = |rng: &mut TestRng, lo: u64, hi: u64| -> Vec<u64> {
                (0..1 + rng.below(3))
                    .map(|_| lo + rng.below(hi - lo + 1))
                    .collect()
            };
            SpecParams {
                subcommand: subcommand.into(),
                quick: coin(rng),
                // Set sizes may be below a ring's minimum; ring sizes not.
                sizes: coin(rng).then(|| {
                    let lo = if scaling { 3 } else { MIN_AGENTS as u64 };
                    list(rng, lo, 40).into_iter().map(|n| n as usize).collect()
                }),
                universe_factors: (!scaling && coin(rng)).then(|| list(rng, 1, 64)),
                reps: (!scaling && coin(rng)).then(|| 1 + rng.below(3)),
                seed: coin(rng).then(|| rng.next_u64()),
                structure_seeds: (!scaling && coin(rng))
                    .then(|| 1 + rng.below(ring_combinat::STRONG_WINDOW)),
                fault_drops: (faults && coin(rng)).then(|| list(rng, 0, 1000)),
                fault_crashes: (faults && coin(rng)).then(|| rng.below(3)),
                fault_churn: (faults && coin(rng)).then(|| rng.below(3)),
                fault_adversarial: faults && coin(rng),
            }
        }
    }

    proptest! {
        /// Every spec survives both of its encodings unchanged: worker argv
        /// through the parser, and JSON (manifest `spec`, submission body)
        /// through `from_json`.
        #[test]
        fn worker_args_round_trip_through_the_parser(spec in ValidSpecs) {
            prop_assert!(resolve(&spec).is_ok(), "generated an invalid spec: {:?}", spec);
            let range = ShardRange {
                shard: 1,
                start: 4,
                end: 8,
            };
            let argv = spec.worker_args(2, &range, 3, "run/structures");
            let parsed = parse(&argv).unwrap();
            prop_assert_eq!(&parsed.command, "worker");
            prop_assert_eq!(parsed.shard, Some((1, 3)));
            prop_assert_eq!(parsed.jobs, 2);
            prop_assert_eq!(
                &parsed.structure_store,
                &Some(Some("run/structures".to_string()))
            );
            prop_assert_eq!(&parsed.spec, &spec);

            let json = serde_json::to_string(&spec).unwrap();
            let value = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&SpecParams::from_json(&value).unwrap(), &spec);

            // A storeless run adds no flag; a clean spec no fault flags.
            let storeless = spec.worker_args(1, &range, 3, "");
            prop_assert!(!storeless.iter().any(|a| a == "--structure-store"));
            if spec.subcommand != "faults" {
                prop_assert!(!storeless.iter().any(|a| a.starts_with("--fault")));
            }
        }
    }

    #[test]
    fn fault_flags_parse_validate_and_round_trip() {
        let options = parse(&args(&[
            "faults",
            "--quick",
            "--fault-drops",
            "0,100,400",
            "--fault-crashes",
            "1",
            "--fault-churn",
            "2",
            "--fault-adversarial",
        ]))
        .unwrap();
        assert_eq!(
            options.spec,
            SpecParams {
                subcommand: "faults".into(),
                quick: true,
                fault_drops: Some(vec![0, 100, 400]),
                fault_crashes: Some(1),
                fault_churn: Some(2),
                fault_adversarial: true,
                ..Default::default()
            }
        );
        let resolved = resolve(&options.spec).unwrap();
        assert_eq!(
            resolved.sweep.faults,
            Some(FaultAxes {
                drops: vec![0, 100, 400],
                crashes: 1,
                churn: 2,
                adversarial: true,
            })
        );

        // A bare `faults` run sweeps the standard axes.
        let bare = resolve_args(&["faults", "--quick"]).unwrap();
        assert_eq!(bare.sweep.faults, Some(FaultAxes::standard()));
        // Clean subcommands stay fault-free (stable fingerprints); the
        // resolver refuses fault axes on them outright.
        assert_eq!(resolve_args(&["sweep"]).unwrap().sweep.faults, None);
        assert!(resolve_args(&["sweep", "--fault-drops", "100"]).is_err());
        assert!(resolve_args(&["table1", "--fault-adversarial"]).is_err());
        // Rates are per mille; nonsense is rejected.
        assert!(resolve_args(&["faults", "--fault-drops", "1001"]).is_err());
        assert!(resolve_args(&["faults", "--fault-drops", ","]).is_err());
        assert!(parse(&args(&["faults", "--shard-timeout", "0"])).is_err());

        // The worker round trip: a worker of a faulty sweep resolves the
        // same axes — and the same fingerprint — as its orchestrator.
        let range = ShardRange {
            shard: 0,
            start: 0,
            end: 2,
        };
        let worker = parse(&options.spec.worker_args(1, &range, 2, "")).unwrap();
        assert_eq!(worker.spec, options.spec);
        assert_eq!(
            resolve(&worker.spec).unwrap().fingerprint,
            resolved.fingerprint
        );
        // Fault axes are spec-affecting: defaults and overrides differ.
        assert_ne!(bare.fingerprint, resolved.fingerprint);
    }

    #[test]
    fn faults_markdown_reports_degradation_statistics() {
        let row = |setting: &str, quantity: &str, value: Option<f64>| Measurement {
            experiment: "faults".into(),
            setting: setting.into(),
            quantity: quantity.into(),
            n: 8,
            universe: 64,
            value,
            predicted: None,
            verified: true,
        };
        let text = render_markdown(&[
            // Two reps clean: both complete.
            row("drop 0/1000", "leader election: rounds", Some(10.0)),
            row("drop 0/1000", "leader election: timeout", Some(0.0)),
            row("drop 0/1000", "leader election: rounds", Some(30.0)),
            row("drop 0/1000", "leader election: timeout", Some(0.0)),
            // Two reps at heavy drop: one fails by timeout.
            row("drop 400/1000", "leader election: rounds", Some(50.0)),
            row("drop 400/1000", "leader election: timeout", Some(0.0)),
            row("drop 400/1000", "leader election: rounds", None),
            row("drop 400/1000", "leader election: timeout", Some(1.0)),
        ]);
        assert!(text.contains("# Fault degradation"));
        let clean_at = text.find("| drop 0/1000 |").unwrap();
        let heavy_at = text.find("| drop 400/1000 |").unwrap();
        assert!(clean_at < heavy_at);
        // Nearest-rank percentiles: with two samples p50 rounds up to the
        // larger one.
        assert!(text.contains("| drop 0/1000 | leader election | 8 | 64 | 2 | 30 | 30 | 0 | 0 |"));
        assert!(
            text.contains("| drop 400/1000 | leader election | 8 | 64 | 2 | 50 | 50 | 50 | 50 |")
        );
    }

    #[test]
    fn structure_store_flag_takes_an_optional_directory() {
        let explicit = parse(&args(&[
            "sweep",
            "--structure-store",
            "some/dir",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(explicit.structure_store, Some(Some("some/dir".into())));
        assert!(explicit.spec.quick);

        // Bare flag followed by another flag: default directory.
        let bare = parse(&args(&["sweep", "--structure-store", "--jobs", "2"])).unwrap();
        assert_eq!(bare.structure_store, Some(None));
        assert_eq!(bare.jobs, 2);

        // Bare flag at the end of the line.
        let trailing = parse(&args(&["sweep", "--structure-store"])).unwrap();
        assert_eq!(trailing.structure_store, Some(None));

        let off = parse(&args(&["sweep"])).unwrap();
        assert_eq!(off.structure_store, None);
        assert_eq!(
            resolve_store_dir(&explicit, || "default".into()).as_deref(),
            Some("some/dir")
        );
        assert_eq!(
            resolve_store_dir(&bare, || "default".into()).as_deref(),
            Some("default")
        );
        assert_eq!(resolve_store_dir(&off, || "default".into()), None);
    }

    #[test]
    fn structure_seed_schedule_flags_parse_and_validate() {
        // Absent = the fixed schedule; `--structure-seeds K` = the per-case
        // schedule over K seeds. It is the only spelling.
        assert_eq!(parse(&args(&["sweep"])).unwrap().spec.structure_seeds, None);
        assert_eq!(
            parse(&args(&["sweep", "--structure-seeds", "7"]))
                .unwrap()
                .spec
                .structure_seeds,
            Some(7)
        );
        assert!(parse(&args(&["sweep", "--structure-seed-mode", "per-case"])).is_err());
        assert!(parse(&args(&["sweep", "--structure-seeds", "maybe"])).is_err());
        // Zero seeds is a spec error.
        assert!(resolve_args(&["sweep", "--structure-seeds", "0"]).is_err());
        // K beyond the strong-window count would wrap onto repeated
        // windows; the boundary itself is fine.
        assert!(resolve_args(&["sweep", "--structure-seeds", "65"]).is_err());
        assert!(resolve_args(&["sweep", "--structure-seeds", "64"]).is_ok());
        assert!(resolve_args(&["scaling", "--structure-seeds", "2"]).is_err());
        // The schedule is spec-affecting: it must move the fingerprint.
        let fixed = resolve_args(&["sweep", "--quick"]).unwrap();
        let diverse = resolve_args(&["sweep", "--quick", "--structure-seeds", "4"]).unwrap();
        assert_ne!(fixed.fingerprint, diverse.fingerprint);
    }

    #[test]
    fn fingerprints_separate_specs_and_subcommands() {
        let fingerprint = |list: &[&str]| resolve_args(list).unwrap().fingerprint;
        let base = fingerprint(&["sweep", "--quick"]);
        assert_ne!(base, fingerprint(&["table1", "--quick"]));
        assert_ne!(base, fingerprint(&["sweep", "--quick", "--seed", "8"]));
        // The fingerprint is of the resolved grid: spelling out the quick
        // repetition count (1) changes nothing.
        assert_eq!(base, fingerprint(&["sweep", "--quick", "--reps", "1"]));
        // Pinned: manifests written by earlier builds must still resume.
        assert_eq!(fingerprint(&["sweep"]), "0xf234fcaa26104c59");
        assert_eq!(
            fingerprint(&["sweep", "--quick", "--structure-seeds", "3"]),
            "0xd17598ad24301cf5"
        );
        assert_eq!(
            fingerprint(&[
                "faults",
                "--quick",
                "--fault-drops",
                "0,100",
                "--fault-crashes",
                "1"
            ]),
            "0xa06afa18707c1de5"
        );
    }

    #[test]
    fn markdown_renders_sections_in_canonical_order() {
        let sample = |experiment: &str| Measurement {
            experiment: experiment.into(),
            setting: "s".into(),
            quantity: "q".into(),
            n: 8,
            universe: 64,
            value: Some(1.0),
            predicted: Some(1.0),
            verified: true,
        };
        let text = render_markdown(&[sample("lower_bounds"), sample("table1")]);
        let table1_at = text.find("# Table I").unwrap();
        let lower_at = text.find("# Lower-bound audits").unwrap();
        assert!(table1_at < lower_at);
    }
}
