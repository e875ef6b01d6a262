//! The traced run: per-layer metrics over all four workloads.
//!
//! Spans are recorded from this file around calls into each layer's public
//! functions, from `ring-combinat` up to `ring-serve`. Per workload the run
//! takes untraced passes through the product path (their median is the
//! base of `bench.trace_overhead` and `harness.engine.unaccounted_frac`),
//! then traced passes that drive the same items through the harness's
//! public layers (executor, structure store behind a timing wrapper,
//! ordered sink) with a span around every case. Layer probes follow: one
//! round of the ring, one protocol solve per Table I cell and per faulty
//! run, the combinatorial constructions, and the distributed layer's
//! revalidate, merge and parse over a completed fleet run directory.

use crate::report::{median, metric, tail, Metric};
use crate::trace::Tracer;
use crate::workloads::{self, Grid, Workload, JOBS};
use crate::{closed_loop, corrupt, fleet_pass, start_fleets, Outcome};
use ring_combinat::{Distinguisher, SelectiveFamily, SharedStrongDistinguisher};
use ring_distrib::{merge_shards, Manifest};
use ring_experiments::faults::{FAULT_PROBLEMS, FAULT_ROUND_LIMIT};
use ring_harness::executor::run_work_stealing_with_stats;
use ring_harness::{CaseRecord, JsonlSink, StructureStore, WorkItem};
use ring_protocols::exec::StepBuffers;
use ring_protocols::pipeline::{
    measure_problem_faulty, measure_problem_seeded, FaultyOutcome, Problem,
};
use ring_protocols::structures::{SharedStructures, StructureProvider};
use ring_protocols::{IdAssignment, Network};
use ring_sim::{EngineKind, LocalDirection, Model, RingConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum passes per phase, however short the run.
const MIN_PASSES: usize = 3;

/// The `StructureStore` behind a span per resolve: the benchmark's view
/// of the store's resolve path, parented to the case that asked.
struct TracedStore {
    inner: Arc<StructureStore>,
    tracer: Arc<Tracer>,
    pass: u64,
}

const RESOLVE: &str = "harness.store.resolve";

impl StructureProvider for TracedStore {
    fn strong_distinguisher(&self, universe: u64, seed: u64) -> Arc<SharedStrongDistinguisher> {
        self.tracer.time(RESOLVE, self.pass, || {
            self.inner.strong_distinguisher(universe, seed)
        })
    }

    fn distinguisher(&self, universe: u64, n: usize, seed: u64) -> Arc<Distinguisher> {
        self.tracer.time(RESOLVE, self.pass, || {
            self.inner.distinguisher(universe, n, seed)
        })
    }

    fn selective_family(&self, universe: u64, n: usize, seed: u64) -> Arc<SelectiveFamily> {
        self.tracer.time(RESOLVE, self.pass, || {
            self.inner.selective_family(universe, n, seed)
        })
    }
}

/// The case kind an item's span is named after.
fn kind(item: &WorkItem) -> &'static str {
    match item {
        WorkItem::Table1(_) => "table1",
        WorkItem::Table2(_) => "table2",
        WorkItem::Faults { .. } => "faults",
        WorkItem::ScalingFamilies { .. } | WorkItem::ScalingWeakMove { .. } => "scaling",
        _ => "other",
    }
}

const KINDS: [&str; 4] = ["table1", "table2", "faults", "scaling"];

/// State shared by every phase of the traced run.
struct Ctx {
    tracer: Arc<Tracer>,
    next_pass: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Case durations (s) per kind, over every traced pass.
    cases: BTreeMap<&'static str, Vec<f64>>,
    /// Traced passes that produced each kind's samples.
    kind_passes: BTreeMap<&'static str, usize>,
}

impl Ctx {
    fn pass_id(&mut self) -> u64 {
        self.next_pass += 1;
        self.next_pass
    }

    fn check(&mut self, bytes: &[u8], reference: &[u8], cases: usize) {
        self.attempted += cases as u64;
        self.failed += workloads::failed_cases(bytes, reference, cases) as u64;
    }

    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(metric(name, unit, value));
    }

    fn span_total(&self, pass: u64, name: &str) -> f64 {
        self.tracer
            .spans()
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }
}

/// What a traced in-process pass measured.
struct TracedPass {
    wall_s: f64,
    case_s: f64,
    item_s: f64,
    resolve_s: f64,
    serialize_s: f64,
}

/// One pass over `items` through the harness's public layers — the
/// work-stealing executor at [`JOBS`] workers, `WorkItem::run_to_record`
/// against the traced store, and the ordered `JsonlSink` — with a span
/// around every call.
fn traced_pass(
    ctx: &mut Ctx,
    workload: Workload,
    items: &[WorkItem],
    store: Arc<StructureStore>,
    reference: &[u8],
) -> TracedPass {
    let pass = ctx.pass_id();
    let tracer = Arc::clone(&ctx.tracer);
    let provider: SharedStructures = Arc::new(TracedStore {
        inner: store,
        tracer: Arc::clone(&tracer),
        pass,
    });
    let sink = JsonlSink::new(Vec::new());
    let start = Instant::now();
    let root = tracer.open(format!("pass.{}", workload.name()), None, pass);
    let root_id = root.id();
    let (timings, _) = run_work_stealing_with_stats(items, JOBS, |index, item| {
        let item_span = tracer.open("harness.executor.item", Some(root_id), pass);
        let case = tracer.open(format!("experiments.case.{}", kind(item)), None, pass);
        let record = item.run_to_record(index, &provider);
        let case_s = tracer.close(case);
        let line = tracer.time("harness.sink.serialize", pass, || {
            serde_json::to_string(&record).expect("serializable record")
        });
        tracer.time("harness.sink.emit", pass, || sink.emit(index, &line));
        (kind(item), case_s, tracer.close(item_span))
    });
    tracer.close(root);
    let bytes = sink.finish();
    let wall_s = start.elapsed().as_secs_f64();
    ctx.check(&bytes, reference, items.len());
    let mut case_s = 0.0;
    let mut item_s = 0.0;
    for (kind, case, item) in timings {
        ctx.cases.entry(kind).or_default().push(case);
        case_s += case;
        item_s += item;
    }
    let kinds: std::collections::BTreeSet<&'static str> = items.iter().map(kind).collect();
    for k in kinds {
        *ctx.kind_passes.entry(k).or_default() += 1;
    }
    TracedPass {
        wall_s,
        case_s,
        item_s,
        resolve_s: ctx.span_total(pass, RESOLVE),
        serialize_s: ctx.span_total(pass, "harness.sink.serialize"),
    }
}

/// What the later phases need from an in-process workload's phase.
struct InProcess {
    items: Vec<WorkItem>,
    store: Arc<StructureStore>,
    reference: Vec<u8>,
    /// Σ case time of one traced pass (mean over the traced passes).
    case_s_per_pass: f64,
}

fn in_process(
    ctx: &mut Ctx,
    workload: Workload,
    grid: &Grid,
    budget: Duration,
    corrupt_reference: bool,
    scratch: &Path,
) -> Result<InProcess, String> {
    let name = workload.name();
    let items = grid.items(workload);
    let store = Arc::new(StructureStore::in_memory());
    if workload.warm() {
        let tracer = Arc::clone(&ctx.tracer);
        tracer.time(&format!("setup.{name}"), 0, || {
            workloads::warm_structures(&store, &items)
        });
    }
    let mut reference = workloads::reference_bytes(&items);
    if corrupt_reference {
        corrupt(&mut reference);
    }
    let log = scratch.join("pass.log");
    let (mut walls, mut steals) = (Vec::new(), Vec::new());
    closed_loop(budget, MIN_PASSES, || {
        let pass = workloads::pass(workload, grid, &items, &store, JOBS, &log)?;
        ctx.check(&pass.bytes, &reference, items.len());
        walls.push(pass.wall_s);
        steals.push(pass.steals as f64);
        Ok(())
    })?;
    let untraced = median(&walls);

    let mut traced = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    closed_loop(budget, MIN_PASSES, || {
        let pass_store = if workload.warm() {
            Arc::clone(&store)
        } else {
            Arc::new(StructureStore::in_memory())
        };
        let before = pass_store.cache_stats();
        traced.push(traced_pass(
            ctx,
            workload,
            &items,
            Arc::clone(&pass_store),
            &reference,
        ));
        let after = pass_store.cache_stats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        Ok(())
    })?;
    let single = workloads::pass(workload, grid, &items, &store, 1, &log)?;
    ctx.check(&single.bytes, &reference, items.len());

    let passes = traced.len() as f64;
    let mean = |f: fn(&TracedPass) -> f64| traced.iter().map(f).sum::<f64>() / passes;
    let case_s = mean(|p| p.case_s);
    let busy: Vec<f64> = traced
        .iter()
        .map(|p| p.item_s / (JOBS as f64 * p.wall_s))
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    ctx.push(
        format!("harness.store.resolve_s.{name}"),
        "s",
        mean(|p| p.resolve_s),
    );
    ctx.push(
        format!("harness.store.misses.{name}"),
        "count",
        misses as f64 / passes,
    );
    ctx.push(
        format!("harness.store.hit_rate.{name}"),
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    ctx.push(
        format!("harness.executor.busy_frac.{name}"),
        "ratio",
        median(&busy),
    );
    ctx.push(
        format!("harness.executor.speedup_j2.{name}"),
        "ratio",
        single.wall_s / untraced,
    );
    ctx.push(
        format!("harness.executor.steals.{name}"),
        "count",
        median(&steals),
    );
    ctx.push(
        format!("experiments.case.structure_frac.{name}"),
        "ratio",
        mean(|p| p.resolve_s) / case_s,
    );
    ctx.push(
        format!("harness.engine.unaccounted_frac.{name}"),
        "ratio",
        1.0 - (case_s / JOBS as f64) / untraced,
    );
    ctx.push(
        format!("bench.trace_overhead.{name}"),
        "ratio",
        median(&traced_walls) / untraced,
    );
    if workload == Workload::Tables {
        ctx.push("harness.sink.bytes", "bytes", reference.len() as f64);
        ctx.push("harness.sink.serialize_s", "s", mean(|p| p.serialize_s));
    }
    Ok(InProcess {
        items,
        store,
        reference,
        case_s_per_pass: case_s,
    })
}

fn fleet_phase(
    ctx: &mut Ctx,
    grid: &Grid,
    budget: Duration,
    tables: &InProcess,
    scratch: &Path,
) -> Result<(), String> {
    let (_, fleet) = start_fleets(scratch, 1)?;
    let cases = tables.items.len();
    let mut walls = Vec::new();
    let mut last_run = None;
    closed_loop(budget, MIN_PASSES, || {
        let pass = fleet_pass(&fleet, grid, &tables.reference, cases);
        ctx.attempted += cases as u64;
        ctx.failed += pass.failed as u64;
        walls.push(pass.wall_s);
        last_run = Some(pass.run.ok_or("the fleet failed a pass")?);
        Ok(())
    })?;
    let untraced = median(&walls);

    let (mut traced, mut submits) = (Vec::new(), Vec::new());
    closed_loop(budget, MIN_PASSES, || {
        let pass = ctx.pass_id();
        let tracer = Arc::clone(&ctx.tracer);
        let start = Instant::now();
        let root = tracer.open("pass.fleet", None, pass);
        let submit = tracer.open("serve.submit", None, pass);
        let run = fleet.submit(&grid.tables);
        submits.push(tracer.close(submit));
        let results = run.and_then(|run| {
            tracer
                .time("serve.results", pass, || fleet.results(run))
                .map(|(bytes, _)| (run, bytes))
        });
        tracer.close(root);
        traced.push(start.elapsed().as_secs_f64());
        let (run, bytes) = results?;
        ctx.check(&bytes, &tables.reference, cases);
        last_run = Some(run);
        Ok(())
    })?;
    let run = last_run.expect("at least one fleet pass");
    fleet.wait_complete(run)?;
    distrib_probes(ctx, &fleet.run_dir(run), cases)?;
    fleet.shutdown()?;

    ctx.push("serve.submit_ms", "ms", median(&submits) * 1e3);
    ctx.push(
        "harness.engine.unaccounted_frac.fleet",
        "ratio",
        1.0 - (tables.case_s_per_pass / JOBS as f64) / untraced,
    );
    ctx.push(
        "bench.trace_overhead.fleet",
        "ratio",
        median(&traced) / untraced,
    );
    Ok(())
}

/// Revalidation, merge and parse throughput over a completed run
/// directory, and the retries its manifest records.
fn distrib_probes(ctx: &mut Ctx, run_dir: &Path, cases: usize) -> Result<(), String> {
    const REPEATS: usize = 5;
    let manifest = Manifest::load(run_dir)?;
    let files = manifest.shard_files(run_dir);
    let mb = files
        .iter()
        .map(|f| std::fs::metadata(f).map(|m| m.len()).unwrap_or(0))
        .sum::<u64>() as f64
        / 1e6;
    let tracer = Arc::clone(&ctx.tracer);
    let (mut revalidate, mut merge, mut parse) = (Vec::new(), Vec::new(), Vec::new());
    let mut merged = Vec::new();
    for _ in 0..REPEATS {
        let mut copy = manifest.clone();
        let open = tracer.open("distrib.revalidate", None, 0);
        let demoted = copy.revalidate_completed(run_dir);
        revalidate.push(tracer.close(open));
        match demoted {
            Ok(d) if d.is_empty() => {}
            other => {
                return Err(format!(
                    "the fleet's run directory failed revalidation: {other:?}"
                ))
            }
        }
        merged.clear();
        let open = tracer.open("distrib.merge", None, 0);
        let report = merge_shards(&files, &mut merged, Some(cases));
        merge.push(tracer.close(open));
        report.map_err(|e| format!("merge of the fleet's shards failed: {e}"))?;
        let text = std::str::from_utf8(&merged).map_err(|_| "merged output is not UTF-8")?;
        let open = tracer.open("distrib.parse", None, 0);
        let parsed = text
            .lines()
            .map(|line| {
                serde_json::from_str(line)
                    .map_err(|e| e.to_string())
                    .and_then(|value| CaseRecord::from_json(&value))
            })
            .filter(Result::is_ok)
            .count();
        parse.push(tracer.close(open));
        if parsed != cases {
            return Err(format!("parsed {parsed} of {cases} merged records"));
        }
    }
    let retries: u32 = manifest
        .shards
        .iter()
        .map(|s| s.attempts.saturating_sub(1))
        .sum();
    ctx.push(
        "distrib.revalidate_mb_per_s",
        "MB/s",
        mb / median(&revalidate),
    );
    ctx.push("distrib.merge_mb_per_s", "MB/s", mb / median(&merge));
    ctx.push("distrib.parse_mb_per_s", "MB/s", mb / median(&parse));
    ctx.push("distrib.retries", "count", f64::from(retries));
    Ok(())
}

fn case_kind_metrics(ctx: &mut Ctx) {
    for k in KINDS {
        let samples = ctx.cases.get(k).cloned().unwrap_or_default();
        let passes = ctx.kind_passes.get(k).copied().unwrap_or(0).max(1) as f64;
        let (pct, tail_s) = tail(&samples);
        ctx.push(
            format!("experiments.case.{k}.p50_ms"),
            "ms",
            median(&samples) * 1e3,
        );
        ctx.push(format!("experiments.case.{k}.tail_ms"), "ms", tail_s * 1e3);
        ctx.push(format!("experiments.case.{k}.tail_pct"), "percentile", pct);
        ctx.push(
            format!("experiments.case.{k}.samples"),
            "count",
            samples.len() as f64,
        );
        ctx.push(
            format!("experiments.case.{k}.total_s"),
            "s",
            samples.iter().sum::<f64>() / passes,
        );
    }
}

/// Nanoseconds per `Network::step_into` on an `n`-agent ring under a
/// seeded all-moving schedule (median of three timed batches).
fn round_ns(tracer: &Tracer, n: usize, engine: EngineKind, seed: u64) -> f64 {
    use ring_combinat::shared::splitmix64;
    let config = RingConfig::builder(n)
        .random_positions(seed)
        .random_chirality(seed ^ 0x5a5a)
        .build()
        .expect("a valid ring");
    let ids = IdAssignment::random(n, 4 * n as u64, seed ^ 0x3c3c);
    let mut net = Network::new(&config, ids, Model::Basic)
        .expect("a valid network")
        .with_engine(engine);
    let schedule: Vec<Vec<LocalDirection>> = (0..32u64)
        .map(|round| {
            (0..n as u64)
                .map(|agent| {
                    if splitmix64(seed ^ (round << 32) ^ agent) & 1 == 0 {
                        LocalDirection::Right
                    } else {
                        LocalDirection::Left
                    }
                })
                .collect()
        })
        .collect();
    let mut bufs = StepBuffers::new();
    let mut round = 0usize;
    let mut step = |net: &mut Network| {
        net.step_into(&schedule[round % schedule.len()], &mut bufs)
            .expect("an all-moving round");
        round += 1;
    };
    step(&mut net);
    let name = match engine {
        EngineKind::Analytic => "sim.analytic.step_into",
        EngineKind::Event => "sim.event.step_into",
    };
    let mut samples = Vec::new();
    for _ in 0..3 {
        let open = tracer.open(name, None, 0);
        let start = Instant::now();
        let mut rounds = 0;
        while rounds == 0 || start.elapsed() < Duration::from_millis(10) {
            step(&mut net);
            rounds += 1;
        }
        samples.push(tracer.close(open) * 1e9 / rounds as f64);
    }
    median(&samples)
}

fn problem_name(problem: Problem) -> &'static str {
    match problem {
        Problem::LeaderElection => "leader_election",
        Problem::NontrivialMove => "nontrivial_move",
        Problem::DirectionAgreement => "direction_agreement",
        Problem::LocationDiscovery => "location_discovery",
    }
}

/// One `measure_problem_seeded` per Table I cell over the `tables` cases,
/// and the share of solve time that rounds × round cost explains.
fn protocol_probes(
    ctx: &mut Ctx,
    grid: &Grid,
    store: &Arc<StructureStore>,
    analytic_ns: &BTreeMap<usize, f64>,
) {
    let structures: SharedStructures = store.clone();
    let tracer = Arc::clone(&ctx.tracer);
    let mut cells: BTreeMap<(&str, &str), (f64, f64)> = BTreeMap::new();
    let (mut solve_total, mut explained) = (0.0, 0.0);
    for case in grid.tables.cases() {
        let (config, settings): (_, &[(Model, &str)]) = if case.n % 2 == 1 {
            (case.config(), &[(Model::Basic, "basic_odd")])
        } else {
            (
                case.config_balanced(),
                &[
                    (Model::Basic, "basic_even"),
                    (Model::Lazy, "lazy"),
                    (Model::Perceptive, "perceptive"),
                ],
            )
        };
        let ids = case.ids();
        for &(model, setting) in settings {
            for problem in Problem::ALL {
                if setting == "basic_even" && problem == Problem::LocationDiscovery {
                    continue;
                }
                let open = tracer.open(
                    format!("protocols.{setting}.{}", problem_name(problem)),
                    None,
                    0,
                );
                let cost = measure_problem_seeded(
                    &config,
                    &ids,
                    model,
                    problem,
                    &structures,
                    case.structure_seed,
                );
                let secs = tracer.close(open);
                let rounds = cost.ok().and_then(|c| c.rounds).unwrap_or(0) as f64;
                let cell = cells.entry((setting, problem_name(problem))).or_default();
                cell.0 += secs;
                cell.1 += rounds;
                solve_total += secs;
                explained += rounds * analytic_ns.get(&case.n).copied().unwrap_or(f64::NAN) * 1e-9;
            }
        }
    }
    for ((setting, problem), (secs, rounds)) in cells {
        ctx.push(format!("protocols.{setting}.{problem}.solve_s"), "s", secs);
        ctx.push(
            format!("protocols.{setting}.{problem}.rounds"),
            "rounds",
            rounds,
        );
    }
    ctx.push("protocols.round_frac", "ratio", explained / solve_total);
}

/// One `measure_problem_faulty` per protocol over the `faults` cases.
fn faulty_probes(ctx: &mut Ctx, grid: &Grid, store: &Arc<StructureStore>) {
    let structures: SharedStructures = store.clone();
    let tracer = Arc::clone(&ctx.tracer);
    let mut per_problem: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let (mut completed, mut failed, mut timed_out) = (0u64, 0u64, 0u64);
    for item in grid.items(Workload::Faults) {
        let WorkItem::Faults { case, params } = item else {
            continue;
        };
        let (config, ids) = (case.config(), case.ids());
        for problem in FAULT_PROBLEMS {
            let open = tracer.open(
                format!("protocols.faulty.{}", problem_name(problem)),
                None,
                0,
            );
            let cost = measure_problem_faulty(
                &config,
                &ids,
                Model::Basic,
                problem,
                &structures,
                case.structure_seed,
                params,
                case.seed,
                FAULT_ROUND_LIMIT,
            );
            let secs = tracer.close(open);
            let entry = per_problem.entry(problem_name(problem)).or_default();
            entry.0 += secs;
            entry.1 += cost.rounds.unwrap_or(0) as f64;
            match cost.outcome {
                FaultyOutcome::Completed => completed += 1,
                FaultyOutcome::Failed => failed += 1,
                FaultyOutcome::TimedOut => timed_out += 1,
            }
        }
    }
    for (problem, (secs, rounds)) in per_problem {
        ctx.push(format!("protocols.faulty.{problem}.solve_s"), "s", secs);
        ctx.push(
            format!("protocols.faulty.{problem}.rounds"),
            "rounds",
            rounds,
        );
    }
    ctx.push("protocols.faulty.completed", "count", completed as f64);
    ctx.push("protocols.faulty.failed", "count", failed as f64);
    ctx.push("protocols.faulty.timed_out", "count", timed_out as f64);
}

/// The constructions behind `scaling_cold` at its (N, n), and the strong
/// prefixes behind `tables` at its universes. Bytes are the bitset words
/// the constructions produce, computed from their sizes.
fn combinat_probes(ctx: &mut Ctx, grid: &Grid) {
    let tracer = Arc::clone(&ctx.tracer);
    let scaling = &grid.scaling;
    let (mut dist_s, mut sel_s, mut verify_s, mut bytes) = (0.0, 0.0, 0.0, 0usize);
    for &n in &scaling.sizes {
        let open = tracer.open("combinat.distinguisher.build", None, 0);
        let d = Distinguisher::random(scaling.universe, n, scaling.seed);
        dist_s += tracer.close(open);
        bytes += (0..d.len())
            .map(|i| d.set(i).words().len() * 8)
            .sum::<usize>();
        let open = tracer.open("combinat.verify_sampled", None, 0);
        std::hint::black_box(d.verify_sampled(n, 200, scaling.seed ^ 1));
        verify_s += tracer.close(open);
        drop(d);
        let open = tracer.open("combinat.selective.build", None, 0);
        let f = SelectiveFamily::random(scaling.universe, n, scaling.seed);
        sel_s += tracer.close(open);
        bytes += (0..f.len())
            .map(|i| f.set(i).words().len() * 8)
            .sum::<usize>();
        let open = tracer.open("combinat.verify_sampled", None, 0);
        std::hint::black_box(f.verify_sampled(n, 200, scaling.seed ^ 2));
        verify_s += tracer.close(open);
    }
    let mut strong_keys: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for item in grid.items(Workload::Tables) {
        for (key, hint) in item.structure_keys() {
            let entry = strong_keys.entry((key.universe, key.seed)).or_default();
            *entry = (*entry).max(hint);
        }
    }
    let mut prefix_s = 0.0;
    for ((universe, seed), hint) in strong_keys {
        let open = tracer.open("combinat.strong.prefix", None, 0);
        let strong = SharedStrongDistinguisher::new(universe, seed);
        let sets: Vec<_> = (0..strong.prefix_size_for(hint.max(2)))
            .map(|i| strong.set(i))
            .collect();
        prefix_s += tracer.close(open);
        bytes += sets.iter().map(|s| s.words().len() * 8).sum::<usize>();
    }
    ctx.push("combinat.distinguisher.build_s", "s", dist_s);
    ctx.push("combinat.selective.build_s", "s", sel_s);
    ctx.push("combinat.verify_sampled_s", "s", verify_s);
    ctx.push("combinat.strong.prefix_s", "s", prefix_s);
    ctx.push("combinat.bytes_computed", "bytes", bytes as f64);
}

/// The traced run: every workload's phase, then the layer probes. The
/// spans are written to `trace_path` as JSONL; a self-time summary goes to
/// standard output.
pub fn traced_run(
    grid: &Grid,
    seconds: Duration,
    corrupt_reference: bool,
    scratch: &Path,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        tracer: Arc::new(Tracer::new()),
        next_pass: 0,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        cases: BTreeMap::new(),
        kind_passes: BTreeMap::new(),
    };
    // Half of the run untraced, half traced, split evenly over the four
    // workloads.
    let budget = seconds / 8;
    let tables = in_process(
        &mut ctx,
        Workload::Tables,
        grid,
        budget,
        corrupt_reference,
        scratch,
    )?;
    let faults = in_process(
        &mut ctx,
        Workload::Faults,
        grid,
        budget,
        corrupt_reference,
        scratch,
    )?;
    in_process(
        &mut ctx,
        Workload::ScalingCold,
        grid,
        budget,
        corrupt_reference,
        scratch,
    )?;
    fleet_phase(&mut ctx, grid, budget, &tables, scratch)?;
    case_kind_metrics(&mut ctx);

    let tracer = Arc::clone(&ctx.tracer);
    let seed = grid.tables.seed;
    let analytic: BTreeMap<usize, f64> = grid
        .tables
        .sizes
        .iter()
        .chain([64, 256].iter())
        .map(|&n| (n, round_ns(&tracer, n, EngineKind::Analytic, seed)))
        .collect();
    for n in [64usize, 256] {
        ctx.push(format!("sim.analytic.round_ns.n{n}"), "ns", analytic[&n]);
        ctx.push(
            format!("sim.event.round_ns.n{n}"),
            "ns",
            round_ns(&tracer, n, EngineKind::Event, seed),
        );
    }
    protocol_probes(&mut ctx, grid, &tables.store, &analytic);
    faulty_probes(&mut ctx, grid, &faults.store);
    combinat_probes(&mut ctx, grid);

    tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "# spans ({}): name count total_s self_s",
        trace_path.display()
    );
    for (name, (count, total, own)) in tracer.self_times() {
        println!("#   {name:<44} {count:>7} {total:>12.6} {own:>12.6}");
    }
    ctx.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Outcome {
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics: ctx.metrics,
    })
}
