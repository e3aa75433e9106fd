//! Perf-trajectory benchmark: a fixed canonical workload timed with the
//! event-horizon skip engine, written to `BENCH_perf.json` at the repo
//! root so throughput is machine-readable across PRs.
//!
//! The canonical workload is the 4B4S eight-program mix at quick scale
//! under the reliability scheduler (fixed seed), run in both engines
//! (fully detailed and `--sample 1500:15000:1`), plus the quick-scale
//! scheduler-comparison grid that dominates `run_all --quick`.
//!
//! `./ci.sh bench` runs this and prints the delta against the committed
//! JSON. `--check` (wired as `./ci.sh bench-check` and a CI step) gates
//! the detailed-engine rows: a `-detailed-`/`-membound-` slowdown beyond
//! the noise-aware tolerance exits 1; sampled rows stay warn-only.

use relsim::experiments::{
    compare_schedulers, hcmp_config, run_mix_traced, Context, Scale, SchedKind,
};
use relsim::mixes::Mix;
use relsim::{sampling, SamplingConfig, SamplingParams};
use relsim_bench::perf::{compare, RowStat};
use relsim_obs::{info, RunObs};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Repetitions per timed row; the fastest repeat is reported. One
/// additional unrecorded warm-up run precedes them so page-cache and
/// allocator effects land outside the samples.
const BENCH_REPEATS: usize = 5;

/// Tick count for the timed single-mix rows. Longer than `Scale::quick`
/// runs so per-row wall times sit well clear of timer and scheduler
/// noise; the quick-grid timing below keeps the exact `run_all --quick`
/// duration.
const BENCH_RUN_TICKS: u64 = 1_000_000;

/// One timed configuration of the canonical workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PerfRow {
    /// `<workload>-<engine>-skip`.
    name: String,
    /// Best wall-clock milliseconds across the repeats (excludes
    /// context build).
    wall_ms: f64,
    /// Every repeat's wall time in measurement order, milliseconds.
    samples_ms: Vec<f64>,
    /// Population standard deviation of the repeats, milliseconds.
    stddev_ms: f64,
    /// Relative spread of the repeats: `(max - min) / min`.
    jitter: f64,
    /// Global ticks simulated.
    ticks: u64,
    /// Global ticks per wall-clock second.
    ticks_per_sec: f64,
    /// Detailed per-core ticks the horizon engine skipped.
    skipped_ticks: u64,
    /// Skipped fraction of all detailed per-core ticks.
    skipped_fraction: f64,
}

impl PerfRow {
    /// The row's sample statistics, for the perf-trend comparison. Rows
    /// from snapshots that predate per-sample recording degrade to a
    /// single sample at the recorded best.
    fn stat(&self) -> RowStat {
        let samples = if self.samples_ms.is_empty() {
            vec![self.wall_ms]
        } else {
            self.samples_ms.clone()
        };
        RowStat::from_samples(&self.name, samples)
    }
}

/// One retired snapshot in the rolling perf history: enough to plot a
/// trajectory (name, best wall, throughput per row) without keeping
/// every full report forever.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HistoryEntry {
    model_version: u32,
    rows: Vec<HistoryRow>,
}

/// One row of a retired snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HistoryRow {
    name: String,
    wall_ms: f64,
    ticks_per_sec: f64,
}

/// Retired snapshots kept in the rolling history.
const HISTORY_CAP: usize = 20;

/// Wall time of the quick-scale scheduler-comparison grid (the bulk of
/// `run_all --quick`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuickGridTiming {
    skip_wall_ms: f64,
}

/// Wall time of a full `run_all --quick` invocation with a cold result
/// cache vs an immediate warm repeat against the same cache directory.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheTiming {
    cold_wall_ms: f64,
    warm_wall_ms: f64,
    /// `cold / warm` wall-time ratio.
    speedup: f64,
    /// Fraction of the warm run's cache lookups served from the cache.
    warm_hit_rate: f64,
}

/// The machine-readable perf trajectory, one snapshot per PR.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PerfReport {
    model_version: u32,
    rows: Vec<PerfRow>,
    quick_grid: QuickGridTiming,
    /// Cold vs warm result-cache wall time of `run_all --quick`; `None`
    /// when the sibling `run_all` binary was not built alongside this one
    /// (older committed snapshots also deserialize to `None`).
    cache: Option<CacheTiming>,
    /// Rolling history of previously committed snapshots, oldest first,
    /// capped at [`HISTORY_CAP`]; each refresh retires the snapshot it
    /// replaces into this list.
    history: Vec<HistoryEntry>,
}

impl PerfReport {
    /// Compress this report into one history entry.
    fn to_history(&self) -> HistoryEntry {
        HistoryEntry {
            model_version: self.model_version,
            rows: self
                .rows
                .iter()
                .map(|r| HistoryRow {
                    name: r.name.clone(),
                    wall_ms: r.wall_ms,
                    ticks_per_sec: r.ticks_per_sec,
                })
                .collect(),
        }
    }
}

/// The fixed stall-heavy companion workload: eight memory-dominated
/// programs, where skipped ROB-head fills and inorder stalls carry the
/// bulk of the ticks. This is where the horizon engine pays most.
fn memory_bound_mix() -> Mix {
    Mix {
        category: "8MEM".to_string(),
        benchmarks: [
            "milc",
            "lbm",
            "libquantum",
            "soplex",
            "mcf",
            "GemsFDTD",
            "omnetpp",
            "astar",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    }
}

/// Time one canonical 4B4S run and collect its skip statistics. The run
/// is repeated and the fastest wall time kept — the run itself is
/// deterministic, so the minimum is the least-noisy estimate of its cost.
fn timed_run(ctx: &Context, name: &str, mix: &Mix, sampled: bool) -> PerfRow {
    sampling::set_default(if sampled {
        Some(SamplingConfig::parse("1500:15000:1").expect("claimed config"))
    } else {
        None
    });
    let cfg = hcmp_config(ctx, 4, 4);
    let mut samples_ms = Vec::with_capacity(BENCH_REPEATS);
    let mut obs = RunObs::disabled();
    let mut duration = 0;
    let mut n_cores = 0;
    for rep in 0..=BENCH_REPEATS {
        obs = RunObs::disabled();
        let t0 = Instant::now();
        let (_eval, result) = run_mix_traced(
            ctx,
            &cfg,
            mix,
            SchedKind::RelOpt,
            SamplingParams::default(),
            &mut obs,
        );
        if rep > 0 {
            samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        duration = result.duration;
        n_cores = result.cores.len() as u64;
    }
    sampling::set_default(None);
    let snap = obs.recorder.snapshot();
    let skipped = snap.counter("sim.skipped_ticks").unwrap_or(0);
    let detailed = snap.counter("sim.detailed_ticks").unwrap_or(0);
    let detailed_core_ticks = detailed * n_cores;
    let stat = RowStat::from_samples(name, samples_ms);
    PerfRow {
        name: name.to_string(),
        wall_ms: stat.wall_ms,
        ticks: duration,
        ticks_per_sec: duration as f64 / (stat.wall_ms / 1e3),
        skipped_ticks: skipped,
        skipped_fraction: if detailed_core_ticks > 0 {
            skipped as f64 / detailed_core_ticks as f64
        } else {
            0.0
        },
        samples_ms: stat.samples_ms,
        stddev_ms: stat.stddev_ms,
        jitter: stat.jitter,
    }
}

/// Time the quick-scale `compare_schedulers` grid (fully detailed).
fn timed_grid(ctx: &Context) -> f64 {
    sampling::set_default(None);
    let cfg = hcmp_config(ctx, 2, 2);
    let mixes = ctx.four_program_mixes();
    let mut obs = RunObs::disabled();
    let t0 = Instant::now();
    let comparisons = compare_schedulers(ctx, &cfg, &mixes, SamplingParams::default(), &mut obs);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!comparisons.is_empty(), "grid produced no results");
    wall_ms
}

/// Time one `run_all --quick` child against the given scratch output and
/// cache directories, returning its wall time in milliseconds.
fn timed_run_all(run_all: &Path, scratch: &Path, metrics_name: &str) -> Option<f64> {
    let t0 = Instant::now();
    let status = Command::new(run_all)
        .args(["--quick", "--quiet", "--metrics-out"])
        .arg(scratch.join(metrics_name))
        .env("RELSIM_OUT", scratch.join("out"))
        .env("RELSIM_CACHE_DIR", scratch.join("cache"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    match status {
        Ok(s) if s.success() => Some(t0.elapsed().as_secs_f64() * 1e3),
        Ok(s) => {
            relsim_obs::warn!("run_all --quick exited with {s}; skipping cache timing");
            None
        }
        Err(e) => {
            relsim_obs::warn!("could not spawn {run_all:?}: {e}; skipping cache timing");
            None
        }
    }
}

/// Time a full `run_all --quick` twice against a fresh cache directory —
/// once cold, once warm — in an isolated scratch output directory, and
/// read the warm run's hit rate from its metrics snapshot. Returns `None`
/// (with a warning) when the sibling `run_all` binary is missing, e.g.
/// under `cargo run --bin bench_perf` without a prior workspace build.
fn timed_cache_runs() -> Option<CacheTiming> {
    let run_all = std::env::current_exe()
        .ok()?
        .parent()?
        .join(format!("run_all{}", std::env::consts::EXE_SUFFIX));
    if !run_all.exists() {
        relsim_obs::warn!("{run_all:?} not built; skipping the cold/warm cache timing");
        return None;
    }
    let scratch = std::env::temp_dir().join(format!("relsim-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        relsim_obs::warn!("cannot create scratch dir {scratch:?}: {e}; skipping cache timing");
        return None;
    }
    let timing = (|| {
        let cold_wall_ms = timed_run_all(&run_all, &scratch, "metrics-cold.json")?;
        let warm_wall_ms = timed_run_all(&run_all, &scratch, "metrics-warm.json")?;
        let warm_hit_rate = std::fs::read(scratch.join("metrics-warm.json"))
            .ok()
            .and_then(|b| serde_json::from_slice::<relsim_obs::MetricsSnapshot>(&b).ok())
            .map_or(0.0, |snap| {
                let hits = snap.counter("cache.hits").unwrap_or(0);
                let misses = snap.counter("cache.misses").unwrap_or(0);
                if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                }
            });
        Some(CacheTiming {
            cold_wall_ms,
            warm_wall_ms,
            speedup: cold_wall_ms / warm_wall_ms,
            warm_hit_rate,
        })
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    timing
}

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .to_path_buf()
}

/// Time the three canonical single-mix rows at the bench tick count.
fn measure_rows(ctx: &Context) -> Vec<PerfRow> {
    let canonical = ctx.eight_program_mixes().remove(0);
    let memory = memory_bound_mix();
    let mut row_ctx = ctx.clone();
    row_ctx.scale.run_ticks = BENCH_RUN_TICKS;
    vec![
        timed_run(&row_ctx, "4B4S-detailed-skip", &canonical, false),
        timed_run(&row_ctx, "4B4S-sampled-skip", &canonical, true),
        timed_run(&row_ctx, "4B4S-membound-skip", &memory, false),
    ]
}

/// Parse `--check-inject F` / `--check-inject=F`: an artificial slowdown
/// factor applied to the fresh measurements, for exercising the gate
/// itself (`--check-inject 1.2` must fail an otherwise healthy tree).
fn parse_check_inject<I: IntoIterator<Item = String>>(args: I) -> f64 {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if let Some(v) = arg.strip_prefix("--check-inject=") {
            Some(v.to_string())
        } else if arg == "--check-inject" {
            iter.next()
        } else {
            continue;
        };
        match value.as_deref().map(str::parse::<f64>) {
            Some(Ok(f)) if f > 0.0 => return f,
            other => {
                relsim_obs::warn!(
                    "--check-inject expects a positive factor, got {:?}; ignoring",
                    other.map(|_| value.as_deref().unwrap_or("").to_string())
                );
                return 1.0;
            }
        }
    }
    1.0
}

/// `bench_perf --check`: re-time only the canonical rows and diff them
/// against the committed `BENCH_perf.json` with noise-aware thresholds.
/// Detailed-engine rows (`-detailed-`, `-membound-`) gate: a regression
/// beyond tolerance exits 1. Sampled rows are warn-only — they print
/// REGRESSED but never fail the check (see [`relsim_bench::perf::gating`]
/// for the rationale). Exits 2 when there is no comparable committed
/// snapshot.
fn run_check(inject: f64) -> ! {
    let path = repo_root().join("BENCH_perf.json");
    let prev: PerfReport = match std::fs::read(&path) {
        Ok(bytes) => match serde_json::from_slice(&bytes) {
            Ok(p) => p,
            Err(e) => {
                relsim_obs::error!(
                    "committed {path:?} does not parse ({e}); \
                     refresh it with `bench_perf` before `--check`"
                );
                std::process::exit(2);
            }
        },
        Err(e) => {
            relsim_obs::error!("no committed {path:?} ({e}); nothing to check against");
            std::process::exit(2);
        }
    };
    let ctx = relsim_bench::context(Scale::quick());
    info!("bench_perf --check: re-timing the canonical rows");
    let rows = measure_rows(&ctx);
    let committed: Vec<RowStat> = prev.rows.iter().map(PerfRow::stat).collect();
    let fresh: Vec<RowStat> = rows
        .iter()
        .map(|r| {
            let mut s = r.stat();
            if inject != 1.0 {
                for v in &mut s.samples_ms {
                    *v *= inject;
                }
                s = RowStat::from_samples(&s.name, s.samples_ms);
            }
            s
        })
        .collect();
    if inject != 1.0 {
        println!("check: injecting an artificial {inject:.2}x slowdown into fresh timings");
    }
    let deltas = compare(&committed, &fresh);
    if deltas.is_empty() {
        relsim_obs::error!("no committed row matches a fresh row; snapshot too old to compare");
        std::process::exit(2);
    }
    let mut gate_failed = false;
    let mut warned = false;
    for d in &deltas {
        println!(
            "check {:24} {:+6.1}% wall (tolerance {:+.1}%)  {}",
            d.name,
            (d.ratio - 1.0) * 100.0,
            d.threshold * 100.0,
            match (d.regressed, d.gating) {
                (false, _) => "ok",
                (true, true) => "REGRESSED",
                (true, false) => "REGRESSED (warn-only: sampled row)",
            }
        );
        gate_failed |= d.regressed && d.gating;
        warned |= d.regressed && !d.gating;
    }
    if gate_failed {
        println!("check: detailed-engine perf regression beyond noise tolerance; see rows above");
        std::process::exit(1);
    }
    if warned {
        println!("check: warn-only rows regressed; gating rows are all within tolerance");
    } else {
        println!("check: all {} rows within tolerance", deltas.len());
    }
    std::process::exit(0);
}

fn main() {
    let obs_args = relsim_bench::obs_init();
    // The timed rows measure the *engine*: result caching in this process
    // would turn every repeat into a memory-tier hit. The cold/warm cache
    // rows time child `run_all --quick` processes against their own
    // scratch cache directory instead.
    relsim_cache::configure(None);
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: bench_perf [--jobs N] [--check [--check-inject F]]\n\
             Times the canonical 4B4S workload (detailed and sampled engines), the\n\
             quick-scale scheduler grid, and a cold-vs-warm result-cache pass of\n\
             run_all --quick, then writes BENCH_perf.json at the repo root.\n\
             --check               re-time only the canonical rows and diff them\n\
             \x20                      against the committed BENCH_perf.json; exits 1\n\
             \x20                      when a detailed-engine row (-detailed-/-membound-)\n\
             \x20                      slows beyond the noise tolerance; sampled rows\n\
             \x20                      are warn-only\n\
             --check-inject F      multiply the fresh --check timings by F (gate\n\
             \x20                      self-test; 1.2 must fail a healthy tree)\n{}",
            relsim_bench::JOBS_HELP
        );
        return;
    }
    if std::env::args().any(|a| a == "--check") {
        run_check(parse_check_inject(std::env::args().skip(1)));
    }
    let mut obs = relsim_bench::run_obs(&obs_args);
    // The context is the shared, cached setup step; it is deliberately
    // outside every timed region.
    let ctx = relsim_bench::context(Scale::quick());

    info!("bench_perf: canonical 4B4S runs (detailed, sampled, membound)");
    // The single-mix rows run longer than quick scale for stable timing.
    let rows = measure_rows(&ctx);
    info!("bench_perf: quick-scale scheduler grid");
    let grid_ms = timed_grid(&ctx);
    info!("bench_perf: run_all --quick, cold vs warm result cache");
    let cache = timed_cache_runs();

    let mut report = PerfReport {
        model_version: relsim_bench::MODEL_VERSION,
        quick_grid: QuickGridTiming {
            skip_wall_ms: grid_ms,
        },
        cache,
        rows,
        history: Vec::new(),
    };

    for r in &report.rows {
        println!(
            "{:24} {:>9.1} ms (±{:>5.1})  {:>12.0} ticks/s  skipped {:>5.1}%",
            r.name,
            r.wall_ms,
            r.stddev_ms,
            r.ticks_per_sec,
            r.skipped_fraction * 100.0
        );
    }
    println!("quick grid: {:.1} ms", report.quick_grid.skip_wall_ms);
    match &report.cache {
        Some(c) => println!(
            "run_all --quick: cold {:.0} ms vs warm {:.0} ms -> {:.2}x (warm hit rate {:.0}%)",
            c.cold_wall_ms,
            c.warm_wall_ms,
            c.speedup,
            c.warm_hit_rate * 100.0
        ),
        None => println!("run_all --quick: cache timing skipped (run_all binary unavailable)"),
    }

    // Perf trajectory: print the delta against the committed snapshot,
    // retire it into the rolling history, then overwrite it.
    let path = repo_root().join("BENCH_perf.json");
    if let Ok(bytes) = std::fs::read(&path) {
        match serde_json::from_slice::<PerfReport>(&bytes) {
            Ok(prev) => {
                for r in &report.rows {
                    if let Some(p) = prev.rows.iter().find(|p| p.name == r.name) {
                        println!(
                            "delta {:24} {:+.1}% wall vs committed ({:.1} ms -> {:.1} ms)",
                            r.name,
                            (r.wall_ms / p.wall_ms - 1.0) * 100.0,
                            p.wall_ms,
                            r.wall_ms
                        );
                    }
                }
                println!(
                    "delta quick grid: {:+.1}% wall vs committed",
                    (report.quick_grid.skip_wall_ms / prev.quick_grid.skip_wall_ms - 1.0) * 100.0
                );
                report.history = prev.history.clone();
                report.history.push(prev.to_history());
                if report.history.len() > HISTORY_CAP {
                    let drop = report.history.len() - HISTORY_CAP;
                    report.history.drain(..drop);
                }
            }
            Err(e) => info!("committed BENCH_perf.json unreadable ({e}); rewriting"),
        }
    } else {
        info!("no committed BENCH_perf.json; writing the first snapshot");
    }
    let bytes = serde_json::to_vec_pretty(&report).expect("serialize perf report");
    match relsim_obs::write_atomic(&path, &bytes) {
        Ok(()) => info!("wrote {path:?}"),
        Err(e) => {
            relsim_obs::error!("cannot write {path:?}: {e}");
            std::process::exit(1);
        }
    }
    relsim_bench::obs_finish(&obs_args, &mut obs);
}
