//! relsim's benchmark: three in-process workloads against the public API
//! of `relsim`, `relsim-cache` and `relsim-serve`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-detailed --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each run sets up several times from scratch (fresh context, fresh
//! cache directory, fresh server) and reports the median set-up time,
//! runs one untimed warm-up operation, then times operations for
//! `--seconds` and reports the fastest one. Every operation's output is
//! checked. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! records spans around each call into a layer on every other operation,
//! and prints the per-layer metrics derived from the spans, plus the
//! tracing overhead measured against the untraced operations in between.
//! The last line of stdout is one JSON object; the lines before it are a
//! readable report. See `perfbench/README.md`.

mod cache;
mod serve;
mod sim;
mod stats;
mod trace;

use relsim::experiments::{Context, Scale};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept back from tuning, for validating later claims.
pub const HELD_OUT_SEED: u64 = 20_170_611;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Per-layer metrics, in report order: name, unit. A workload that never
/// enters a layer reports 0 for it.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("setup.context_build_s", "s"),
    ("trace.system_new_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.host_ns_per_tick", "ns"),
    ("engine.skipped_frac.canonical", "ratio"),
    ("engine.skipped_frac.membound", "ratio"),
    ("sampling.detailed_frac", "ratio"),
    ("metrics.evaluate_ms", "ms"),
    ("cache.read_ms", "ms"),
    ("cache.read_mb_per_s", "MB/s"),
    ("cache.decode_ms", "ms"),
    ("cache.decode_mb_per_s", "MB/s"),
    ("cache.replay_ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.run_request_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.warm_rate", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("trace_overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Recompute `expected.json` instead of benchmarking.
    pub bless: bool,
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    /// Operations run, the untimed warm-up included.
    pub attempted: u64,
    /// Operations whose output failed its check, or that errored.
    pub failed: u64,
    /// Host time of each timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Where an operation is made of parts timed apart (a run of each
    /// mix, on the sim workloads): host time of each timed operation's
    /// parts, ms, one list per kind of part. Empty otherwise.
    pub part_ms: Vec<Vec<f64>>,
    /// Host time of the untimed warm-up operation, ms.
    pub warmup_ms: f64,
    /// Host seconds the throughput is taken over.
    pub busy_s: f64,
    /// Timed operations whose output checked out.
    pub done: u64,
    /// Fastest traced over fastest untraced operation time, less one, in
    /// percent (traced runs only).
    pub overhead_pct: f64,
    /// Peak resident set during the window, MB.
    pub peak_rss_mb: f64,
}

impl Window {
    /// The fastest timed operation, ms. An operation made of parts
    /// counts as the sum of each part's fastest time: the work is
    /// deterministic, so host noise only ever adds time, and a part is
    /// shorter than a slow spell of the host more often than a whole
    /// operation is.
    pub fn op_min_ms(&self) -> f64 {
        if self.part_ms.is_empty() {
            stats::min(&self.op_ms)
        } else {
            self.part_ms.iter().map(|p| stats::min(p)).sum()
        }
    }
}

/// Everything a workload hands back for reporting.
pub struct Outcome {
    pub window: Window,
    /// Workload-level checks beyond per-operation ones (e.g. accuracy).
    pub checks_ok: bool,
    /// Workload-specific metrics printed in the readable report:
    /// name, value, unit, note.
    pub report: Vec<(String, f64, &'static str, String)>,
    /// Per-layer metrics measured (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Scratch space inside the checkout for caches, spans and blessings;
/// removed at exit except for the span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// This process's scratch directory under [`out_dir`].
fn tmp_root() -> PathBuf {
    out_dir().join(format!("tmp-{}", std::process::id()))
}

pub fn tmp_dir(tag: &str) -> PathBuf {
    tmp_root().join(tag)
}

/// The shared set-up step: the isolated reference table for every
/// benchmark on both core types, built fresh with the result cache off.
pub fn build_context(tracer: &Tracer, parent: Option<u64>, job: u64) -> Context {
    relsim_cache::configure(None);
    tracer.scope("setup.context_build", parent, job, || {
        Context::build(Scale::quick())
    })
}

/// Set up `SETUP_REPEATS` times; return the last state and the median
/// set-up time in seconds. `teardown` releases a superseded state
/// outside the timed region.
pub fn repeat_setup<S>(
    tracer: &Tracer,
    mut setup: impl FnMut(&Tracer, Option<u64>, u64) -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for k in 0..SETUP_REPEATS as u64 {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        let g = tracer.start("setup", None, k);
        let s = setup(tracer, g.id(), k);
        g.end(0, "");
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    reset_peak_rss();
    (last.expect("at least one set-up"), stats::median(&times))
}

/// One untimed warm-up call of `op`, then timed calls until `seconds`
/// have passed. `op(job, tracer)` returns whether its output checked
/// out and its own host time in ms, which excludes the output checks.
/// With `tracer` enabled, every other call gets it and the calls in
/// between run untraced.
pub fn timed_ops(
    seconds: f64,
    tracer: &Tracer,
    mut op: impl FnMut(u64, &Tracer) -> (bool, f64),
) -> Window {
    let off = Tracer::new(false);
    let (ok, warmup_ms) = op(0, &off);
    let mut w = Window {
        attempted: 1,
        failed: u64::from(!ok),
        warmup_ms,
        ..Window::default()
    };
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut job = 1;
    while t0.elapsed().as_secs_f64() < seconds {
        let traced = tracer.enabled() && job % 2 == 1;
        let (ok, ms) = op(job, if traced { tracer } else { &off });
        w.attempted += 1;
        w.failed += u64::from(!ok);
        w.done += u64::from(ok);
        w.op_ms.push(ms);
        w.busy_s += ms / 1e3;
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(ms);
        job += 1;
    }
    w.overhead_pct = overhead_pct(&traced_ms, &untraced_ms);
    w.peak_rss_mb = peak_rss_mb();
    w
}

pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    (stats::min(traced_ms) / stats::min(untraced_ms) - 1.0) * 100.0
}

/// Reset the peak-resident-set mark, so `peak_rss_mb` covers only what
/// follows (the measured windows, not set-up).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.bless && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["sim-detailed", "sim-sampled", "serve-mixed"];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] | --bless\n\
                 seeds: {DEFAULT_SEED} by default; {HELD_OUT_SEED} is kept back for validating claims",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Set-up and measured work run on one pool worker, inline on this
    // thread, so their time and memory do not depend on how busy the
    // host's second core is. `serve-mixed` uses both cores: two
    // connections, two exec workers.
    relsim::pool::set_default_jobs(1);
    if args.bless {
        sim::bless();
        let _ = std::fs::remove_dir_all(tmp_root());
        return;
    }
    let tracer = Tracer::new(args.trace);
    let (setup_s, outcome) = match args.workload.as_str() {
        "sim-detailed" => sim::run(&args, &tracer, false),
        "sim-sampled" => sim::run(&args, &tracer, true),
        "serve-mixed" => serve::run(&args, &tracer),
        _ => unreachable!("validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(tmp_root());
    let w = &outcome.window;
    let mut correct = outcome.checks_ok && w.failed == 0 && w.attempted > 0;

    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "attempted {}  failed {}  correct {}",
        w.attempted, w.failed, correct
    );
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit) in LAYER_METRICS {
            let v = if name == "trace_overhead_pct" {
                w.overhead_pct
            } else {
                outcome
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v)
            };
            metrics.push((name.to_string(), v, unit));
        }
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    } else {
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("op_min_ms".into(), w.op_min_ms(), "ms"));
        metrics.push(("peak_rss_mb".into(), w.peak_rss_mb, "MB"));
        correct &= metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0);
    }
    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>14.4} {unit}");
    }
    println!(
        "op samples {} (no tail percentile below 1000); untimed warm-up op {:.3} ms",
        w.op_ms.len(),
        w.warmup_ms
    );
    println!(
        "{:<32} {:>14.4} ms  median over all timed ops",
        "op_p50_ms",
        stats::median(&w.op_ms)
    );
    println!(
        "{:<32} {:>14.4} 1/s  ops that checked out per host second",
        "ops_per_s",
        w.done as f64 / w.busy_s
    );
    for (name, v, unit, note) in &outcome.report {
        println!("{name:<32} {v:>14.4} {unit}  {note}");
    }
    // A per-layer figure with no samples (say, no cold request fell on a
    // traced slot) reads 0 in the JSON line and NaN in the report above.
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.attempted,
        w.failed,
        body.join(", ")
    );
}
