//! The `sim-detailed` and `sim-sampled` workloads: repeated 4B4S runs of
//! the canonical eight-program mix and the memory-bound `8MEM` mix under
//! the reliability-optimized scheduler, result cache off, one worker.
//!
//! One operation is one pass over the mix rotation: a run of each mix,
//! in an order drawn from the workload seed. Each run is the body of
//! `relsim::experiments::run_mix_traced` spelled out, so the traced run
//! can time `System::new`, `System::run_traced` and `evaluate` apart.

use crate::trace::Tracer;
use crate::{build_context, repeat_setup, stats, timed_ops, Args, Outcome, Window};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relsim::evaluate::{evaluate, DEFAULT_IFR};
use relsim::experiments::{geomean_abs_err, hcmp_config, Context};
use relsim::mixes::Mix;
use relsim::{
    AppSpec, Objective, RunObs, SamplingConfig, SamplingParams, SamplingScheduler, System,
    SystemConfig,
};
use relsim_cache::Key;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Ticks per fully detailed run.
pub const DETAILED_TICKS: u64 = 1_000_000;
/// Ticks per sampled run (and per detailed reference run).
pub const SAMPLED_TICKS: u64 = 4_000_000;
/// The sampling configuration the repository's accuracy claim is for.
pub const SAMPLE_CONFIG: &str = "1500:15000:1";
/// The 3% bound of `tests/sampling_accuracy.rs`, held on the geomean
/// STP error of both mixes, as the test holds it per metric.
const ERROR_BOUND: f64 = 0.03;
/// The bound held on the geomean SSER error of both mixes. On these 4B4S
/// mixes the sampled SSER was already 3.338% off when the benchmark was
/// defined (model version 3), above [`ERROR_BOUND`]; that exceedance is
/// left standing (see the README), and SSER may not get any worse.
const SSER_BOUND: f64 = 0.0334;

/// Mix names, in the order of [`mixes`].
pub const MIX_NAMES: [&str; 2] = ["canonical", "membound"];

/// Results the benchmark checks against, recomputed by `--bless`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Expected {
    pub detailed_ticks: u64,
    pub sampled_ticks: u64,
    pub sample_config: String,
    pub mixes: Vec<MixExpected>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixExpected {
    pub mix: String,
    pub benchmarks: Vec<String>,
    /// Digest of the detailed run's result and evaluation.
    pub detailed_digest: String,
    /// SSER and STP of a fully detailed run at `sampled_ticks`.
    pub reference_sser: f64,
    pub reference_stp: f64,
}

const EXPECTED_JSON: &str = include_str!("../expected.json");

pub fn expected() -> Option<Expected> {
    serde_json::from_str(EXPECTED_JSON).ok()
}

/// The canonical eight-program mix and the stall-heavy memory-bound
/// companion (as in `bench_perf`).
fn mixes(ctx: &Context) -> [Mix; 2] {
    let membound = Mix {
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
    };
    [ctx.eight_program_mixes().remove(0), membound]
}

/// Stable digest of any serializable output.
pub fn digest<T: Serialize + ?Sized>(value: &T) -> String {
    Key::of_bytes(&serde_json::to_vec(value).expect("results serialize")).hex()
}

struct RunOut {
    digest: String,
    sser: f64,
    stp: f64,
    skipped: u64,
    detailed: u64,
    ff: u64,
    /// Host time of `System::new` + `run_traced` + `evaluate`, ms.
    ms: f64,
}

/// One run of `mix`: what `run_mix_traced` does for the RelOpt
/// scheduler, with each layer call in its own span.
#[allow(clippy::too_many_arguments)]
fn run_one(
    ctx: &Context,
    cfg: &SystemConfig,
    mix: &Mix,
    ticks: u64,
    sampling: Option<SamplingConfig>,
    tracer: &Tracer,
    parent: Option<u64>,
    job: u64,
    tag: &'static str,
) -> RunOut {
    let specs: Vec<AppSpec> = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, n)| AppSpec::spec(n, ctx.scale.seed ^ (i as u64 + 1)))
        .collect();
    let mut obs = RunObs::disabled();
    let t0 = Instant::now();
    let mut sched = SamplingScheduler::new(
        Objective::Sser,
        cfg.core_kinds(),
        cfg.quantum_ticks,
        SamplingParams::default(),
    );
    let g = tracer.start("trace.system_new", parent, job);
    let mut system = System::new(cfg.clone(), &specs);
    g.end(0, tag);
    system.set_sampling(sampling);
    system.set_skip(true);
    let g = tracer.start("engine.run", parent, job);
    let result = system.run_traced(&mut sched, ticks, &mut obs);
    g.end(result.duration, tag);
    let g = tracer.start("metrics.evaluate", parent, job);
    let eval = evaluate(&result, &ctx.refs, DEFAULT_IFR);
    g.end(0, tag);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = obs.recorder.snapshot();
    RunOut {
        digest: digest(&(&result, &eval)),
        sser: eval.sser,
        stp: eval.stp,
        skipped: snap.counter("sim.skipped_ticks").unwrap_or(0),
        detailed: snap.counter("sim.detailed_ticks").unwrap_or(0) * result.cores.len() as u64,
        ff: snap.counter("sim.ff_ticks").unwrap_or(0) * result.cores.len() as u64,
        ms,
    }
}

/// Per-mix observations of a window, for checks and per-layer ratios.
#[derive(Default, Clone)]
struct MixObs {
    digest: Option<String>,
    sser_ratio: f64,
    stp_ratio: f64,
    skipped: u64,
    detailed: u64,
    ff: u64,
}

fn measure(
    ctx: &Context,
    sampled: bool,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    expected: Option<&Expected>,
    seen: &mut [MixObs; 2],
) -> Window {
    let cfg = hcmp_config(ctx, 4, 4);
    let mixes = mixes(ctx);
    let (ticks, sampling) = if sampled {
        let sc = SamplingConfig::parse(SAMPLE_CONFIG).expect("claimed sampling config parses");
        (SAMPLED_TICKS, Some(sc))
    } else {
        (DETAILED_TICKS, None)
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut part_ms = vec![Vec::new(); MIX_NAMES.len()];
    let mut window = timed_ops(seconds, tracer, |job, tracer| {
        let mut order = [0usize, 1];
        order.shuffle(&mut rng);
        let g = tracer.start("job", None, job);
        let mut ok = true;
        let mut ms = 0.0;
        for mi in order {
            let out = run_one(
                ctx,
                &cfg,
                &mixes[mi],
                ticks,
                sampling,
                tracer,
                g.id(),
                job,
                MIX_NAMES[mi],
            );
            ms += out.ms;
            if job > 0 {
                part_ms[mi].push(out.ms);
            }
            let obs = &mut seen[mi];
            // Every run of a mix must reproduce the first run bit for bit.
            ok &= *obs.digest.get_or_insert_with(|| out.digest.clone()) == out.digest;
            let want = expected.and_then(|e| e.mixes.get(mi));
            match want {
                Some(want) if !sampled => ok &= out.digest == want.detailed_digest,
                Some(want) => {
                    obs.sser_ratio = out.sser / want.reference_sser;
                    obs.stp_ratio = out.stp / want.reference_stp;
                }
                None => ok = false,
            }
            obs.skipped = out.skipped;
            obs.detailed = out.detailed;
            obs.ff = out.ff;
        }
        if sampled {
            let (sser, stp) = sample_errs(seen);
            ok &= sser <= SSER_BOUND && stp <= ERROR_BOUND;
        }
        g.end(2 * ticks, "");
        (ok, ms)
    });
    window.part_ms = part_ms;
    window
}

/// Geomean error of the sampled SSER and STP of both mixes against
/// their detailed references, together (`sample_err_pct`).
fn sample_err(seen: &[MixObs; 2]) -> f64 {
    geomean_abs_err(seen.iter().flat_map(|o| [o.sser_ratio, o.stp_ratio]))
}

/// Geomean error of the sampled SSER, and of the sampled STP, of both
/// mixes: the figures the accuracy check bounds.
fn sample_errs(seen: &[MixObs; 2]) -> (f64, f64) {
    (
        geomean_abs_err(seen.iter().map(|o| o.sser_ratio)),
        geomean_abs_err(seen.iter().map(|o| o.stp_ratio)),
    )
}

/// Per-job sum of the spans named `name`, median over jobs, in ms.
fn per_job_median_ms(tracer: &Tracer, name: &str) -> f64 {
    let mut by_job: std::collections::BTreeMap<u64, f64> = Default::default();
    for s in tracer.spans(name, "") {
        *by_job.entry(s.job).or_default() += s.ms();
    }
    stats::median(&by_job.into_values().collect::<Vec<_>>())
}

pub fn run(args: &Args, tracer: &Tracer, sampled: bool) -> (f64, Outcome) {
    let (ctx, setup_s) = repeat_setup(tracer, build_context, drop);
    let expected = expected();
    let mut seen: [MixObs; 2] = Default::default();
    let window = measure(
        &ctx,
        sampled,
        args.seed,
        args.seconds,
        tracer,
        expected.as_ref(),
        &mut seen,
    );

    let mut report = Vec::new();
    let per_job_ticks = 2 * if sampled {
        SAMPLED_TICKS
    } else {
        DETAILED_TICKS
    };
    report.push((
        "sim_mticks_per_s".to_string(),
        (window.done * per_job_ticks) as f64 / 1e6 / window.busy_s,
        "Mtick/s",
        format!(
            "4B4S, {} timed job(s) of {} ticks each ({} mixes)",
            window.op_ms.len(),
            per_job_ticks,
            MIX_NAMES.join("+")
        ),
    ));
    if sampled {
        let (sser, stp) = sample_errs(&seen);
        report.push((
            "sample_err_pct".to_string(),
            sample_err(&seen) * 100.0,
            "%",
            format!(
                "geomean SSER {:.3}% (held to {:.2}%) STP {:.3}% (held to {:.0}%) ({}) vs detailed {SAMPLED_TICKS}-tick runs",
                sser * 100.0,
                SSER_BOUND * 100.0,
                stp * 100.0,
                ERROR_BOUND * 100.0,
                MIX_NAMES
                    .iter()
                    .zip(&seen)
                    .map(|(m, o)| format!(
                        "{m}: SSER {:+.2}% STP {:+.2}%",
                        (o.sser_ratio - 1.0) * 100.0,
                        (o.stp_ratio - 1.0) * 100.0
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }

    let mut layers = Vec::new();
    if tracer.enabled() {
        let builds: Vec<f64> = tracer
            .ms("setup.context_build", "")
            .iter()
            .map(|ms| ms / 1e3)
            .collect();
        let runs = tracer.spans("engine.run", "");
        let run_ns: u64 = runs.iter().map(|s| s.end_ns - s.start_ns).sum();
        let run_ticks: u64 = runs.iter().map(|s| s.work).sum();
        let frac = |o: &MixObs| o.skipped as f64 / o.detailed.max(1) as f64;
        let detailed: u64 = seen.iter().map(|o| o.detailed).sum();
        let ff: u64 = seen.iter().map(|o| o.ff).sum();
        layers = vec![
            ("setup.context_build_s", stats::median(&builds)),
            (
                "trace.system_new_ms",
                per_job_median_ms(tracer, "trace.system_new"),
            ),
            ("engine.run_ms", per_job_median_ms(tracer, "engine.run")),
            (
                "engine.host_ns_per_tick",
                run_ns as f64 / run_ticks.max(1) as f64,
            ),
            ("engine.skipped_frac.canonical", frac(&seen[0])),
            ("engine.skipped_frac.membound", frac(&seen[1])),
            (
                "sampling.detailed_frac",
                detailed as f64 / (detailed + ff).max(1) as f64,
            ),
            (
                "metrics.evaluate_ms",
                per_job_median_ms(tracer, "metrics.evaluate"),
            ),
        ];
    }
    (
        setup_s,
        Outcome {
            window,
            checks_ok: expected.is_some(),
            report,
            layers,
        },
    )
}

/// Recompute `expected.json` from the current engine.
pub fn bless() {
    let tracer = Tracer::new(false);
    let ctx = build_context(&tracer, None, 0);
    let cfg = hcmp_config(&ctx, 4, 4);
    let mut entries = Vec::new();
    for (mi, mix) in mixes(&ctx).iter().enumerate() {
        let detailed = run_one(&ctx, &cfg, mix, DETAILED_TICKS, None, &tracer, None, 0, "");
        let reference = run_one(&ctx, &cfg, mix, SAMPLED_TICKS, None, &tracer, None, 0, "");
        entries.push(MixExpected {
            mix: MIX_NAMES[mi].to_string(),
            benchmarks: mix.benchmarks.clone(),
            detailed_digest: detailed.digest,
            reference_sser: reference.sser,
            reference_stp: reference.stp,
        });
    }
    let expected = Expected {
        detailed_ticks: DETAILED_TICKS,
        sampled_ticks: SAMPLED_TICKS,
        sample_config: SAMPLE_CONFIG.to_string(),
        mixes: entries,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let mut bytes = serde_json::to_vec_pretty(&expected).expect("expected serializes");
    bytes.push(b'\n');
    std::fs::write(&path, bytes).expect("write expected.json");
    println!("wrote {}", path.display());
}
