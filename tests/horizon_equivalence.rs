//! Differential harness for the event-horizon cycle-skipping engine
//! (DESIGN.md §11): skipping must be *byte-identical* to the plain tick
//! loop — same `RunResult`s, same event streams, same golden figures — at
//! every `--jobs` and `--sample` setting, across all schedulers.
//!
//! The plain tick loop is the referee: no binary runs it, only these
//! tests (through `skip::set_default_enabled(false)` and bare
//! `for t in from..to { core.tick(t, ..) }` loops).
//!
//! Three layers of evidence:
//!
//! 1. Grid-level byte identity: the scheduler-comparison grid serialized
//!    with skipping on equals the grid with skipping off, detailed and
//!    sampled, at `-j1` and `-j4` — and profiling the run changes none of
//!    its bytes.
//! 2. Core-level properties (proptest): the reported horizon is always
//!    strictly in the future, and a core driven through arbitrary legal
//!    skips, or through the single-core driver `Core::run`, ends in
//!    exactly the architectural state of a plainly-ticked twin.
//! 3. Isolated reference runs (`run_isolated`, which drives `Core::run`)
//!    serialize to the same bytes as a plain-loop run.
//!
//! All grid tests mutate process-wide defaults (skip enable, sampling
//! configuration, pool worker count, profiling), so they serialize on a
//! mutex.

use relsim::experiments::{compare_schedulers, hcmp_config, Context, Scale};
use relsim::mixes::Mix;
use relsim::{pool, sampling, skip, SamplingConfig, SamplingParams};
use relsim_obs::{span, EventSink, JsonlSink, RunObs};
use std::sync::Mutex;

/// The sampling configuration the repo's accuracy claim is stated for;
/// the skip engine must compose with it bit-for-bit.
const CLAIMED_CONFIG: &str = "1500:15000:1";

static GLOBALS: Mutex<()> = Mutex::new(());

fn scale() -> Scale {
    Scale {
        isolation_ticks: 60_000,
        run_ticks: 100_000,
        quantum_ticks: 8_000,
        per_category: 1,
        seed: 9,
    }
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            category: "hzn-a".into(),
            benchmarks: vec![
                "hmmer".into(),
                "milc".into(),
                "gobmk".into(),
                "povray".into(),
            ],
        },
        Mix {
            category: "hzn-b".into(),
            benchmarks: vec!["lbm".into(), "mcf".into(), "hmmer".into(), "milc".into()],
        },
    ]
}

/// Serialize a buffered event stream to the JSONL bytes a `--trace-out`
/// file would contain.
fn jsonl_bytes(obs: &mut RunObs) -> Vec<u8> {
    let mut log = JsonlSink::new(Vec::new());
    for e in obs.sink.take_events().expect("buffered sink") {
        log.emit(&e);
    }
    log.into_inner()
}

/// Run the full `mix × scheduler` grid on a prebuilt context and return
/// (serialized results, serialized event log). `profile` turns the stage
/// profiler on for the run.
fn grid_bytes(
    ctx: &Context,
    grid_mixes: &[Mix],
    skip_on: bool,
    sample: Option<&str>,
    jobs: usize,
    profile: bool,
) -> (Vec<u8>, Vec<u8>) {
    pool::set_default_jobs(jobs);
    skip::set_default_enabled(skip_on);
    span::set_profiling(profile);
    sampling::set_default(sample.map(|s| SamplingConfig::parse(s).expect("sample config")));
    let mut obs = RunObs::buffered();
    let comparisons = compare_schedulers(
        ctx,
        &hcmp_config(ctx, 2, 2),
        grid_mixes,
        SamplingParams::default(),
        &mut obs,
    );
    span::set_profiling(false);
    sampling::set_default(None);
    skip::set_default_enabled(true);
    pool::set_default_jobs(0);
    assert!(!comparisons.is_empty(), "grid produced no results");
    (
        serde_json::to_vec(&comparisons).expect("serialize comparisons"),
        jsonl_bytes(&mut obs),
    )
}

/// Build the small-scale reference context. Its isolated runs go
/// through `Core::run`, which `isolated_runs_match_plain_loop` and the
/// `skipped_core_matches_ticked_twin` property check against the plain
/// loop, so the grid run is the only thing under test here.
fn reference_context() -> Context {
    Context::build(scale())
}

/// The core identity: with skipping on, the fully-detailed scheduler grid
/// — results and event log — is byte-for-byte the grid the plain tick
/// loop produces.
#[test]
fn skip_grid_is_byte_identical_to_tick_loop() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    let (skip_res, skip_log) = grid_bytes(&ctx, &mixes(), true, None, 1, false);
    let (plain_res, plain_log) = grid_bytes(&ctx, &mixes(), false, None, 1, false);
    assert!(!skip_res.is_empty() && !skip_log.is_empty());
    assert_eq!(skip_res, plain_res, "skip changes grid results");
    assert_eq!(skip_log, plain_log, "skip changes the event stream");
}

/// Skipping composes with `--jobs`: identical bytes at `-j1` and `-j4`.
#[test]
fn skip_grid_is_byte_identical_across_job_counts() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    let (res1, log1) = grid_bytes(&ctx, &mixes(), true, None, 1, false);
    let (res4, log4) = grid_bytes(&ctx, &mixes(), true, None, 4, false);
    assert_eq!(res1, res4, "skipped results depend on -j");
    assert_eq!(log1, log4, "skipped event log depends on -j");
}

/// Skipping composes with `--sample`: under the claimed sampling
/// configuration, skipping stays byte-identical to the plain loop, and
/// the sampled skipped grid is `-j`-independent too.
#[test]
fn skip_composes_with_sampling() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    let sample = Some(CLAIMED_CONFIG);
    let (skip_res, skip_log) = grid_bytes(&ctx, &mixes(), true, sample, 1, false);
    let (plain_res, plain_log) = grid_bytes(&ctx, &mixes(), false, sample, 1, false);
    assert_eq!(skip_res, plain_res, "skip changes sampled grid results");
    assert_eq!(skip_log, plain_log, "skip changes sampled event stream");
    let (res4, log4) = grid_bytes(&ctx, &mixes(), true, sample, 4, false);
    assert_eq!(skip_res, res4, "sampled skipped results depend on -j");
    assert_eq!(skip_log, log4, "sampled skipped event log depends on -j");
}

/// No observer effect: the stage profiler times the same engine a normal
/// run uses, so turning it on changes neither the grid results nor the
/// event log, fully detailed and under the claimed sampling
/// configuration.
#[test]
fn profiling_does_not_change_grid_bytes() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    for sample in [None, Some(CLAIMED_CONFIG)] {
        let (plain_res, plain_log) = grid_bytes(&ctx, &mixes(), true, sample, 1, false);
        let (prof_res, prof_log) = grid_bytes(&ctx, &mixes(), true, sample, 1, true);
        assert_eq!(
            prof_res, plain_res,
            "profiling changes grid results (sample={sample:?})"
        );
        assert_eq!(
            prof_log, plain_log,
            "profiling changes the event stream (sample={sample:?})"
        );
    }
}

/// The acceptance gate at full quick scale: the exact grid `run_all
/// --quick` evaluates is byte-identical with skipping on and off, both
/// fully detailed and under the claimed sampling configuration.
///
/// Runs the quick grid 4x, so it is ignored in debug builds; `ci.sh`
/// runs it in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "quick-scale differential grid; run in release (ci.sh test)"
)]
fn quick_grid_is_byte_identical_with_and_without_skip() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = Context::build(Scale::quick());
    let quick_mixes = ctx.four_program_mixes();
    for sample in [None, Some(CLAIMED_CONFIG)] {
        let (skip_res, skip_log) = grid_bytes(&ctx, &quick_mixes, true, sample, 0, false);
        let (plain_res, plain_log) = grid_bytes(&ctx, &quick_mixes, false, sample, 0, false);
        assert_eq!(
            skip_res, plain_res,
            "skip changes quick-grid results (sample={sample:?})"
        );
        assert_eq!(
            skip_log, plain_log,
            "skip changes quick-grid event stream (sample={sample:?})"
        );
    }
}

/// `run_isolated` (the paper's per-program reference runs, driven by
/// `Core::run`) serializes to the same bytes as the same run ticked by a
/// plain loop, on both core kinds, for a memory-bound and a
/// compute-bound benchmark.
#[test]
fn isolated_runs_match_plain_loop() {
    use relsim::isolated::{run_isolated, IsolatedResult};
    use relsim_ace::{avf, AceCounter, CounterKind};
    use relsim_cpu::{Core, CoreConfig};
    use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
    use relsim_trace::TraceGenerator;

    const TICKS: u64 = 60_000;
    const SEED: u64 = 11;
    for bench in ["milc", "hmmer"] {
        let profile = relsim_trace::spec_profile(bench).expect("catalog benchmark");
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
            let mut shared = SharedMem::new(SharedMemConfig::default());
            let mut counter = AceCounter::new(&cfg, CounterKind::Perfect);
            let mut gen = TraceGenerator::new(profile.clone(), SEED, 0);
            let (base, span) = gen.address_span();
            let warm = span.min(32 << 20);
            shared.warm_region(base + span - warm, warm);
            for t in 0..TICKS {
                core.tick(t, &mut gen, &mut shared, &mut counter);
            }
            let abc = counter.abc(TICKS);
            let plain = IsolatedResult {
                name: profile.name.clone(),
                kind: cfg.kind,
                ticks: TICKS,
                instructions: core.committed(),
                abc,
                stack: counter.stack(TICKS),
                avf: avf(abc, cfg.total_bits(), TICKS),
                ips: core.committed() as f64 / TICKS as f64,
                abc_rate: abc / TICKS as f64,
                cpi: *core.cpi_stack(),
            };
            let driven = run_isolated(&profile, &cfg, TICKS, SEED);
            assert_eq!(
                serde_json::to_vec(&driven).unwrap(),
                serde_json::to_vec(&plain).unwrap(),
                "{bench} on {}: run_isolated differs from the plain loop",
                cfg.kind
            );
        }
    }
}

/// Core-level properties of the horizon protocol, over both core kinds,
/// the benchmark catalog and arbitrary seeds. These drive bare cores, so
/// they touch no process-wide defaults and need no lock.
mod horizon_properties {
    use proptest::prelude::*;
    use relsim_cpu::{Core, CoreConfig, NullObserver, StateDigest};
    use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
    use relsim_trace::TraceGenerator;

    /// Ticks each proptest case simulates. Long enough to drain fill
    /// buffers and hit ROB-head stalls, short enough for debug builds.
    const CASE_TICKS: u64 = 6_000;

    fn core_config(big: bool, half_freq: bool) -> CoreConfig {
        let mut cfg = if big {
            CoreConfig::big()
        } else {
            CoreConfig::small()
        };
        if half_freq {
            cfg.ticks_per_cycle = 2;
        }
        cfg
    }

    fn build(cfg: CoreConfig, bench: &str, seed: u64) -> (Core, TraceGenerator, SharedMem) {
        let profile = relsim_trace::spec_profile(bench).expect("catalog benchmark");
        (
            Core::new(cfg, PrivateCacheConfig::default()),
            TraceGenerator::new(profile, seed, 0),
            SharedMem::new(SharedMemConfig::default()),
        )
    }

    fn bench_name(index: usize) -> String {
        let names = relsim_trace::spec_names();
        names[index % names.len()].clone()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `next_event(now)` is always strictly in the future, at every
        /// point of a plainly-ticked execution. A horizon `<= now` would
        /// deadlock (or rewind) the system loop.
        #[test]
        fn next_event_is_strictly_future(
            big in prop::bool::ANY,
            half_freq in prop::bool::ANY,
            bench_idx in 0usize..64,
            seed in 1u64..1_000,
        ) {
            let cfg = core_config(big, half_freq);
            let (mut core, mut src, mut shared) = build(cfg, &bench_name(bench_idx), seed);
            let mut obs = NullObserver;
            for t in 0..CASE_TICKS {
                core.tick(t, &mut src, &mut shared, &mut obs);
                let horizon = core.next_event(t);
                prop_assert!(
                    horizon > t,
                    "horizon {horizon} not strictly after now={t}"
                );
            }
        }

        /// Driving a core through arbitrary legal skips (always bounded by
        /// its own reported horizon, chopped to arbitrary lengths) leaves
        /// it in exactly the architectural state of a plainly-ticked twin:
        /// same committed count, cycles, CPI stack, class mix and memory-
        /// level profile — and the trace sources stay in lockstep. So does
        /// the single-core driver `Core::run`, called over two spans split
        /// at an arbitrary tick.
        #[test]
        fn skipped_core_matches_ticked_twin(
            big in prop::bool::ANY,
            half_freq in prop::bool::ANY,
            bench_idx in 0usize..64,
            seed in 1u64..1_000,
            // Cap on each skip's length: exercises partial skips well
            // short of the horizon, which must be just as sound. Zero
            // means uncapped (always jump to the reported horizon).
            max_skip_raw in 0u64..200,
            split in 0u64..CASE_TICKS,
        ) {
            let max_skip = if max_skip_raw == 0 { u64::MAX } else { max_skip_raw };
            let cfg = core_config(big, half_freq);
            let bench = bench_name(bench_idx);
            let (mut plain, mut plain_src, mut plain_shared) = build(cfg.clone(), &bench, seed);
            let (mut skip, mut skip_src, mut skip_shared) = build(cfg.clone(), &bench, seed);
            let (mut driven, mut driven_src, mut driven_shared) = build(cfg, &bench, seed);
            let mut obs = NullObserver;

            for t in 0..CASE_TICKS {
                plain.tick(t, &mut plain_src, &mut plain_shared, &mut obs);
            }

            driven.run(0, split, &mut driven_src, &mut driven_shared, &mut obs);
            driven.run(split, CASE_TICKS, &mut driven_src, &mut driven_shared, &mut obs);
            prop_assert_eq!(driven.cycles(), plain.cycles(), "driver cycles diverged");
            prop_assert_eq!(driven.cpi_stack(), plain.cpi_stack(), "driver CPI stack diverged");
            prop_assert_eq!(
                StateDigest::of(&driven, &driven_src),
                StateDigest::of(&plain, &plain_src),
                "driver state diverged"
            );

            let mut t = 0u64;
            while t < CASE_TICKS {
                skip.tick(t, &mut skip_src, &mut skip_shared, &mut obs);
                let horizon = skip.next_event(t).min(CASE_TICKS);
                let target = horizon.min(t.saturating_add(1).saturating_add(max_skip));
                if target > t + 1 {
                    skip.skip_to(t + 1, target);
                }
                t = target.max(t + 1);
            }

            prop_assert_eq!(skip.committed(), plain.committed(), "committed diverged");
            prop_assert_eq!(skip.cycles(), plain.cycles(), "cycles diverged");
            prop_assert_eq!(skip.cpi_stack(), plain.cpi_stack(), "CPI stack diverged");
            prop_assert_eq!(skip.class_counts(), plain.class_counts(), "class mix diverged");
            prop_assert_eq!(
                skip.loads_by_level(),
                plain.loads_by_level(),
                "memory-level profile diverged"
            );
            prop_assert_eq!(
                skip_src.generated(),
                plain_src.generated(),
                "trace sources fell out of lockstep"
            );
        }
    }
}
