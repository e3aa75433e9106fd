//! Figure 13: per-core reliability modes under an active fault campaign —
//! the SSER-vs-throughput-vs-energy Pareto front of checkpoint/rollback,
//! DMR, and the backup-aware scheduler against an unprotected baseline
//! (DESIGN.md §15).
//!
//! ```text
//! cargo run --release -p relsim-bench --bin fig13_modes -- --quick
//! cargo run --release -p relsim-bench --bin fig13_modes -- --mode checkpoint --faults 2000
//! ```

use relsim::experiments::{
    fig13_mode_means, fig13_modes_with, fig13_pareto, fig13_plans, FIG13_FAULTS,
};
use relsim::{ModeKind, ReliabilityPlan};
use relsim_bench::{context, obs_finish, run_obs, save_json, scale_from_args};

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("fig13_modes: reliability-mode Pareto study (2B2S, 4-program workloads)");
        println!("{}", relsim_bench::MODE_HELP);
        println!("{}", relsim_bench::JOBS_HELP);
        println!("{}", relsim_bench::SAMPLE_HELP);
        println!("{}", relsim_bench::CACHE_HELP);
        return;
    }
    let obs_args = relsim_bench::obs_init();
    let mut obs = run_obs(&obs_args);
    let ctx = context(scale_from_args());
    let modes = relsim_bench::modes_from_args().unwrap_or_else(|| ModeKind::ALL.to_vec());
    let faults = relsim_bench::faults_from_args().unwrap_or(FIG13_FAULTS);
    let fault_seed =
        relsim_bench::fault_seed_from_args().unwrap_or(ReliabilityPlan::default().fault_seed);
    let plans = fig13_plans(
        &ctx,
        &modes,
        faults,
        fault_seed,
        relsim_bench::ckpt_interval_from_args(),
    );
    let cells = fig13_modes_with(&ctx, &plans, &mut obs);

    println!("# Figure 13: reliability modes ({faults} faults/run, seed {fault_seed:#x})");
    println!(
        "{:<12} {:<34} {:>10} {:>10} {:>8} {:>8} {:>9} {:>6} {:>9}",
        "mode",
        "workload",
        "sser_eff",
        "stp_eff",
        "watts",
        "joules",
        "ovh_frac",
        "sdc",
        "recovered"
    );
    for c in &cells {
        println!(
            "{:<12} {:<34} {:>10.3e} {:>10.4} {:>8.2} {:>8.5} {:>9.4} {:>6} {:>9}",
            c.mode,
            c.workload,
            c.sser_effective,
            c.stp_effective,
            c.system_watts,
            c.energy_joules,
            c.overhead_frac,
            c.report.sdc,
            c.report.recovered_rollback + c.report.recovered_replica
        );
    }
    println!("# per-mode means (effective SSER, effective STP, energy J):");
    for (mode, sser, stp, energy) in fig13_mode_means(&cells) {
        println!("#   {mode:<12} {sser:>10.3e} {stp:>10.4} {energy:>10.5}");
    }
    println!(
        "# Pareto-optimal modes: {}",
        fig13_pareto(&cells).join(", ")
    );
    save_json("fig13_modes", &cells);
    obs_finish(&obs_args, &mut obs);
}
