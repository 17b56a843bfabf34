//! Regenerates **Fig. 6**: transfer learning on the block19 analogue.
//!
//! A donor EP-GNN is first trained on other same-technology designs
//! (block15 and block17 are the suite's other N7 blocks of similar size);
//! its weights are reloaded with a fresh encoder/decoder and training on
//! block19 is compared against training everything from scratch. The paper
//! shows the transferred run converging to comparable TNS in far fewer
//! iterations.
//!
//! Usage:
//! ```text
//! fig6 [--scale 0.5] [--iters 16] [--donor-iters 8] [--csv fig6.csv]
//!      [--checkpoint DIR] [--checkpoint-every K] [--trace-out run.jsonl]
//! ```
//!
//! With `--checkpoint DIR`, each of the four training runs (two donors,
//! scratch, transfer) keeps resumable state under its own `DIR/<run>/`
//! subdirectory, so an interrupted regeneration continues where it stopped.

use rl_ccd::{with_pretrained_gnn, RlConfig, Session, TrainOutcome};
use rl_ccd_bench::{write_csv, Cli};
use rl_ccd_netlist::{generate, GeneratedDesign};
use std::path::PathBuf;

/// Trains with per-run resumable checkpoints when `root` is set.
fn run(
    design: GeneratedDesign,
    config: &RlConfig,
    initial: Option<rl_ccd_nn::ParamSet>,
    root: Option<&PathBuf>,
    sub: &str,
    every: usize,
) -> Result<TrainOutcome, rl_ccd::Error> {
    let mut builder = Session::builder().design(design).rl_config(config.clone());
    if let Some(params) = initial {
        builder = builder.initial_params(params);
    }
    if let Some(root) = root {
        builder = builder.checkpoint(root.join(sub), every);
    }
    builder.build()?.train()
}

fn main() -> Result<(), rl_ccd::Error> {
    let cli = Cli::from_env();
    let _obs = cli.attach();
    let scale = cli.scale(0.5);
    let iters = cli.iters(16);
    let donor_iters: usize = cli.value("--donor-iters", 8);
    let csv = cli.csv("fig6.csv");
    let checkpoint = cli.checkpoint();
    let every = cli.checkpoint_every(5);

    let suite = rl_ccd_netlist::block_suite(scale);
    let config = RlConfig {
        max_iterations: iters,
        patience: iters, // plot full curves, no early stop
        ..RlConfig::default()
    };

    // Pre-train the EP-GNN on the other 7 nm blocks (indices 14, 16).
    let mut donor_cfg = config.clone();
    donor_cfg.max_iterations = donor_iters;
    donor_cfg.patience = donor_iters;
    let mut donor_params = None;
    for &idx in &[14usize, 16usize] {
        let design = generate(&suite[idx]);
        println!(
            "pre-training EP-GNN on {} ({} cells)…",
            suite[idx].name,
            design.netlist.cell_count()
        );
        let sub = format!("donor-{}", suite[idx].name);
        let outcome = run(
            design,
            &donor_cfg,
            donor_params.take(),
            checkpoint.as_ref(),
            &sub,
            every,
        )?;
        donor_params = Some(outcome.params);
    }
    let donor = donor_params.expect("donor training ran");

    // Target: block19 (index 18), the suite's largest 7 nm design.
    let design = generate(&suite[18]);
    println!(
        "\nFig. 6 reproduction on {} ({} cells)",
        suite[18].name,
        design.netlist.cell_count()
    );
    let default = Session::builder()
        .design(design.clone())
        .rl_config(config.clone())
        .build()?
        .run_flow()?;

    let scratch = run(
        design.clone(),
        &config,
        None,
        checkpoint.as_ref(),
        "scratch",
        every,
    )?;
    let (_, transfer_params, adopted) = with_pretrained_gnn(config.clone(), &donor);
    println!("transferred {adopted} EP-GNN tensors; encoder/decoder fresh");
    let transferred = run(
        design,
        &config,
        Some(transfer_params),
        checkpoint.as_ref(),
        "transfer",
        every,
    )?;

    println!(
        "\n{:>5} {:>14} {:>14} {:>14} {:>14}   (TNS ps; default flow {:.0})",
        "iter",
        "scratch-greedy",
        "scratch-best",
        "xfer-greedy",
        "xfer-best",
        default.final_qor.tns_ps
    );
    let n = scratch.history.len().max(transferred.history.len());
    let mut csv_rows = Vec::new();
    for i in 0..n {
        let sg = scratch
            .history
            .get(i)
            .map(|h| h.greedy_reward)
            .unwrap_or(f64::NAN);
        let s = scratch
            .history
            .get(i)
            .map(|h| h.best_so_far)
            .unwrap_or(f64::NAN);
        let tg = transferred
            .history
            .get(i)
            .map(|h| h.greedy_reward)
            .unwrap_or(f64::NAN);
        let t = transferred
            .history
            .get(i)
            .map(|h| h.best_so_far)
            .unwrap_or(f64::NAN);
        println!("{i:>5} {sg:>14.0} {s:>14.0} {tg:>14.0} {t:>14.0}");
        csv_rows.push(format!("{i},{sg:.1},{s:.1},{tg:.1},{t:.1}"));
    }
    let first_hit = |hist: &[rl_ccd::IterationStats]| {
        first_within_two_percent(&hist.iter().map(|h| h.best_so_far).collect::<Vec<_>>())
    };
    println!(
        "\nscratch best {:.0} (reached ~iter {}), transfer best {:.0} (reached ~iter {})",
        scratch.best_result.final_qor.tns_ps,
        first_hit(&scratch.history),
        transferred.best_result.final_qor.tns_ps,
        first_hit(&transferred.history),
    );
    write_csv(
        &csv,
        "iteration,scratch_greedy_tns_ps,scratch_best_tns_ps,transfer_greedy_tns_ps,transfer_best_tns_ps",
        &csv_rows,
    )?;
    println!("wrote {csv}");
    cli.finish()
}

/// Convergence speed: the first iteration whose best-so-far TNS is within
/// 2 % of the curve's final best. TNS is negative and higher is better, so
/// "within 2 %" is at least `best - 0.02·|best|`.
fn first_within_two_percent(best_so_far: &[f64]) -> usize {
    let Some(&best) = best_so_far.last() else {
        return 0;
    };
    best_so_far
        .iter()
        .position(|&tns| tns >= best - 0.02 * best.abs())
        .unwrap_or(best_so_far.len())
}

#[cfg(test)]
mod tests {
    use super::first_within_two_percent;

    #[test]
    fn convergence_index_is_the_first_iteration_within_two_percent() {
        // best −840: the bar is −856.8, first met by −850 at index 2.
        assert_eq!(
            first_within_two_percent(&[-1000.0, -900.0, -850.0, -840.0]),
            2
        );
        assert_eq!(first_within_two_percent(&[-840.0, -840.0]), 0);
        assert_eq!(first_within_two_percent(&[]), 0);
    }
}
