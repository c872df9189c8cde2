//! Regenerates Fig. 9: sensitivity and maximum channel loss vs data rate.

use openserdes_bench::figures::fig09_sensitivity;
use openserdes_bench::report::table;
use openserdes_core::sweep::parallel;
use openserdes_core::{LinkConfig, Sweep};
use openserdes_pdk::units::Hertz;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Fig. 9 — sensitivity & max channel loss vs frequency\n");
    let pts = fig09_sensitivity()?;
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.data_rate.ghz()),
                format!("{:.1}", p.sensitivity.mv()),
                format!("{:.1}", p.max_loss_db),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["rate (GHz)", "sensitivity (mV)", "max loss (dB)"], &rows)
    );

    let threads = parallel::default_threads();
    let cfg = LinkConfig::paper_default();
    println!(
        "cross-check: zero-BER bisection on the full link (PRBS-31, {} worker(s)):",
        threads
    );
    let rates: Vec<Hertz> = [1.0, 2.0, 3.0]
        .iter()
        .map(|&g| Hertz::from_ghz(g))
        .collect();
    let t0 = Instant::now();
    let sweep = Sweep::new()
        .with_threads(threads)
        .rate_sweep(&cfg, &rates)?;
    let elapsed = t0.elapsed();
    for p in &sweep {
        println!(
            "  {:.0} GHz: measured max loss = {:.1} dB (sensitivity {:.1} mV)",
            p.data_rate.ghz(),
            p.max_loss_db,
            p.sensitivity.mv()
        );
    }
    println!(
        "  ({} rate points in {:.1} ms)",
        sweep.len(),
        elapsed.as_secs_f64() * 1e3
    );
    Ok(())
}
