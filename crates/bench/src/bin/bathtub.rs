//! Extension figure: BER bathtub at the paper's operating point — the
//! horizontal-margin plot behind the CDR's sampling-phase choice.
//!
//! The curve is produced by the parallel sweep engine (seed-identical
//! to the sequential path).

use openserdes_bench::report::table;
use openserdes_core::sweep::parallel;
use openserdes_core::{eye_width_at, LinkConfig, Sweep};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = LinkConfig::paper_default();
    let threads = parallel::default_threads();
    println!(
        "BER bathtub @ {:.1} Gb/s / {:.0} dB (PRBS-31, 100k bits per phase, {} worker(s))\n",
        cfg.data_rate.ghz(),
        cfg.channel.attenuation_db,
        threads
    );
    let t0 = Instant::now();
    let curve = Sweep::new()
        .with_bits(100_000)
        .with_phases(24)
        .with_seed(11)
        .with_threads(threads)
        .bathtub(&cfg)?;
    let elapsed = t0.elapsed();
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                format!("{:.3}", p.phase_ui),
                if p.ber > 0.0 {
                    format!("{:.2e}", p.ber)
                } else {
                    "<1e-5".into()
                },
            ]
        })
        .collect();
    println!("{}", table(&["phase (UI)", "BER"], &rows));
    println!(
        "horizontal eye at BER 1e-3: {:.2} UI  ({} phases in {:.1} ms)",
        eye_width_at(&curve, 1e-3),
        curve.len(),
        elapsed.as_secs_f64() * 1e3
    );
    Ok(())
}
