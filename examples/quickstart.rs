//! Quickstart: run the paper's headline link — 8×32-bit frames at
//! 2 Gb/s, PRBS-31-like payloads, over the 34 dB evaluation channel —
//! and print a link report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use openserdes::core::{LinkConfig, PrbsGenerator, PrbsOrder};
use openserdes::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = LinkConfig::paper_default();
    println!(
        "OpenSerDes quickstart: {} Gb/s over a {} dB channel at {}",
        config.data_rate.ghz(),
        config.channel.attenuation_db,
        config.pvt
    );

    // Build 64 frames of PRBS-31 payload (8 lanes x 32 bits each).
    let frames = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(64);

    let mut session = Session::new()
        .with_link_config(config)
        .with_seed(2021)
        .with_telemetry(true);
    let report = session.run_link(&frames)?;

    println!();
    println!("frames sent       : {}", report.frames_sent);
    println!("bits compared     : {}", report.bits);
    println!("bit errors        : {}", report.bit_errors);
    println!("BER               : {:.2e}", report.ber().max(1e-12));
    println!("CDR locked        : {}", report.cdr_locked);
    println!("CDR phase updates : {}", report.cdr_phase_updates);
    println!(
        "verdict           : {}",
        if report.error_free() {
            "error-free (the paper's zero-BER claim reproduces)"
        } else {
            "errors observed"
        }
    );

    // The same run, as the telemetry layer saw it.
    println!("\ntelemetry:\n{}", session.telemetry().to_tree_string());
    Ok(())
}
