//! The metric vocabulary: every name the benchmark emits, with its
//! unit. `BENCHMARK.json` declares the same set; the smoke test holds
//! the two equal.

use std::collections::BTreeMap;

/// What a user of the link farm sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// One layer each, from the traced pass. Times are means per request
/// (engine layers: per job the replay executed); counts are totals
/// over the replayed jobs. A layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.client_encode_us", "us"),
    ("serve.frame_write_us", "us"),
    ("serve.frame_wait_ms", "ms"),
    ("serve.client_decode_us", "us"),
    ("serve.server_decode_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.reply_encode_us", "us"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.reply_bytes", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.errored", "count"),
    ("serve.client_retries", "count"),
    ("fail_frac", "ratio"),
    ("session.run_link_ms", "ms"),
    ("session.run_link_with_faults_ms", "ms"),
    ("session.bathtub_ms", "ms"),
    ("session.max_loss_ms", "ms"),
    ("session.corner_sweep_ms", "ms"),
    ("session.run_flow_ms", "ms"),
    ("session.sta_ms", "ms"),
    ("session.lint_ms", "ms"),
    ("session.analog_frame_ms", "ms"),
    ("link.serialize_ms", "ms"),
    ("link.phy_ms", "ms"),
    ("link.cdr_ms", "ms"),
    ("link.score_ms", "ms"),
    ("link.run_faulted_ms", "ms"),
    ("sweep.bathtub_ms", "ms"),
    ("sweep.max_loss_bisect_ms", "ms"),
    ("sweep.corner_sweep_ms", "ms"),
    ("link.tx_bits", "count"),
    ("link.phy_samples", "count"),
    ("phy.drive_ms", "ms"),
    ("phy.channel_ms", "ms"),
    ("phy.frontend_ms", "ms"),
    ("phy.characterize_ms", "ms"),
    ("analog.transient_ms", "ms"),
    ("analog.dc_ms", "ms"),
    ("analog.batched_dc_ms", "ms"),
    ("analog.steps_taken", "count"),
    ("analog.lte_rejections", "count"),
    ("analog.newton_iterations", "count"),
    ("analog.lu_factorizations", "count"),
    ("analog.lu_cache_hits", "count"),
    ("analog.lu_reuse_ratio", "ratio"),
    ("analog.step_accept_ratio", "ratio"),
    ("flow.synthesis_ms", "ms"),
    ("flow.place_ms", "ms"),
    ("flow.cts_ms", "ms"),
    ("flow.route_ms", "ms"),
    ("flow.sta_ms", "ms"),
    ("flow.power_ms", "ms"),
    ("flow.lint_ms", "ms"),
    ("flow.anneal_moves", "count"),
    ("flow.cells", "count"),
    ("sta.forward_ms", "ms"),
    ("sta.backward_ms", "ms"),
    ("sta.hold_ms", "ms"),
    ("sta.paths_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// Values gathered during a run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric. Non-finite values (an empty ratio) read as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A value set earlier, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of `declared`, in declaration order; layers this
    /// run did not reach read 0.
    pub fn emit(&self, declared: &[(&'static str, &'static str)]) -> Vec<Metric> {
        declared
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name),
                unit,
            })
            .collect()
    }
}
