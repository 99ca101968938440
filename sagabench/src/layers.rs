//! Per-layer metrics of the traced run: the benchmark times calls into
//! each layer's public functions and reads each layer's own counters.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::common::Report;
use crate::stats::median;

/// Every per-layer metric, in report order: `(name, unit)`. A `_p50_`
/// metric is the median of its timed calls; the rest are single values.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("net.ping_p50_us", "us"),
    ("net.pool_ping_p50_us", "us"),
    ("net.decode_commit_p50_us", "us"),
    ("net.requests_shed", "count"),
    ("fleet.pin_p50_us", "us"),
    ("fleet.session_wait_p50_us", "us"),
    ("fleet.lag_skips", "count"),
    ("fleet.session_skips", "count"),
    ("fleet.checkpoints", "count"),
    ("kgq.hot_p50_us", "us"),
    ("kgq.cold_p50_us", "us"),
    ("kgq.scan_p50_us", "us"),
    ("kgq.plan_hits", "count"),
    ("kgq.plan_compiles", "count"),
    ("kgq.cached_plans", "count"),
    ("core.record_p50_us", "us"),
    ("core.scan_probe_p50_us", "us"),
    ("core.json_parse_us_per_kb", "us/KB"),
    ("core.ckpt_load_ms", "ms"),
    ("core.ckpt_bytes_per_fact", "B"),
    ("graph.commit_small_p50_us", "us"),
    ("graph.commit_bulk_p50_us", "us"),
    ("graph.fsync_p50_us", "us"),
    ("graph.log_open_ms", "ms"),
    ("graph.checkpoint_ms", "ms"),
    ("live.catch_up_ms", "ms"),
    ("construct.onboard_ms", "ms"),
    ("construct.delta_p50_ms", "ms"),
    ("construct.pairs_scored", "count"),
    ("ingest.delta_p50_ms", "ms"),
    ("ingest.changes", "count"),
];

/// Samples per per-layer metric, filled by the probes.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Run `f`, recording its duration under `name` in the metric's unit.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let scale = match unit_of(name) {
            "ms" => 1e3,
            "us" => 1e6,
            other => panic!("{name} is not a timing ({other})"),
        };
        self.push(name, secs * scale);
        out
    }

    /// Record one sample of `name`. Timings report the median of their
    /// samples; counts and sizes report the sum.
    pub fn push(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.samples.entry(name).or_default().push(value);
    }

    /// Move every metric into `report`; a metric no probe measured is
    /// reported as unmeasured and fails the run.
    pub fn report_into(self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            let Some(samples) = self.samples.get(name) else {
                report.check(false, || {
                    format!("per-layer metric {name} was not measured")
                });
                report.metric(name, unit, f64::NAN);
                continue;
            };
            let value = if name.contains("_p50_") {
                median(samples)
            } else {
                samples.iter().sum()
            };
            report.metric(name, unit, value);
            report.note(format!(
                "  {name:<28} {value:>12.3} {unit} (n={})",
                samples.len()
            ));
        }
    }
}

/// Unit of a per-layer metric; panics on a name not in [`PER_LAYER`].
fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}
