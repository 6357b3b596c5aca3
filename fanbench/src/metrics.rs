//! The metric names the benchmark reports, their units, and the result
//! line the runner reads.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("inputs_per_s", "1/s"),
    ("p50_ms.low", "ms"),
    ("p99_ms.low", "ms"),
    ("p50_ms.mid", "ms"),
    ("p99_ms.mid", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.high", "ms"),
    ("max_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with their units. A layer the
/// workload does not run reports `0`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("server.queue_ms.p99", "ms"),
    ("server.sequence_ms.p99", "ms"),
    ("server.delivery_ms.p50", "ms"),
    ("server.queue_high_water", "count"),
    ("loadgen.late_ms.max", "ms"),
    ("engine.hit_frac", "ratio"),
    ("engine.evictions", "count"),
    ("engine.hit_us.p50", "us"),
    ("engine.miss_ms.p99", "ms"),
    ("protocol.parse_us.p50", "us"),
    ("protocol.render_us.p50", "us"),
    ("core.tolerance_s", "s"),
    ("core.adversarial_s", "s"),
    ("core.bias_s", "s"),
    ("core.sensitivity_s", "s"),
    ("core.faults_s", "s"),
    ("core.joint_s", "s"),
    ("verify.boxes", "count"),
    ("verify.splits", "count"),
    ("search.depth_max", "count"),
    ("verify.interval.yield", "ratio"),
    ("verify.zonotope.yield", "ratio"),
    ("verify.exact.yield", "ratio"),
    ("verify.interval.ns_per_box", "ns"),
    ("verify.zonotope.ns_per_box", "ns"),
    ("verify.exact.ns_per_box", "ns"),
    ("faults.boxes", "count"),
    ("faults.unknown_frac", "ratio"),
    ("faults.interval.yield", "ratio"),
    ("faults.zonotope.yield", "ratio"),
    ("faults.exact.yield", "ratio"),
    ("faults.ns_per_box", "ns"),
    ("kernel.float_ns_per_box", "ns"),
    ("kernel.batch_ns_per_box", "ns"),
    ("kernel.zonotope_ns_per_box", "ns"),
    ("kernel.exact_ns_per_box", "ns"),
    ("kernel.fault_ns_per_box", "ns"),
    ("kernel.macs_per_box", "count"),
    ("kernel.f64_bytes_per_box", "bytes"),
    ("kernel.rational_bytes_per_box", "bytes"),
    ("obs.trace_overhead_frac", "ratio"),
    ("setup.casestudy_s", "s"),
    ("setup.warm_s", "s"),
];

/// Values measured by one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome counts of the run's output checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The last line of standard output: every metric of `names`, in order.
///
/// # Panics
///
/// Panics if a named metric was not measured or is not finite — a
/// benchmark bug, never a property of the program under test.
pub fn result_line(checks: Checks, metrics: &Metrics, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    )
}

/// Peak resident set of this process in MB (`VmHWM`), `0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset_once_each() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(*name), "duplicate metric name `{name}`");
            assert!(unit.len() <= 16 && !unit.is_empty(), "bad unit `{unit}`");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let listed: Vec<&str> = text[start..]
                .split(']')
                .next()
                .expect("section closes")
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest.split('"').next().expect("quoted name"))
                .collect();
            let ours: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
            assert_eq!(listed, ours, "{section} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_reports_every_metric_in_order() {
        let mut metrics = Metrics::default();
        metrics.set("a", 1.5);
        metrics.set("b", 2.0);
        let checks = Checks {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(checks, &metrics, &[("b", "s"), ("a", "ms")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"b\":{\"value\":2,\"unit\":\"s\"},\"a\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
    }
}
