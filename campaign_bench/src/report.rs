//! Metric catalogue, sample statistics, and the printed result.
//!
//! The result is printed twice: one human line per metric (name, value,
//! unit, sample count), then a single JSON object as the last line of
//! standard output:
//!
//! ```text
//! {"correct": true, "attempted": 6, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}}}
//! ```

use cochar_store::json::Json;

/// How a per-layer metric behaves between two traced jobs of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic work count or a value derived only from counts:
    /// it must repeat exactly, or the run counts a failure.
    Exact,
    /// Host time: reported, never compared.
    Time,
}

/// End-to-end metrics of the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("job_p50_s", "s"), ("peak_rss_mb", "MB")];

use Kind::{Exact, Time};

/// Per-layer metrics of the traced run: `(name, unit, kind)`. Every
/// traced run reports all of them; a layer its workload never calls
/// reads 0.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("workloads.registry_build_s", "s", Time),
    ("trace.slots", "count", Exact),
    ("trace.fill_s", "s", Time),
    ("trace.ns_per_slot", "ns", Time),
    ("machine.runs", "count", Exact),
    ("machine.sim_cycles", "count", Exact),
    ("machine.accesses", "count", Exact),
    ("machine.l1_hits", "count", Exact),
    ("machine.l2_hits", "count", Exact),
    ("machine.llc_hits", "count", Exact),
    ("machine.llc_misses", "count", Exact),
    ("machine.prefetch_issued", "count", Exact),
    ("machine.prefetch_useful", "count", Exact),
    ("machine.prefetch_useful_ratio", "ratio", Exact),
    ("machine.mem_bytes", "bytes", Exact),
    ("machine.run_s", "s", Time),
    ("machine.ns_per_access", "ns", Time),
    ("machine.ns_per_sim_cycle", "ns", Time),
    ("colocation.solo_s", "s", Time),
    ("colocation.pair_s", "s", Time),
    ("colocation.cell_p50_s", "s", Time),
    ("colocation.cell_max_s", "s", Time),
    ("colocation.csv_s", "s", Time),
    ("colocation.tail_s", "s", Time),
    ("colocation.simulated_runs", "count", Exact),
    ("colocation.cached_runs", "count", Exact),
    ("store.appends", "count", Exact),
    ("store.append_bytes", "bytes", Exact),
    ("store.us_per_append", "us", Time),
    ("store.replay_records", "count", Exact),
    ("store.us_per_replay_record", "us", Time),
    ("store.hits", "count", Exact),
    ("store.misses", "count", Exact),
    ("store.hit_ratio", "ratio", Exact),
    ("store.us_per_encode", "us", Time),
    ("store.us_per_decode", "us", Time),
    ("fabric.solo_wall_s", "s", Time),
    ("fabric.pair_wall_s", "s", Time),
    ("fabric.serial_frac", "ratio", Time),
    ("fabric.leases_issued", "count", Exact),
    ("fabric.leases_reissued", "count", Exact),
    ("fabric.records_merged", "count", Exact),
    ("fabric.records_duplicate", "count", Exact),
    ("fabric.merge_useful_ratio", "ratio", Exact),
    ("fabric.frame_us", "us", Time),
    ("predict.train_s", "s", Time),
    ("predict.mae", "slowdown", Exact),
    ("predict.spearman", "ratio", Exact),
    ("cluster.sims", "count", Exact),
    ("cluster.jobs", "count", Exact),
    ("cluster.sim_s", "s", Time),
    ("cluster.us_per_job", "us", Time),
    ("cluster.migrations", "count", Exact),
    ("workloads.self_s", "s", Time),
    ("trace.self_s", "s", Time),
    ("machine.self_s", "s", Time),
    ("store.self_s", "s", Time),
    ("colocation.self_s", "s", Time),
    ("fabric.self_s", "s", Time),
    ("predict.self_s", "s", Time),
    ("cluster.self_s", "s", Time),
    ("bench.glue_s", "s", Time),
    ("bench.trace_overhead_s", "s", Time),
    ("bench.host_cpus", "count", Exact),
];

// The name grammar and the result parser are what a consumer of the
// printed result relies on; the self-tests hold the catalogue and the
// printer to them.

/// True for a metric name: a letter or digit first, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-quantile of `values`, or `None` unless at least
/// ten samples lie beyond it — a tail figure is only reported when enough
/// samples stand behind it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples behind the value (1 for a count).
    pub samples: usize,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (tails, paths, failure reasons).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation; a failed one adds its reason to the notes.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Adds a metric. A non-finite value (a ratio over zero work) is
    /// reported as 0, since JSON has no NaN; so is -0.
    pub fn push(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples,
        });
    }

    /// The summary lines, the last being the JSON result.
    pub fn render(&self) -> Vec<String> {
        let mut lines = self.notes.clone();
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!(
            "attempted {} failed {} failed_frac {frac}",
            self.attempted, self.failed
        ));
        for m in &self.metrics {
            lines.push(format!(
                "{} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            ));
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Json::Obj(vec![
                    ("value".into(), Json::f64(m.value)),
                    ("unit".into(), Json::str(&m.unit)),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        lines.push(result.render());
        lines
    }
}

/// `(correct, attempted, failed, [(name, value, unit)])`.
#[cfg(test)]
pub type ParsedResult = (bool, u64, u64, Vec<(String, f64, String)>);

/// Parses the JSON result line back into `(correct, attempted, failed,
/// metrics)`, checking the shape a consumer relies on.
#[cfg(test)]
pub fn parse_result(line: &str) -> Result<ParsedResult, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let Json::Obj(fields) = &doc else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected result keys {keys:?}"));
    }
    let num = |k: &str| {
        doc.field(k)
            .and_then(Json::as_u64)
            .map_err(|e| e.to_string())
    };
    let correct = doc
        .field("correct")
        .and_then(Json::as_bool)
        .map_err(|e| e.to_string())?;
    let Ok(Json::Obj(metrics)) = doc.field("metrics") else {
        return Err("metrics is not an object".into());
    };
    let mut out = Vec::new();
    for (name, m) in metrics {
        let value = m
            .field("value")
            .and_then(Json::as_f64)
            .map_err(|e| e.to_string())?;
        let unit = m
            .field("unit")
            .and_then(Json::as_str)
            .map_err(|e| e.to_string())?;
        out.push((name.clone(), value, unit.to_string()));
    }
    Ok((correct, num("attempted")?, num("failed")?, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_follow_the_grammar() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        for (name, unit) in all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn grammar_rejects_what_it_should() {
        assert!(valid_name("machine.l1_hits") && valid_name("9lives-x"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)) && valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let name = m.field("name").and_then(Json::as_str).expect("name");
                    let unit = m.field("unit").and_then(Json::as_str).expect("unit");
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            listed("per_layer"),
            own(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 would leave one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..99], 0.9), None);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.5), Some(10.0));
        assert_eq!(percentile(&few, 0.6), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn printed_summary_parses_back() {
        let mut r = Report::default();
        r.record(Ok(()));
        r.record(Err("csv differs".into()));
        r.push("job_p50_s", "s", 2.123456789, 5);
        r.push("machine.prefetch_useful_ratio", "ratio", f64::NAN, 1);
        let lines = r.render();
        assert!(lines.iter().any(|l| l == "job_p50_s = 2.123456789 s (n=5)"));
        assert!(lines.iter().any(|l| l.contains("FAILED: csv differs")));
        let (correct, attempted, failed, metrics) =
            parse_result(lines.last().unwrap()).expect("parses");
        assert!(!correct);
        assert_eq!((attempted, failed), (2, 1));
        assert_eq!(
            metrics,
            vec![
                ("job_p50_s".to_string(), 2.123456789, "s".to_string()),
                (
                    "machine.prefetch_useful_ratio".to_string(),
                    0.0,
                    "ratio".to_string()
                ),
            ]
        );
        assert!(parse_result(r#"{"correct": true}"#).is_err());
    }
}
