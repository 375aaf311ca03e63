//! Metric catalogues, medians and the result line.

use crate::timing::HOOKS;

/// Policies whose hooks the traced run times, in report order.
pub const POLICIES: [&str; 5] = ["linux", "gts", "wash", "colab", "equal-progress"];

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("colab_antt_vs_linux", "ratio"),
    ("colab_stp_vs_linux", "ratio"),
];

/// Per-layer metrics other than the per-policy hook table.
const LAYERS: [(&str, &str); 41] = [
    ("training.collect_ms", "ms"),
    ("training.fit_ms", "ms"),
    ("intern.compile_ms", "ms"),
    ("intern.hits", "count"),
    ("intern.misses", "count"),
    ("intern.hit_ratio", "ratio"),
    ("sweep.run_plan_ms", "ms"),
    ("sweep.cells", "count"),
    ("sweep.baselines", "count"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_p95", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.worker_busy_share", "ratio"),
    ("experiments.ablation.ms", "ms"),
    ("experiments.energy.ms", "ms"),
    ("experiments.sensitivity.ms", "ms"),
    ("experiments.freqsweep.ms", "ms"),
    ("experiments.staggered.ms", "ms"),
    ("experiments.faults.ms", "ms"),
    ("experiments.render_ms", "ms"),
    ("experiments.shape_claims", "count"),
    ("experiments.shape_claims_failed", "count"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.engine_self_ms", "ms"),
    ("sim.engine_self_share", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("sim.runs", "count"),
    ("sim.events", "count"),
    ("sim.compute_leaves", "count"),
    ("sim.compute_events", "count"),
    ("sim.merged_op_ratio", "ratio"),
    ("simcost.runs", "count"),
    ("simcost.events", "count"),
    ("telemetry.record_ms", "ms"),
    ("telemetry.events_seen", "count"),
    ("telemetry.events_dropped", "count"),
    ("telemetry.chrome_render_ms", "ms"),
    ("telemetry.chrome_mb", "MB"),
    ("faults.injected", "count"),
    ("faults.forced_migrations", "count"),
];

/// Scheduler counters, the benchmark's own overhead, and the raw times
/// behind the end-to-end time metrics, reported after the hook table.
const TAIL: [(&str, &str); 9] = [
    ("sched.picks", "count"),
    ("sched.migrations", "count"),
    ("sched.preemptions", "count"),
    ("sched.futex_wakes", "count"),
    ("trace.overhead_pct", "%"),
    ("run.wall_s", "s"),
    ("run.cpu_s", "s"),
    ("run.setup_s", "s"),
    ("run.reference_s", "s"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for policy in POLICIES {
        for hook in HOOKS {
            out.push((format!("sched.{policy}.{hook}.ms"), "ms"));
            out.push((format!("sched.{policy}.{hook}.calls"), "count"));
        }
    }
    out.extend(TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Named values for one catalogue; names a workload leaves unset stay 0
/// (the layer does no work there).
#[derive(Debug, Clone)]
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    pub fn zeroed(catalogue: &[(String, &'static str)]) -> Metrics {
        Metrics {
            entries: catalogue
                .iter()
                .map(|(n, u)| (n.clone(), *u, 0.0))
                .collect(),
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue — a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        entry.2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |e| e.2)
    }

    /// Per-metric medians over several passes of the same catalogue.
    pub fn median_of(passes: &[Metrics]) -> Metrics {
        let mut out = passes[0].clone();
        for (i, entry) in out.entries.iter_mut().enumerate() {
            let values: Vec<f64> = passes.iter().map(|p| p.entries[i].2).collect();
            entry.2 = median(&values);
        }
        out
    }

    /// Every value as `name=value`, space-separated: how a measuring
    /// process hands its metrics to the process that reports them.
    pub fn encode(&self) -> String {
        let pairs: Vec<String> = self
            .entries
            .iter()
            .map(|(n, _, v)| format!("{n}={v}"))
            .collect();
        pairs.join(" ")
    }

    /// The catalogue's metrics with the values of an [`encode`]d line.
    ///
    /// [`encode`]: Metrics::encode
    pub fn decode(catalogue: &[(String, &'static str)], line: &str) -> Result<Metrics, String> {
        let mut out = Metrics::zeroed(catalogue);
        for pair in line.split_whitespace() {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed metric {pair}"))?;
            let value: f64 = value.parse().map_err(|e| format!("bad {name}: {e}"))?;
            let entry = out
                .entries
                .iter_mut()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} is not in the catalogue"))?;
            entry.2 = value;
        }
        Ok(out)
    }

    /// Human-readable lines, one metric each.
    pub fn lines(&self) -> String {
        self.entries
            .iter()
            .map(|(n, u, v)| format!("  {n:<36} {v:>16.6} {u}\n"))
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
