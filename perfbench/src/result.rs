//! The metric catalogue, the result record, and the machine fingerprint.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::trace::KERNELS;

/// End-to-end metrics, reported by every workload with tracing off.
/// Timings are in reference milliseconds (see `probe`).
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "share"),
    ("latency_ref_ms_p50", "ref-ms"),
    ("latency_ref_ms_p90", "ref-ms"),
    ("throughput_ref_per_s", "1/ref-s"),
];

/// Per-layer metrics, reported by every traced run (0 where a layer
/// does not run in the workload). `BENCHMARK.json` lists the same names.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("snn.forward_ms", "ms"),
        ("snn.forward_full_t_ms", "ms"),
        ("snn.forward_half_t_ms", "ms"),
        ("snn.loss_ms", "ms"),
        ("snn.loss_final", "nats"),
        ("snn.macs_per_step", "MAC-model"),
        ("snn.fwd_gflops", "GFLOP/s"),
        ("snn.spike_density", "share"),
        ("autograd.backward_ms", "ms"),
        ("autograd.optim_ms", "ms"),
        ("autograd.nodes_per_step", "count"),
        ("step.unattributed_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        out.push((format!("tensor.{k}.calls"), "count"));
        out.push((format!("tensor.{k}.ms"), "ms"));
    }
    out.extend(
        [
            ("tensor.kernel_share", "share"),
            ("infer.queue_wait_ms_p50", "ms"),
            ("infer.queue_wait_ms_p99", "ms"),
            ("infer.batch_form_ms_p50", "ms"),
            ("infer.execute_ms_p50.htt", "ms"),
            ("infer.execute_ms_p50.dense", "ms"),
            ("infer.execute_ms_p50.int8", "ms"),
            ("infer.batch_size_mean", "count"),
            ("infer.expired", "count"),
            ("infer.rejected", "count"),
            ("infer.unattributed_ms_p50", "ms"),
            ("serve.admit_ms_p50", "ms"),
            ("serve.serialize_ms_p50", "ms"),
            ("serve.write_ms_p50", "ms"),
            ("serve.unattributed_ms_p50", "ms"),
            ("obs.overhead_pct", "%"),
            ("obs.overhead_pct_spread", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// What a workload measured, before it is laid out as a result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (steps or requests) the checks counted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts, percentiles actually read, and other context.
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a note.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }
}

/// One metric as published.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the catalogue.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit from the catalogue.
    pub unit: String,
}

/// A full result: what the run measured and on what.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement seconds asked for.
    pub seconds: u64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Published metrics, catalogue order.
    pub metrics: Vec<Metric>,
    /// Machine and configuration the numbers were taken on.
    pub fingerprint: Vec<(String, String)>,
    /// Sample counts and other context.
    pub notes: Vec<(String, Value)>,
}

impl BenchResult {
    /// Lays `outcome` out against the catalogue for this run kind.
    ///
    /// # Errors
    ///
    /// Names a metric the outcome set that the catalogue does not
    /// list, or an end-to-end metric it left unset or non-finite.
    pub fn build(
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
        outcome: Outcome,
        fingerprint: Vec<(String, String)>,
    ) -> Result<BenchResult, String> {
        let catalogue: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        // Workloads set metrics of both catalogues; the run kind picks one.
        let listed = |k: &str| {
            END_TO_END.iter().any(|(n, _)| *n == k) || per_layer().iter().any(|(n, _)| n == k)
        };
        if let Some(stray) = outcome.metrics.keys().find(|k| !listed(k)) {
            return Err(format!("metric {stray:?} is not in the catalogue"));
        }
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match outcome.metrics.get(&name) {
                Some(v) if v.is_finite() => *v,
                // A layer the workload does not run reads zero.
                None if trace => 0.0,
                other => return Err(format!("metric {name:?} is {other:?}")),
            };
            metrics.push(Metric { name, value, unit: unit.to_string() });
        }
        Ok(BenchResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            correct: outcome.correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics,
            fingerprint,
            notes: outcome.notes,
        })
    }

    /// The one-line summary the benchmark prints last.
    pub fn summary(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
    }

    /// The full record, as written by `--out`.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("seconds".into(), Value::Num(self.seconds as f64)),
            ("trace".into(), Value::Bool(self.trace)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
            (
                "fingerprint".into(),
                Value::Obj(
                    self.fingerprint
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("notes".into(), Value::Obj(self.notes.clone())),
        ])
    }

    /// Reads back a record written by [`BenchResult::to_json`].
    #[cfg(test)]
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<BenchResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let num = |k: &str| match field(k)? {
            Value::Num(x) => Ok(*x),
            _ => Err(format!("field {k:?} is not a number")),
        };
        let boolean = |k: &str| match field(k)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("field {k:?} is not a boolean")),
        };
        let obj = |k: &str| match field(k)? {
            Value::Obj(fields) => Ok(fields.clone()),
            _ => Err(format!("field {k:?} is not an object")),
        };
        let workload = match field("workload")? {
            Value::Str(s) => s.clone(),
            _ => return Err("field \"workload\" is not a string".into()),
        };
        let mut metrics = Vec::new();
        for (name, m) in obj("metrics")? {
            match (m.get("value"), m.get("unit")) {
                (Some(Value::Num(value)), Some(Value::Str(unit))) => {
                    metrics.push(Metric { name, value: *value, unit: unit.clone() })
                }
                _ => return Err(format!("metric {name:?} needs a numeric value and a unit")),
            }
        }
        let mut fingerprint = Vec::new();
        for (k, val) in obj("fingerprint")? {
            match val {
                Value::Str(s) => fingerprint.push((k, s)),
                _ => return Err(format!("fingerprint {k:?} is not a string")),
            }
        }
        Ok(BenchResult {
            workload,
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: boolean("trace")?,
            correct: boolean("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            fingerprint,
            notes: obj("notes")?,
        })
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let body = Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), body)
            })
            .collect(),
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` directory; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(trace: bool) -> BenchResult {
        let mut o = Outcome { correct: true, attempted: 120, failed: 0, ..Default::default() };
        if trace {
            o.set("snn.forward_ms", 12.5);
            o.set("obs.overhead_pct", -1.25);
        } else {
            for (i, (name, _)) in END_TO_END.iter().enumerate() {
                o.set(name, 0.1 + i as f64 / 3.0);
            }
        }
        o.note("step_samples", Value::Num(118.0));
        o.note("percentile", Value::Obj(vec![("q".into(), Value::Num(0.915))]));
        let fp = vec![("nproc".into(), "2".into()), ("git_sha".into(), "abc123".into())];
        BenchResult::build("train-htt", 7, 20, trace, o, fp).unwrap()
    }

    #[test]
    fn result_file_round_trips() {
        for trace in [false, true] {
            let r = sample(trace);
            let text = r.to_json().render();
            let back = BenchResult::from_json(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn summary_has_exactly_the_published_keys() {
        let s = sample(false).summary();
        let Value::Obj(fields) = &s else { panic!("summary is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(metrics)) = s.get("metrics") else { panic!("metrics object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = sample(true);
        assert_eq!(traced.metrics.len(), per_layer().len());
        assert!(traced.metrics.iter().any(|m| m.name == "tensor.qgemm.calls" && m.value == 0.0));
    }

    #[test]
    fn unlisted_or_missing_metrics_are_refused() {
        let mut o = Outcome::default();
        o.set("made_up", 1.0);
        assert!(BenchResult::build("w", 1, 1, true, o, vec![]).is_err());
        let o = Outcome::default();
        assert!(BenchResult::build("w", 1, 1, false, o, vec![]).is_err(), "e2e metrics unset");
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
