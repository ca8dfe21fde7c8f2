//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-htt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a detail line (`# detail {...}`: fingerprint, sample counts,
//! percentiles actually read) and, last, one JSON summary line with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics with tracing off; `--trace 1` reports the
//! per-layer metrics from a traced run. `--out FILE` also writes the full
//! record. See `perfbench/README.md` for the workloads and metrics.

mod json;
mod probe;
mod result;
mod serve;
mod stats;
mod trace;
mod train;

use std::time::Instant;

use json::Value;
use result::{BenchResult, Outcome};
use stats::{median, quartiles, Quantile};

/// Set-ups per run, before and after the measurement; `setup_s` is the
/// median of all of them. A shared host switches between fast and slow
/// regimes lasting seconds; set-ups at both ends of the run sample it the
/// way the measurement does, instead of one fraction of a second of it.
pub const SETUPS_BEFORE: usize = 4;
pub const SETUPS_AFTER: usize = 3;
/// Untraced/traced block pairs in a traced run.
const PAIRS: usize = 3;
/// Kernel threads: one, so that nested kernel regions are all seen by
/// the traced caller and counts are exact, and so that runs on a shared
/// two-core machine repeat.
const KERNEL_THREADS: &str = "1";
/// Trace ring per thread, the largest `ttsnn_obs` accepts: the default
/// 4096 events drops the start of a TT training step.
pub const TRACE_RING: &str = "1048576";

const WORKLOADS: [&str; 4] = ["train-htt", "train-dense", "serve-batched", "serve-socket"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(bad("expected 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

/// Alternating untraced/traced blocks of equal length, so drift and
/// cache state hit both modes alike.
pub struct Phases {
    start: Instant,
    block_s: f64,
}

impl Phases {
    /// Splits `seconds` into `2 * PAIRS` blocks, starting now.
    pub fn new(seconds: f64) -> Phases {
        Phases { start: Instant::now(), block_s: seconds / (2 * PAIRS) as f64 }
    }

    /// Number of untraced/traced pairs.
    pub fn pairs(&self) -> usize {
        PAIRS
    }

    /// Length of one block in seconds.
    pub fn block_s(&self) -> f64 {
        self.block_s
    }

    /// Every block as `(pair, traced)`, in order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, bool)> {
        (0..2 * PAIRS).map(|b| (b / 2, b % 2 == 1))
    }

    /// The block the clock is in, or `None` once all have elapsed.
    pub fn current(&self) -> Option<(usize, bool)> {
        let b = (self.start.elapsed().as_secs_f64() / self.block_s) as usize;
        (b < 2 * PAIRS).then_some((b / 2, b % 2 == 1))
    }
}

/// Tracing overhead from paired blocks: the traced block's median over
/// the untraced block's, per pair. Publishes the median over pairs and
/// the spread between the pairs' quartiles.
pub fn overhead(o: &mut Outcome, off: &[Vec<f64>], on: &[Vec<f64>]) {
    let pcts: Vec<f64> = off
        .iter()
        .zip(on)
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .map(|(a, b)| (median(b) / median(a) - 1.0) * 100.0)
        .collect();
    if pcts.is_empty() {
        return;
    }
    let (q1, q3) = quartiles(&pcts);
    o.set("obs.overhead_pct", median(&pcts));
    o.set("obs.overhead_pct_spread", if pcts.len() > 1 { q3 - q1 } else { 0.0 });
    o.note("obs.overhead_pct_pairs", Value::Arr(pcts.into_iter().map(Value::Num).collect()));
}

/// Publishes the gated latency metrics, the median and p90 of
/// `ref_ms` (each operation's time in reference milliseconds, see
/// [`probe`]), and records in the detail line the same percentiles of
/// the raw wall times `wall_ms`, `tail` — the highest raw percentile up
/// to p99 the run supports — and the probe times `probe_ms`. The gate sits at p90:
/// on a shared two-core host slow regimes lasting tens of seconds double
/// the serving p99, and a tail that far out moves with the host more
/// than with the program even after the probe scales it.
pub fn publish_latency(
    o: &mut Outcome,
    wall_ms: &[f64],
    ref_ms: &[f64],
    tail: Quantile,
    probe_ms: &[f64],
) {
    let at = |xs: &[f64], q: f64| stats::quantile(xs, q).expect("enough samples for a p90").value;
    o.set("latency_ref_ms_p50", at(ref_ms, 0.5));
    o.set("latency_ref_ms_p90", at(ref_ms, 0.9));
    o.note("latency_ms_p50", Value::Num(at(wall_ms, 0.5)));
    o.note("latency_ms_p90", Value::Num(at(wall_ms, 0.9)));
    let mut note = vec![("value".to_string(), Value::Num(tail.value))];
    if let Value::Obj(fields) = pct_note(&tail) {
        note.extend(fields);
    }
    o.note("latency_ms_tail", Value::Obj(note));
    o.note(
        "host_probe_ms",
        Value::Obj(vec![
            ("median".into(), Value::Num(median(probe_ms))),
            ("runs".into(), Value::Num(probe_ms.len() as f64)),
            ("reference".into(), Value::Num(probe::REF_PROBE_MS)),
        ]),
    );
}

/// A percentile's provenance for the detail line.
pub fn pct_note(q: &Quantile) -> Value {
    Value::Obj(vec![
        ("percentile".into(), Value::Num(q.q * 100.0)),
        ("samples".into(), Value::Num(q.n as f64)),
    ])
}

fn fingerprint(workload: &str, trace: bool) -> Vec<(String, String)> {
    let serving = workload.starts_with("serve");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("kernel_threads".into(), ttsnn_tensor::runtime::Runtime::global().threads().to_string()),
        ("replicas_per_plan".into(), if serving { "1".into() } else { "n/a".into() }),
        ("git_sha".into(), result::git_sha()),
        ("build_profile".into(), if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        (
            "tracing".into(),
            if trace {
                format!(
                    "alternating off/on blocks, ring {} events/thread",
                    ttsnn_obs::ring_capacity()
                )
            } else {
                "off".into()
            },
        ),
        (
            "telemetry".into(),
            if workload == "serve-socket" {
                "sampler on, default tick".into()
            } else {
                "no sampler".into()
            },
        ),
        ("sparse_mode".into(), ttsnn_tensor::spike::sparse_mode().name().into()),
    ]
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the program's knobs before anything reads them: no inherited
    // TTSNN_* setting may change what is measured.
    for (key, _) in std::env::vars() {
        if key.starts_with("TTSNN_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("TTSNN_NUM_THREADS", KERNEL_THREADS);
    std::env::set_var("TTSNN_TRACE_RING", TRACE_RING);
    ttsnn_obs::set_enabled(false);

    let seconds = args.seconds as f64;
    let outcome = match args.workload.as_str() {
        "train-htt" => train::run(train::Policy::Htt, args.seed, seconds, args.trace),
        "train-dense" => train::run(train::Policy::Dense, args.seed, seconds, args.trace),
        "serve-batched" => serve::run_batched(args.seed, seconds, args.trace),
        "serve-socket" => serve::run_socket(args.seed, seconds, args.trace),
        _ => unreachable!("parse_args checked the workload"),
    };
    ttsnn_obs::set_enabled(false);
    let mut outcome = outcome;
    outcome.set("peak_rss_mb", result::peak_rss_mb().unwrap_or(f64::NAN));
    let fp = fingerprint(&args.workload, args.trace);
    let result = match BenchResult::build(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        outcome,
        fp,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let full = result.to_json();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, full.render() + "\n") {
            eprintln!("perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("# detail {}", full.render());
    println!("{}", result.summary().render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_values_are_refused() {
        let a = args("--workload serve-batched --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-batched", 9, 20, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 5").is_err());
        assert!(args("--workload train-htt --seed x --seconds 5").is_err());
        assert!(args("--workload train-htt --seed 1 --seconds 0").is_err());
        assert!(args("--workload train-htt --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload train-htt --seconds 5").is_err());
        assert!(args("--workload").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = manifest.get(key) else { panic!("{key} is a list") };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    (Some(Value::Str(n)), None) => (n.clone(), String::new()),
                    _ => panic!("{key} entry without a name"),
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> =
            result::END_TO_END.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            result::per_layer().into_iter().map(|(n, u)| (n, u.into())).collect();
        assert_eq!(names("per_layer"), layers);
    }
}
