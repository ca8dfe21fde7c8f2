//! `train-htt` and `train-dense`: back-to-back BPTT training steps on the
//! event-stream ResNet18, the paper's N-Caltech101 setup as `table2`
//! scales it.

use std::time::Instant;

use ttsnn_autograd::{nodes_created, Sgd, SgdConfig, Var};
use ttsnn_core::TtMode;
use ttsnn_data::{Batch, EventStream};
use ttsnn_obs::{now_ns, record_span, TraceContext};
use ttsnn_snn::trainer::train_step;
use ttsnn_snn::{ConvPolicy, LossKind, ResNetConfig, ResNetSnn, SpikingModel, TrainForward};
use ttsnn_tensor::Rng;

use crate::json::Value;
use crate::probe::{to_ref, HostProbe};
use crate::result::Outcome;
use crate::stats::{median, quantile};
use crate::trace::{span_ns, KernelShare, KernelTally, KERNELS};
use crate::Phases;

/// Timesteps (the paper's N-Caltech101 setting).
pub const TIMESTEPS: usize = 6;
const BATCH: usize = 8;
const CLASSES: usize = 10;
/// Samples generated per seed: eight batches, cycled.
const SAMPLES: usize = 64;
/// Steps every run takes, whose loss sequence is fixed for a seed;
/// `snn.loss_final` is the mean over the last [`LOSS_WINDOW`] of them.
const LOSS_STEPS: usize = 60;
const LOSS_WINDOW: usize = 20;
/// Untimed steps before the timed ones (first-touch allocations).
const WARMUP_STEPS: usize = 2;
/// Steps replayed on fresh set-ups to check the loss sequence repeats.
const VERIFY_STEPS: usize = 3;

/// Which conv policy a training workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// HTT, the paper's default schedule (full at t < T/2).
    Htt,
    /// Dense baseline convolutions.
    Dense,
}

impl Policy {
    fn conv(self) -> ConvPolicy {
        match self {
            Policy::Htt => ConvPolicy::tt(TtMode::htt_default(TIMESTEPS)),
            Policy::Dense => ConvPolicy::Baseline,
        }
    }

    fn is_full_at(self, t: usize) -> bool {
        match self {
            Policy::Htt => TtMode::htt_default(TIMESTEPS).is_full_at(t),
            Policy::Dense => true,
        }
    }
}

/// A model ready to train, its optimizer and the seed's batches.
pub struct Setup {
    model: ResNetSnn,
    opt: Sgd,
    batches: Vec<Batch>,
}

/// Builds the model, data and optimizer for `seed`. Both policies draw
/// the same data for a seed.
pub fn setup(policy: Policy, seed: u64) -> Setup {
    let mut rng = Rng::seed_from(seed);
    let stream = EventStream::ncaltech_like(16, 16, CLASSES, TIMESTEPS);
    let data = stream.dataset(SAMPLES, &mut rng);
    let batches = data.batches(BATCH, TIMESTEPS, &mut rng).expect("event batches");
    let config = ResNetConfig::resnet18_events(CLASSES, (16, 16), 8);
    let model = ResNetSnn::new(config, &policy.conv(), &mut rng);
    // `table2`'s learning rate; the paper's 0.1 makes the SumCe loss
    // spike for several steps at these widths.
    let opt = Sgd::new(model.params(), SgdConfig { lr: 0.05, ..SgdConfig::default() });
    Setup { model, opt, batches }
}

impl Setup {
    /// One untraced step through the trainer's public entry point.
    fn step(&mut self, i: usize) -> Result<(f32, f64), String> {
        let batch = &self.batches[i % self.batches.len()];
        train_step(&mut self.model, batch, &mut self.opt, LossKind::SumCe)
            .map_err(|e| e.to_string())
    }

    /// The same step as [`Setup::step`], unrolled into its public calls
    /// with a span around each, under a trace context so the kernels'
    /// regions land in the trace. Returns the loss and the step's trace.
    fn traced_step(&mut self, i: usize, policy: Policy) -> Result<(f32, StepTrace), String> {
        let batch = &self.batches[i % self.batches.len()];
        let id = ttsnn_obs::next_trace_id();
        let nodes0 = nodes_created();
        let ctx = TraceContext::enter(&[id]);
        let start = now_ns();
        let timed = |name: &'static str, t: u64, f: &mut dyn FnMut()| {
            let s = now_ns();
            f();
            record_span(id, name, s, now_ns() - s, t, 0);
        };
        timed("bench.optim", 0, &mut || self.opt.zero_grad());
        self.model.reset_state();
        let mut logits = Vec::with_capacity(TIMESTEPS);
        let mut failure = None;
        for (t, frame) in batch.frames.iter().enumerate() {
            let x = Var::constant(frame.clone());
            timed("bench.forward", t as u64, &mut || match self.model.forward_timestep(&x, t) {
                Ok(l) => logits.push(l),
                Err(e) => failure = Some(e.to_string()),
            });
        }
        if let Some(e) = failure {
            return Err(e);
        }
        let mut loss = None;
        timed("bench.loss", 0, &mut || {
            loss = Some(LossKind::SumCe.compute(&logits, &batch.labels))
        });
        let loss = loss.expect("loss ran").map_err(|e| e.to_string())?;
        let loss_value = loss.to_tensor().data()[0];
        timed("bench.backward", 0, &mut || loss.backward());
        timed("bench.optim", 0, &mut || self.opt.step());
        let step_ns = now_ns() - start;
        drop(ctx);
        let nodes = nodes_created() - nodes0;
        drop(loss);
        drop(logits);
        let events = ttsnn_obs::trace_events(id);
        let forward: Vec<_> = events.iter().filter(|e| e.name == "bench.forward").collect();
        if forward.len() != TIMESTEPS {
            return Err(format!(
                "trace ring dropped the start of the step ({} of {TIMESTEPS} forward spans left)",
                forward.len()
            ));
        }
        let fwd = |full: bool| -> u64 {
            forward
                .iter()
                .filter(|e| policy.is_full_at(e.a as usize) == full)
                .map(|e| e.dur_ns)
                .sum()
        };
        Ok((
            loss_value,
            StepTrace {
                step_ns,
                forward_full_ns: fwd(true),
                forward_half_ns: fwd(false),
                loss_ns: span_ns(&events, "bench.loss"),
                backward_ns: span_ns(&events, "bench.backward"),
                optim_ns: span_ns(&events, "bench.optim"),
                nodes,
                kernels: KernelTally::of(&events),
            },
        ))
    }
}

/// What one traced step recorded.
#[derive(Debug, Clone, Copy)]
struct StepTrace {
    step_ns: u64,
    forward_full_ns: u64,
    forward_half_ns: u64,
    loss_ns: u64,
    backward_ns: u64,
    optim_ns: u64,
    nodes: u64,
    kernels: KernelTally,
}

/// Timed set-ups of one run and the loss prefixes their replays gave.
#[derive(Default)]
struct SetupLog {
    times: Vec<f64>,
    prefixes: Vec<Vec<u32>>,
}

impl SetupLog {
    fn build(&mut self, policy: Policy, seed: u64) -> Setup {
        let t0 = Instant::now();
        let s = setup(policy, seed);
        self.times.push(t0.elapsed().as_secs_f64());
        s
    }

    /// Builds a set-up and replays the first steps on it.
    fn build_and_replay(&mut self, policy: Policy, seed: u64) {
        let mut s = self.build(policy, seed);
        let bits = (0..VERIFY_STEPS).map(|i| s.step(i).map_or(u32::MAX, |(l, _)| l.to_bits()));
        self.prefixes.push(bits.collect());
    }

    /// Whether every replay gave exactly the run's own first losses.
    fn replays_match(&self, losses: &[f32]) -> bool {
        let own: Vec<u32> = losses[..VERIFY_STEPS].iter().map(|l| l.to_bits()).collect();
        self.prefixes.iter().all(|p| *p == own)
    }
}

/// Runs a training workload for `seconds`, untraced or traced.
pub fn run(policy: Policy, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut log = SetupLog::default();
    for _ in 1..crate::SETUPS_BEFORE {
        log.build_and_replay(policy, seed);
    }
    let mut s = log.build(policy, seed);
    let mut o = Outcome::default();
    let mut losses: Vec<f32> = Vec::new();
    let mut failed = 0u64;
    let mut record = |losses: &mut Vec<f32>, r: Result<f32, String>| match r {
        Ok(l) if l.is_finite() => losses.push(l),
        Ok(l) => {
            failed += 1;
            losses.push(l);
        }
        Err(e) => {
            eprintln!("training step failed: {e}");
            failed += 1;
            losses.push(f32::NAN);
        }
    };
    for i in 0..WARMUP_STEPS {
        record(&mut losses, s.step(i).map(|(l, _)| l));
    }
    let mut step_ms = Vec::new();
    if traced {
        let phases = Phases::new(seconds);
        let mut off_ms: Vec<Vec<f64>> = vec![Vec::new(); phases.pairs()];
        let mut on_ms: Vec<Vec<f64>> = vec![Vec::new(); phases.pairs()];
        let mut steps: Vec<StepTrace> = Vec::new();
        while let Some((pair, on)) = phases.current() {
            let i = losses.len();
            ttsnn_obs::set_enabled(on);
            if on {
                let r = s.traced_step(i, policy);
                if let Ok((_, st)) = &r {
                    on_ms[pair].push(st.step_ns as f64 / 1e6);
                    steps.push(*st);
                }
                record(&mut losses, r.map(|(l, _)| l));
            } else {
                let r = s.step(i);
                if let Ok((_, secs)) = &r {
                    off_ms[pair].push(secs * 1e3);
                }
                record(&mut losses, r.map(|(l, _)| l));
            }
            ttsnn_obs::set_enabled(false);
        }
        while losses.len() < LOSS_STEPS {
            let i = losses.len();
            record(&mut losses, s.step(i).map(|(l, _)| l));
        }
        traced_metrics(&mut o, &s, &steps, &off_ms, &on_ms);
    } else {
        // A probe run between steps; each step is scaled to reference
        // milliseconds by the mean of the runs on either side. Host
        // regimes last from tenths of a second to minutes; a step takes
        // 50-150 ms.
        let mut probe = HostProbe::new();
        let mut ref_ms = Vec::new();
        let mut probe_before = probe.time();
        let start = Instant::now();
        while losses.len() < LOSS_STEPS || start.elapsed().as_secs_f64() < seconds {
            let i = losses.len();
            let r = s.step(i);
            let probe_after = probe.time();
            let host = (probe_before + probe_after) / 2.0;
            probe_before = probe_after;
            if let Ok((_, secs)) = &r {
                step_ms.push(secs * 1e3);
                ref_ms.push(to_ref(secs * 1e3, host));
            }
            record(&mut losses, r.map(|(l, _)| l));
        }
        let tail = quantile(&step_ms, 0.99).expect("enough timed steps for a tail");
        crate::publish_latency(&mut o, &step_ms, &ref_ms, tail, probe.times());
        let samples = (BATCH * step_ms.len()) as f64;
        o.set("throughput_ref_per_s", samples / (ref_ms.iter().sum::<f64>() / 1e3));
        o.note("throughput_per_s", Value::Num(samples / (step_ms.iter().sum::<f64>() / 1e3)));
    }
    let window = &losses[LOSS_STEPS - LOSS_WINDOW..LOSS_STEPS];
    o.set("snn.loss_final", window.iter().map(|&l| f64::from(l)).sum::<f64>() / LOSS_WINDOW as f64);
    drop(s);
    for _ in 0..crate::SETUPS_AFTER {
        log.build_and_replay(policy, seed);
    }
    o.set("setup_s", median(&log.times));
    let repeats = log.replays_match(&losses);
    let attempted = losses.len() as u64;
    o.set("success_share", (attempted - failed) as f64 / attempted as f64);
    o.correct = failed == 0 && repeats;
    o.attempted = attempted;
    o.failed = failed;
    o.note("steps", Value::Num(attempted as f64));
    o.note("timed_steps", Value::Num(step_ms.len() as f64));
    o.note("loss_sequence_repeats", Value::Bool(repeats));
    // Over the fixed-length prefix only, so runs of any length compare.
    let prefix = losses[..LOSS_STEPS].iter().flat_map(|l| l.to_bits().to_le_bytes());
    o.note("loss_digest", Value::Str(format!("{:016x}", fnv1a(prefix))));
    o
}

fn traced_metrics(
    o: &mut Outcome,
    s: &Setup,
    steps: &[StepTrace],
    off_ms: &[Vec<f64>],
    on_ms: &[Vec<f64>],
) {
    assert!(!steps.is_empty(), "the traced phases ran no step");
    // Kernel counts are published only when every traced step saw the
    // same calls: a ring that dropped events would read short.
    let calls0 = steps[0].kernels.calls;
    if let Some(bad) =
        steps.iter().position(|st| st.kernels.calls != calls0 || st.nodes != steps[0].nodes)
    {
        eprintln!(
            "kernel region counts differ between traced steps 0 and {bad}: {calls0:?} vs {:?}; \
             refusing to publish kernel numbers",
            steps[bad].kernels.calls
        );
        std::process::exit(3);
    }
    let n = steps.len() as f64;
    let mean_ms =
        |f: &dyn Fn(&StepTrace) -> u64| steps.iter().map(|st| f(st) as f64).sum::<f64>() / n / 1e6;
    let full = mean_ms(&|st| st.forward_full_ns);
    let half = mean_ms(&|st| st.forward_half_ns);
    let step = mean_ms(&|st| st.step_ns);
    let loss = mean_ms(&|st| st.loss_ns);
    let backward = mean_ms(&|st| st.backward_ns);
    let optim = mean_ms(&|st| st.optim_ns);
    o.set("snn.forward_ms", full + half);
    o.set("snn.forward_full_t_ms", full);
    o.set("snn.forward_half_t_ms", half);
    o.set("snn.loss_ms", loss);
    o.set("autograd.backward_ms", backward);
    o.set("autograd.optim_ms", optim);
    o.set("step.unattributed_ms", step - (full + half + loss + backward + optim));
    o.set("autograd.nodes_per_step", steps[0].nodes as f64);
    let macs: usize = (0..TIMESTEPS).map(|t| s.model.macs_at(t)).sum::<usize>() * BATCH;
    o.set("snn.macs_per_step", macs as f64);
    o.set("snn.fwd_gflops", 2.0 * macs as f64 / ((full + half) / 1e3) / 1e9);
    o.set("snn.spike_density", s.model.mean_spike_activity().unwrap_or(0.0));
    let mut share = KernelShare::default();
    for st in steps {
        share.add(&st.kernels, 1.0 / n);
    }
    for (i, k) in KERNELS.iter().enumerate() {
        // Counts are the same every step (checked above): publish them exactly.
        o.set(&format!("tensor.{k}.calls"), calls0[i] as f64);
        o.set(&format!("tensor.{k}.ms"), share.ms[i]);
    }
    o.set("tensor.kernel_share", share.top_ms / step);
    crate::overhead(o, off_ms, on_ms);
    o.note("traced_steps", Value::Num(n));
    o.note("step_ms_traced_mean", Value::Num(step));
    o.note(
        "kernel_threads_for_counts",
        Value::Num(ttsnn_tensor::runtime::Runtime::global().threads() as f64),
    );
}

/// FNV-1a over a byte stream: a short, stable digest of a loss sequence
/// for comparing runs.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &Setup) -> Vec<u32> {
        let mut out: Vec<u32> = s
            .model
            .params()
            .iter()
            .flat_map(|p| p.to_tensor().data().to_vec())
            .map(f32::to_bits)
            .collect();
        for b in &s.batches {
            out.extend(b.frames.iter().flat_map(|f| f.data().iter().map(|v| v.to_bits())));
            out.extend(b.labels.iter().map(|&l| l as u32));
        }
        out
    }

    #[test]
    fn training_inputs_are_seeded() {
        let a = setup(Policy::Htt, 11);
        assert_eq!(bits(&a), bits(&setup(Policy::Htt, 11)));
        assert_ne!(bits(&a), bits(&setup(Policy::Htt, 12)));
        assert_eq!(a.batches.len(), SAMPLES / BATCH);
        // Both policies train on the same data for a seed.
        let dense = setup(Policy::Dense, 11);
        assert_eq!(a.batches[0].frames[0].data(), dense.batches[0].frames[0].data());
        assert_eq!(a.batches[0].labels, dense.batches[0].labels);
    }

    #[test]
    fn traced_step_gives_the_trainer_step_loss() {
        // A TT step overflows the default 4096-event ring; this is the
        // only test that records events, so the first push reads this.
        std::env::set_var("TTSNN_TRACE_RING", crate::TRACE_RING);
        let mut plain = setup(Policy::Htt, 5);
        let mut traced = setup(Policy::Htt, 5);
        ttsnn_obs::set_enabled(true);
        for i in 0..2 {
            let (want, _) = plain.step(i).unwrap();
            let (got, st) = traced.traced_step(i, Policy::Htt).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            assert!(st.nodes > 0 && st.forward_full_ns > 0 && st.forward_half_ns > 0);
        }
    }
}
