//! `serve-batched` and `serve-socket`: one seeded VGG9 checkpoint
//! mounted three ways on one `Router`, driven closed-loop in process with
//! several requests in flight, and closed-loop over loopback TCP.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttsnn_core::TtMode;
use ttsnn_data::StaticImages;
use ttsnn_infer::{ArchSpec, ClusterConfig, EngineConfig, Priority, QuantSpec, SubmitOptions};
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{Client, PlanSpec, Router, Server, ServerConfig};
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{checkpoint, ConvPolicy, InferForward, InferStats, VggConfig, VggSnn};
use ttsnn_tensor::{Rng, Tensor};

use crate::json::Value;
use crate::probe::{to_ref, HostProbe};
use crate::result::Outcome;
use crate::stats::{mean, median, quantile, windowed_tail};
use crate::trace::{first_span, span_ns, KernelShare, KernelTally, KERNELS};
use crate::{pct_note, Phases};

/// The three mounts of the checkpoint, in the order plans are drawn.
pub const PLANS: [&str; 3] = ["htt", "dense", "int8"];
const TIMESTEPS: usize = 4;
/// Distinct inputs per seed; requests draw from this pool.
const POOL: usize = 32;
const CALIBRATION: usize = 4;
/// The checkpoint is the deployed model: fixed across runs, so its
/// spike densities (which steer sparse dispatch) do not vary with the
/// traffic seed. The seed draws the traffic: inputs and plans.
const CHECKPOINT_SEED: u64 = 42;
/// Requests carry this deadline: far above any latency the closed loops
/// see, so it only bounds a wedged request.
const DEADLINE: Duration = Duration::from_millis(250);
/// Requests `serve-batched` keeps in flight: two per plan on average,
/// so the scheduler forms batches and both cores stay busy.
const IN_FLIGHT: usize = 6;
/// Windows per measured phase for the p99 tail (recorded in the detail
/// line): the median window tail is what is reported, so one transient
/// stall of the shared host does not decide the number.
const TAIL_WINDOWS: usize = 5;
/// Traced requests whose spans are read back (evenly spaced), bounding
/// the post-run analysis.
const MAX_ANALYSED: usize = 600;
/// Requests in one measured window between two probe samples, per
/// workload: about a quarter second's worth on the two-core development
/// host. The host's regimes switch within a few tenths of a second at
/// times, and one-second windows tracked them poorly. A window is a fixed
/// amount of work, not of time: the serving stack's memory grows with
/// every request served, so a fixed count keeps `peak_rss_mb`
/// independent of the host's speed.
const BATCHED_WINDOW: usize = 175;
/// Per connection (`serve-socket` has [`CONNECTIONS`]).
const SOCKET_WINDOW: usize = 55;
/// The nominal length of one window: the run's seconds are split into
/// windows of this length.
const WINDOW_S: f64 = 0.25;
/// Windows' worth of requests sent before the measured phase.
const WARMUP_WINDOWS: usize = 2;
/// Closed-loop connections of `serve-socket`.
const CONNECTIONS: usize = 2;

fn vgg() -> VggConfig {
    VggConfig::vgg9(3, 10, (16, 16), 8)
}

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::htt_default(TIMESTEPS))
}

/// The seed's request pool: inputs and each plan's reference logits.
pub struct Pool {
    inputs: Arc<Vec<Tensor>>,
    /// `refs[plan][input]`: reference logit bits.
    refs: Arc<Refs>,
}

/// Builds the checkpoint, the router and `seed`'s inputs, and computes
/// the references outside the cluster from the same frozen plans.
pub fn fixture(seed: u64) -> (Router, Pool) {
    let model = VggSnn::new(vgg(), &policy(), &mut Rng::seed_from(CHECKPOINT_SEED));
    let mut rng = Rng::seed_from(seed);
    let ckpt = ttsnn_testutil::checkpoint_bytes(&model);
    let images = StaticImages::cifar10_like(16, 16);
    let mut inputs = Vec::with_capacity(POOL);
    for i in 0..POOL {
        inputs.push(images.sample(i % 10, &mut rng).frames[0].clone());
    }
    let calibration: Vec<Tensor> =
        (0..CALIBRATION).map(|i| images.sample(i % 10, &mut rng).frames[0].clone()).collect();

    let engine = EngineConfig::new(ArchSpec::Vgg(vgg()), policy(), TIMESTEPS);
    let spec = |name: &str, engine: EngineConfig, quant: Option<QuantSpec>| PlanSpec {
        name: name.into(),
        config: ClusterConfig::new(engine).with_replicas(1),
        quant,
        checkpoint: ckpt.clone(),
    };
    let router = Router::load(vec![
        spec(PLANS[0], engine.clone(), None),
        spec(PLANS[1], engine.clone().merged(), None),
        spec(PLANS[2], engine, Some(QuantSpec::new(calibration.clone()))),
    ])
    .expect("mount the three plans");

    let mut refs = Vec::with_capacity(PLANS.len());
    for plan in PLANS {
        let mut m = VggSnn::new(vgg(), &policy(), &mut Rng::seed_from(0));
        checkpoint::load_params(&ttsnn_snn::SpikingModel::params(&m), ckpt.as_slice())
            .expect("reload checkpoint");
        if plan != "htt" {
            m.merge_into_dense().expect("merge");
        }
        if plan == "int8" {
            let calib = m.calibrate(&calibration, TIMESTEPS).expect("calibrate");
            m.quantize(&calib, &QuantConfig::default()).expect("quantize");
        }
        m.set_infer_stats(InferStats::PerSample);
        let plan_refs: Vec<Vec<u32>> = inputs
            .iter()
            .map(|x| {
                let logits = ttsnn_testutil::infer_plane_reference(&mut m, x, TIMESTEPS);
                logits.data().iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        refs.push(plan_refs);
    }
    (router, Pool { inputs: Arc::new(inputs), refs: Arc::new(refs) })
}

fn bits_match(refs: &[Vec<Vec<u32>>], plan: usize, input: usize, logits: &[f32]) -> bool {
    let want = &refs[plan][input];
    want.len() == logits.len() && want.iter().zip(logits).all(|(w, v)| *w == v.to_bits())
}

/// Timed fixture builds of one run; every build's references must equal
/// the first's.
#[derive(Default)]
struct SetupLog {
    times: Vec<f64>,
    refs: Option<Arc<Refs>>,
    repeats: bool,
}

type Refs = Vec<Vec<Vec<u32>>>;

impl SetupLog {
    /// Builds the fixture, with `extra` (the socket workload binds its
    /// server there) inside the timed part.
    fn build<T>(&mut self, seed: u64, extra: &mut impl FnMut(Router) -> T) -> (T, Pool) {
        let t0 = Instant::now();
        let (router, pool) = fixture(seed);
        let built = extra(router);
        self.times.push(t0.elapsed().as_secs_f64());
        match &self.refs {
            None => (self.refs, self.repeats) = (Some(Arc::clone(&pool.refs)), true),
            Some(r) => self.repeats &= **r == *pool.refs,
        }
        (built, pool)
    }

    /// [`crate::SETUPS_BEFORE`] builds, keeping the last.
    fn before<T>(&mut self, seed: u64, extra: &mut impl FnMut(Router) -> T) -> (T, Pool) {
        for _ in 1..crate::SETUPS_BEFORE {
            drop(self.build(seed, extra));
        }
        self.build(seed, extra)
    }

    /// [`crate::SETUPS_AFTER`] builds after the measurement; publishes
    /// `setup_s` over all builds.
    fn after<T>(mut self, seed: u64, extra: &mut impl FnMut(Router) -> T, o: &mut Outcome) -> bool {
        for _ in 0..crate::SETUPS_AFTER {
            drop(self.build(seed, extra));
        }
        o.set("setup_s", median(&self.times));
        self.repeats
    }
}

/// A per-request trace read back after the run.
struct RequestSpans {
    plan: usize,
    queue_wait_ms: f64,
    batch_form_ms: f64,
    execute_ms: f64,
    /// Requests that shared the executed batch.
    batch: f64,
    /// Summed `timestep` spans of the batch, and its MACs per sample.
    forward_ms: f64,
    macs: f64,
    admit_ms: f64,
    serialize_ms: f64,
    write_ms: f64,
    kernels: KernelTally,
}

fn read_spans(trace: u64, plan: usize) -> Option<RequestSpans> {
    let ev = ttsnn_obs::trace_events(trace);
    let execute = first_span(&ev, "execute")?;
    let ms = |name: &str| span_ns(&ev, name) as f64 / 1e6;
    Some(RequestSpans {
        plan,
        queue_wait_ms: ms("queue_wait"),
        batch_form_ms: ms("batch_form"),
        execute_ms: execute.dur_ns as f64 / 1e6,
        batch: execute.a.max(1) as f64,
        forward_ms: ms("timestep"),
        macs: ev.iter().filter(|e| e.name == "timestep").map(|e| e.b as f64).sum(),
        admit_ms: ms("admit"),
        serialize_ms: ms("serialize"),
        write_ms: ms("write"),
        kernels: KernelTally::of(&ev),
    })
}

/// Evenly spaced subset of at most [`MAX_ANALYSED`] items.
fn spaced<T: Copy>(items: &[T]) -> Vec<T> {
    let step = items.len().div_ceil(MAX_ANALYSED).max(1);
    items.iter().step_by(step).copied().collect()
}

/// Per-layer metrics shared by both serving workloads, from the traced
/// requests' spans. `rtt_ms[i]` is request `i`'s client-side time from
/// hand-over to reply, against which the spans are reconciled.
fn span_metrics(o: &mut Outcome, spans: &[RequestSpans], rtt_ms: &[f64], socket: bool) {
    let p50 = |xs: Vec<f64>| quantile(&xs, 0.5).map_or(0.0, |q| q.value);
    let col = |f: &dyn Fn(&RequestSpans) -> f64| spans.iter().map(f).collect::<Vec<f64>>();
    let waits = col(&|s| s.queue_wait_ms);
    o.set("infer.queue_wait_ms_p50", p50(waits.clone()));
    if let Some(q) = quantile(&waits, 0.99) {
        o.set("infer.queue_wait_ms_p99", q.value);
        o.note("infer.queue_wait_ms_p99", pct_note(&q));
    }
    o.set("infer.batch_form_ms_p50", p50(col(&|s| s.batch_form_ms)));
    for (p, name) in PLANS.iter().enumerate() {
        let ex: Vec<f64> = spans.iter().filter(|s| s.plan == p).map(|s| s.execute_ms).collect();
        o.set(&format!("infer.execute_ms_p50.{name}"), p50(ex));
    }
    let stages = |s: &RequestSpans| s.queue_wait_ms + s.batch_form_ms + s.execute_ms;
    let wire = |s: &RequestSpans| s.admit_ms + s.serialize_ms + s.write_ms;
    let rest: Vec<f64> = spans
        .iter()
        .zip(rtt_ms)
        .map(|(s, rtt)| rtt - stages(s) - if socket { wire(s) } else { 0.0 })
        .collect();
    if socket {
        o.set("serve.admit_ms_p50", p50(col(&|s| s.admit_ms)));
        o.set("serve.serialize_ms_p50", p50(col(&|s| s.serialize_ms)));
        o.set("serve.write_ms_p50", p50(col(&|s| s.write_ms)));
        o.set("serve.unattributed_ms_p50", p50(rest));
    } else {
        o.set("infer.unattributed_ms_p50", p50(rest));
    }
    // Kernels and forward time per request: a batch's work is split
    // evenly among the requests that shared it.
    let n = spans.len() as f64;
    let mut share = KernelShare::default();
    for s in spans {
        share.add(&s.kernels, 1.0 / s.batch / n);
    }
    for (i, k) in KERNELS.iter().enumerate() {
        o.set(&format!("tensor.{k}.calls"), share.calls[i]);
        o.set(&format!("tensor.{k}.ms"), share.ms[i]);
    }
    let execute_per_request = mean(&col(&|s| s.execute_ms / s.batch));
    o.set("tensor.kernel_share", share.top_ms / execute_per_request);
    let forward = mean(&col(&|s| s.forward_ms / s.batch));
    let macs = mean(&col(&|s| s.macs));
    o.set("snn.forward_ms", forward);
    o.set("snn.macs_per_step", macs);
    o.set("snn.fwd_gflops", 2.0 * macs / (forward / 1e3) / 1e9);
    o.note("analysed_requests", Value::Num(n));
}

/// Cluster counters summed over the plans, for deltas across a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Totals {
    batches: f64,
    batched: f64,
    expired: f64,
    rejected: f64,
    /// Mean of the plans' pooled spike densities.
    density: f64,
}

impl Totals {
    /// Read in process from the router's clusters.
    fn of_router(router: &Router) -> Totals {
        let mut t = Totals::default();
        let mut density = Vec::new();
        for (_, m) in router.metrics() {
            t.batches += m.batch_sizes.count() as f64;
            t.batched += m.batch_sizes.sum();
            t.expired += m.totals().expired as f64;
            let tenants = m.tenants.values().chain([&m.tenant_overflow]);
            t.rejected += tenants.map(|s| s.rejected() as f64).sum::<f64>();
            density.extend(m.mean_spike_density);
        }
        t.density = mean(&density);
        t
    }

    /// Read from the server's Prometheus page, the way an operator sees
    /// the same counters.
    fn of_scrape(page: &str) -> Totals {
        let mut t = Totals::default();
        let mut density = Vec::new();
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            let Ok(v) = value.parse::<f64>() else { continue };
            let name = series.split('{').next().unwrap_or(series);
            match name {
                "ttsnn_batch_size_count" => t.batches += v,
                "ttsnn_batch_size_sum" => t.batched += v,
                "ttsnn_mean_spike_density" => density.push(v),
                "ttsnn_tenant_requests_total" if series.contains("state=\"expired\"") => {
                    t.expired += v
                }
                "ttsnn_tenant_requests_total" if series.contains("state=\"rejected_") => {
                    t.rejected += v
                }
                _ => {}
            }
        }
        t.density = mean(&density);
        t
    }

    /// Publishes the deltas since `before`.
    fn publish(self, o: &mut Outcome, before: Totals) {
        let batches = self.batches - before.batches;
        let mean_batch =
            if batches > 0.0 { (self.batched - before.batched) / batches } else { 0.0 };
        o.set("infer.batch_size_mean", mean_batch);
        o.set("infer.expired", self.expired - before.expired);
        o.set("infer.rejected", self.rejected - before.rejected);
        o.set("snn.spike_density", self.density);
    }
}

fn scrape(addr: std::net::SocketAddr) -> Totals {
    match ttsnn_serve::http_get(addr, "/metrics") {
        Ok((200, page)) => Totals::of_scrape(&page),
        other => panic!("GET /metrics failed: {other:?}"),
    }
}

/// One in-process request as the generator saw it.
struct BatchRecord {
    plan: usize,
    /// Submit time, seconds after the window start.
    sent_s: f64,
    /// Submit → reply, ms; infinite for a failed request.
    ms: f64,
    ok: bool,
    trace: u64,
}

/// A closed loop of [`IN_FLIGHT`] requests through the router's
/// sessions, driven from the calling thread: whenever the oldest request
/// replies, its logits are checked and the next request is submitted,
/// until `requests` have been sent. Returns every request and the number
/// of served replies whose logits differed from the reference.
fn drive_batched(
    router: &Router,
    pool: &Pool,
    seed: u64,
    requests: usize,
    traced: bool,
) -> (Vec<BatchRecord>, u64) {
    let mut rng = Rng::seed_from(seed);
    let start = Instant::now();
    let mut pending = VecDeque::with_capacity(IN_FLIGHT);
    let (mut out, mut mismatches, mut sent) = (Vec::new(), 0, 0);
    loop {
        while pending.len() < IN_FLIGHT && sent < requests {
            sent += 1;
            let (plan, input) = (rng.below(PLANS.len()), rng.below(POOL));
            let session = router.session(PLANS[plan]).expect("mounted plan");
            let trace = if traced { ttsnn_obs::next_trace_id() } else { 0 };
            let opts = SubmitOptions::default().with_deadline(DEADLINE).with_trace(trace);
            let t0 = Instant::now();
            let ticket = session.try_submit_with(pool.inputs[input].clone(), opts);
            pending.push_back((plan, input, t0, trace, ticket));
        }
        let Some((plan, input, t0, trace, ticket)) = pending.pop_front() else { break };
        let (ok, served) = match ticket.map(|t| t.wait()) {
            Ok(Ok(logits)) => (bits_match(&pool.refs, plan, input, logits.data()), true),
            Ok(Err(e)) => {
                eprintln!("request failed: {e}");
                (false, false)
            }
            Err(e) => {
                eprintln!("request refused: {e}");
                (false, false)
            }
        };
        mismatches += u64::from(served && !ok);
        let ms = if ok { t0.elapsed().as_secs_f64() * 1e3 } else { f64::INFINITY };
        out.push(BatchRecord { plan, sent_s: (t0 - start).as_secs_f64(), ms, ok, trace });
    }
    (out, mismatches)
}

/// Derives an independent schedule seed for phase `phase` of a run.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Runs `serve-batched`: a warm-up, then `seconds` worth of windows of
/// [`BATCHED_WINDOW`] requests (their length on the development host).
pub fn run_batched(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut log = SetupLog::default();
    let mut keep = |router| router;
    let (router, pool) = log.before(seed, &mut keep);
    let mut o = Outcome::default();
    let warm = WARMUP_WINDOWS * BATCHED_WINDOW;
    let (_, mut mismatches) = drive_batched(&router, &pool, phase_seed(seed, 0), warm, false);
    let (attempted, failed);
    if traced {
        let before = Totals::of_router(&router);
        let phases = Phases::new(seconds);
        let mut off_ms = vec![Vec::new(); phases.pairs()];
        let mut on_ms = vec![Vec::new(); phases.pairs()];
        let mut traced_reqs: Vec<(u64, usize, f64)> = Vec::new();
        let (mut att, mut fail) = (0, 0);
        for (b, (pair, on)) in phases.blocks().enumerate() {
            ttsnn_obs::set_enabled(on);
            let block_seed = phase_seed(seed, 1 + b as u64);
            let n = window_share(BATCHED_WINDOW, phases.block_s());
            let (records, bad) = drive_batched(&router, &pool, block_seed, n, on);
            ttsnn_obs::set_enabled(false);
            mismatches += bad;
            att += records.len() as u64;
            fail += records.iter().filter(|r| !r.ok).count() as u64;
            let lat = records.iter().map(|r| r.ms).collect();
            if on {
                on_ms[pair] = lat;
                let ok = records.iter().filter(|r| r.ok);
                traced_reqs.extend(ok.map(|r| (r.trace, r.plan, r.ms)));
            } else {
                off_ms[pair] = lat;
            }
        }
        Totals::of_router(&router).publish(&mut o, before);
        let mut spans = Vec::new();
        let mut rtt = Vec::new();
        for (t, plan, ms) in spaced(&traced_reqs) {
            if let Some(s) = read_spans(t, plan) {
                spans.push(s);
                rtt.push(ms);
            }
        }
        span_metrics(&mut o, &spans, &rtt, false);
        crate::overhead(&mut o, &off_ms, &on_ms);
        (attempted, failed) = (att, fail);
    } else {
        let drive = |w: usize| {
            let (records, bad) = drive_batched(
                &router,
                &pool,
                phase_seed(seed, 1 + w as u64),
                BATCHED_WINDOW,
                false,
            );
            (records.iter().map(|r| (r.sent_s, r.ms)).collect(), bad)
        };
        let (att, fail, bad) = measure_windows(&mut o, windows(seconds), drive);
        (attempted, failed) = (att, fail);
        mismatches += bad;
    }
    o.note("in_flight", Value::Num(IN_FLIGHT as f64));
    drop(router);
    let repeats = log.after(seed, &mut keep, &mut o);
    finish(&mut o, attempted, failed, mismatches, repeats);
    o
}

/// Windows in the measured phase of a serving run of `seconds`, after
/// its warm-up.
fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).round() as usize).saturating_sub(WARMUP_WINDOWS).max(1)
}

/// The requests of a `window`-request window that fit in `block_s`
/// nominal seconds.
fn window_share(window: usize, block_s: f64) -> usize {
    ((window as f64 * block_s / WINDOW_S).round() as usize).max(1)
}

/// The measured phase of both serving workloads: `windows` windows, each
/// driven by `drive(window)`, which returns every request's `(send time
/// in the window, latency ms)` — infinite for a failed request — and the
/// window's logit mismatches. Between windows, while the router is idle,
/// the host is probed (see `probe`). Publishes the gated latency and
/// throughput metrics; returns the requests attempted, failed and
/// mismatched.
fn measure_windows(
    o: &mut Outcome,
    windows: usize,
    mut drive: impl FnMut(usize) -> (Vec<(f64, f64)>, u64),
) -> (u64, u64, u64) {
    let mut probe = HostProbe::new();
    let mut probe_before = probe.sample();
    let (mut timed, mut scaled) = (Vec::new(), Vec::new());
    let (mut mismatches, mut elapsed_s, mut elapsed_ref_s) = (0, 0.0, 0.0);
    for w in 0..windows {
        let t0 = Instant::now();
        let (requests, bad) = drive(w);
        let elapsed = t0.elapsed().as_secs_f64();
        // Scaled by the mean of the samples on either side.
        let probe_after = probe.sample();
        let host = (probe_before + probe_after) / 2.0;
        probe_before = probe_after;
        timed.extend(requests.iter().map(|&(sent_s, ms)| (sent_s + elapsed_s, ms)));
        scaled.extend(requests.iter().map(|&(_, ms)| to_ref(ms, host)));
        mismatches += bad;
        elapsed_s += elapsed;
        elapsed_ref_s += to_ref(elapsed, host);
    }
    let wall: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
    let tail = windowed_tail(&timed, elapsed_s, TAIL_WINDOWS, 0.99)
        .expect("the measured phase has samples");
    crate::publish_latency(o, &wall, &scaled, tail, probe.times());
    let good = wall.iter().filter(|ms| ms.is_finite()).count();
    o.set("throughput_ref_per_s", good as f64 / elapsed_ref_s);
    o.note("throughput_per_s", Value::Num(good as f64 / elapsed_s));
    (wall.len() as u64, (wall.len() - good) as u64, mismatches)
}

/// One closed-loop client's view of a request.
struct SockRecord {
    plan: usize,
    /// Send time, seconds after the phase start.
    sent_s: f64,
    rtt_ms: f64,
    ok: bool,
    trace: u64,
}

/// [`CONNECTIONS`] closed-loop clients, one request in flight each, that
/// send `requests` requests each. Returns every request and the number
/// of mismatched replies.
fn drive_socket(
    addr: std::net::SocketAddr,
    pool: &Pool,
    seed: u64,
    requests: usize,
) -> (Vec<SockRecord>, u64) {
    let mismatches = AtomicU64::new(0);
    let start = Instant::now();
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mismatches = &mismatches;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the loopback server");
                    let mut rng = Rng::seed_from(phase_seed(seed, 1000 + c as u64));
                    let mut out = Vec::new();
                    for _ in 0..requests {
                        let (plan, input) = (rng.below(PLANS.len()), rng.below(POOL));
                        let req = Request {
                            trace: 0,
                            tenant: 1,
                            priority: Priority::Normal,
                            deadline_ms: DEADLINE.as_millis() as u32,
                            plan: PLANS[plan].into(),
                            input: pool.inputs[input].clone(),
                        };
                        let t0 = Instant::now();
                        let sent_s = (t0 - start).as_secs_f64();
                        let resp = client.request(&req);
                        let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (ok, trace) = match resp {
                            Ok(r) if r.status == Status::Ok => {
                                let ok = bits_match(&pool.refs, plan, input, &r.logits);
                                if !ok {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                                (ok, r.trace)
                            }
                            Ok(r) => {
                                eprintln!("request refused: {:?} {}", r.status, r.message);
                                (false, r.trace)
                            }
                            Err(e) => {
                                eprintln!("request failed: {e}");
                                (false, 0)
                            }
                        };
                        out.push(SockRecord { plan, sent_s, rtt_ms, ok, trace });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    (records, mismatches.into_inner())
}

/// Runs `serve-socket`: a warm-up, then `seconds` worth of windows of
/// [`SOCKET_WINDOW`] requests per connection.
pub fn run_socket(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let config = ServerConfig::default();
    let mut log = SetupLog::default();
    let mut bind = |router| Server::bind(config.clone(), router).expect("bind the loopback server");
    let (server, pool) = log.before(seed, &mut bind);
    let addr = server.addr();
    let mut o = Outcome::default();
    let warm = WARMUP_WINDOWS * SOCKET_WINDOW;
    let (_, mut mismatches) = drive_socket(addr, &pool, phase_seed(seed, 0), warm);
    let (attempted, failed);
    if traced {
        let before = scrape(addr);
        let phases = Phases::new(seconds);
        let mut off_ms = vec![Vec::new(); phases.pairs()];
        let mut on_ms = vec![Vec::new(); phases.pairs()];
        let mut traced_reqs = Vec::new();
        let (mut att, mut fail) = (0, 0);
        for (b, (pair, on)) in phases.blocks().enumerate() {
            ttsnn_obs::set_enabled(on);
            let n = window_share(SOCKET_WINDOW, phases.block_s());
            let (records, bad) = drive_socket(addr, &pool, phase_seed(seed, 1 + b as u64), n);
            ttsnn_obs::set_enabled(false);
            mismatches += bad;
            att += records.len() as u64;
            fail += records.iter().filter(|r| !r.ok).count() as u64;
            let rtt: Vec<f64> = records.iter().map(|r| r.rtt_ms).collect();
            if on {
                on_ms[pair] = rtt;
                traced_reqs.extend(
                    records
                        .iter()
                        .filter(|r| r.ok && r.trace != 0)
                        .map(|r| (r.trace, r.plan, r.rtt_ms)),
                );
            } else {
                off_ms[pair] = rtt;
            }
        }
        // The write span lands a beat after the client has its reply.
        std::thread::sleep(Duration::from_millis(50));
        scrape(addr).publish(&mut o, before);
        let mut spans = Vec::new();
        let mut rtt = Vec::new();
        for (t, plan, ms) in spaced(&traced_reqs) {
            if let Some(s) = read_spans(t, plan) {
                spans.push(s);
                rtt.push(ms);
            }
        }
        span_metrics(&mut o, &spans, &rtt, true);
        crate::overhead(&mut o, &off_ms, &on_ms);
        (attempted, failed) = (att, fail);
    } else {
        let drive = |w: usize| {
            let (records, bad) =
                drive_socket(addr, &pool, phase_seed(seed, 1 + w as u64), SOCKET_WINDOW);
            let ms = |r: &SockRecord| if r.ok { r.rtt_ms } else { f64::INFINITY };
            (records.iter().map(|r| (r.sent_s, ms(r))).collect(), bad)
        };
        let (att, fail, bad) = measure_windows(&mut o, windows(seconds), drive);
        (attempted, failed) = (att, fail);
        mismatches += bad;
    }
    o.note("server_workers", Value::Num(config.workers as f64));
    o.note("connections", Value::Num(CONNECTIONS as f64));
    drop(server);
    let repeats = log.after(seed, &mut bind, &mut o);
    finish(&mut o, attempted, failed, mismatches, repeats);
    o
}

fn finish(o: &mut Outcome, attempted: u64, failed: u64, mismatches: u64, repeats: bool) {
    o.set("success_share", (attempted - failed) as f64 / attempted.max(1) as f64);
    o.correct = mismatches == 0 && repeats;
    o.attempted = attempted;
    o.failed = failed;
    o.note("logit_mismatches", Value::Num(mismatches as f64));
    o.note("references_repeat", Value::Bool(repeats));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_totals_read_the_prometheus_families() {
        let page = "# TYPE ttsnn_batch_size histogram\n\
            ttsnn_batch_size_bucket{plan=\"a\",le=\"1\"} 3\n\
            ttsnn_batch_size_sum{plan=\"a\"} 10\n\
            ttsnn_batch_size_count{plan=\"a\"} 4\n\
            ttsnn_batch_size_sum{plan=\"b\"} 2\n\
            ttsnn_batch_size_count{plan=\"b\"} 1\n\
            ttsnn_tenant_requests_total{plan=\"a\",tenant=\"1\",state=\"expired\"} 2\n\
            ttsnn_tenant_requests_total{plan=\"a\",tenant=\"1\",state=\"rejected_saturated\"} 1\n\
            ttsnn_tenant_requests_total{plan=\"a\",tenant=\"1\",state=\"served\"} 9\n\
            ttsnn_mean_spike_density{plan=\"a\"} 0.25\n\
            ttsnn_mean_spike_density{plan=\"b\"} 0.75\n";
        let t = Totals::of_scrape(page);
        assert_eq!(
            t,
            Totals { batches: 5.0, batched: 12.0, expired: 2.0, rejected: 1.0, density: 0.5 }
        );
    }

    #[test]
    fn batched_loop_checks_every_reply_and_draws_seeded_plans() {
        let (router, pool) = fixture(6);
        let (records, mismatches) = drive_batched(&router, &pool, 1, 40, false);
        assert_eq!((records.len(), mismatches), (40, 0));
        assert!(records.iter().all(|r| r.ok && r.ms.is_finite() && r.trace == 0));
        let (again, _) = drive_batched(&router, &pool, 1, 40, false);
        let plans = |rs: &[BatchRecord]| rs.iter().map(|r| r.plan).collect::<Vec<_>>();
        assert_eq!(plans(&again), plans(&records), "the seed draws the same plans");
    }

    #[test]
    fn windows_count_failures_and_publish_the_gated_metrics() {
        let mut o = Outcome::default();
        let drive = |w: usize| {
            // 40 requests sent evenly over a 100 ms window.
            std::thread::sleep(Duration::from_millis(100));
            let mut v: Vec<(f64, f64)> =
                (0..40).map(|i| (i as f64 * 0.0025, 1.0 + i as f64 * 0.1)).collect();
            if w == 1 {
                v.push((0.5, f64::INFINITY));
            }
            (v, u64::from(w == 1))
        };
        assert_eq!(measure_windows(&mut o, 2, drive), (81, 1, 1));
        for m in ["latency_ref_ms_p50", "latency_ref_ms_p90", "throughput_ref_per_s"] {
            assert!(o.metrics[m].is_finite() && o.metrics[m] > 0.0, "{m}");
        }
        assert!(o.metrics["latency_ref_ms_p50"] < o.metrics["latency_ref_ms_p90"]);
    }

    #[test]
    fn serving_inputs_and_references_are_seeded() {
        let (_, a) = fixture(3);
        let (_, b) = fixture(3);
        assert_eq!(*a.refs, *b.refs);
        assert!(a.inputs.iter().zip(b.inputs.iter()).all(|(x, y)| x.data() == y.data()));
        let (_, c) = fixture(4);
        assert_ne!(*a.refs, *c.refs);
        assert_eq!(a.refs.len(), PLANS.len());
        assert!(a.refs.iter().all(|p| p.len() == POOL));
    }

    #[test]
    fn served_logits_match_the_references_bit_for_bit() {
        let (router, pool) = fixture(5);
        for (p, plan) in PLANS.iter().enumerate() {
            let session = router.session(plan).unwrap();
            for i in [0, 7, POOL - 1] {
                let logits = session.infer(pool.inputs[i].clone()).unwrap();
                assert!(bits_match(&pool.refs, p, i, logits.data()), "plan {plan} input {i}");
            }
        }
    }
}
