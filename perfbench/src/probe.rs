//! The host-speed probe: a fixed piece of work that belongs to the
//! benchmark, not to the program, timed between the workload's
//! operations.
//!
//! A shared host slows a core by up to 2× for tenths of a second to
//! minutes at a time (another tenant on the sibling hyperthread, a lower
//! clock). The program and the probe slow down together, so an
//! operation's time divided by the probe time measured next to it
//! cancels the host's regime and keeps the program's own cost. The gated
//! timings are reported in *reference milliseconds* (`ref-ms`): wall
//! milliseconds scaled as if the probe had taken exactly
//! [`REF_PROBE_MS`]. Program changes cannot move the probe, so a faster
//! program reads fewer reference milliseconds; the raw wall times go to
//! the detail line.
//!
//! A tenant slows vector arithmetic, dependent memory loads and the
//! allocator by different amounts, and the workloads mix all three: a
//! dense training step is mostly GEMM, an HTT step and a served request
//! mostly small calls, allocations and bookkeeping. The probe mixes them
//! too, by time about 60 % matrix products, 20 % dependent table lookups
//! and 20 % allocation churn. In trial runs on the development host that
//! mix tracked both training workloads better than matrix products
//! alone (over six 10 s stretches of one 60 s run, the HTT step's
//! scaled median moved by 0.018 of itself instead of 0.034, the dense
//! step's by 0.038 instead of 0.069).

use std::time::Instant;

/// The probe time that defines one reference millisecond: a round number
/// near the probe's time on the two-core development host.
pub const REF_PROBE_MS: f64 = 3.0;
/// Side of the square f32 matrices the probe multiplies: three of them
/// (108 KiB) sit in L2, like the program's GEMM operands.
const N: usize = 96;
/// Matrix products per probe run (about 1.8 ms of it).
const REPS: usize = 18;
/// Where the three matrices start, in f32s from a 4 KiB boundary. A
/// loop's speed can depend on where its operands sit relative to 4 KiB
/// pages (a 96×96 f32 matrix is exactly nine of them, so back-to-back
/// matrices would share every page offset); fixed offsets make every
/// process time the same layout.
const OFFSETS: [usize; 3] = [0, N * N + 272, 2 * N * N + 560];
/// f32s in a 4 KiB page.
const PAGE: usize = 1024;
/// Entries of the lookup table (256 KiB of u32).
const TABLE: usize = 1 << 16;
/// Dependent lookups per probe run (about 0.6 ms).
const LOOKUPS: usize = 60_000;
/// Allocations per probe run (about 0.6 ms).
const ALLOCS: usize = 3_000;
/// Probe runs per [`HostProbe::sample`].
const SAMPLE_RUNS: usize = 2;

/// Timed, fixed work: matrix products, table lookups, allocations.
pub struct HostProbe {
    /// The three matrices at [`OFFSETS`] from `base`.
    buf: Vec<f32>,
    /// The first 4 KiB boundary in `buf`.
    base: usize,
    table: Vec<u32>,
    /// Every probe time taken, in ms.
    times: Vec<f64>,
}

impl HostProbe {
    /// Fixed operands; the first run warms the caches and is not kept.
    pub fn new() -> HostProbe {
        let mut buf = vec![0.0f32; OFFSETS[2] + N * N + PAGE];
        let addr = buf.as_ptr() as usize;
        let base = (addr.next_multiple_of(4 * PAGE) - addr) / 4;
        for i in 0..N * N {
            buf[base + OFFSETS[0] + i] = (i % 7) as f32 * 0.125;
            buf[base + OFFSETS[1] + i] = (i % 5) as f32 * 0.25;
        }
        let table = (0..TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut p = HostProbe { buf, base, table, times: Vec::new() };
        p.work();
        p
    }

    /// The product matrix, `REPS` times A·B after a run.
    #[cfg(test)]
    fn c(&self) -> &[f32] {
        let at = self.base + OFFSETS[2];
        &self.buf[at..at + N * N]
    }

    /// One probe's work. Returns the end of the lookup chain and the
    /// bytes still held at the end of the allocation churn, so that
    /// neither is optimized away and tests can check they repeat.
    fn work(&mut self) -> (u32, usize) {
        let (ab, c) = self.buf[self.base..].split_at_mut(OFFSETS[2]);
        let (a, b) = (&ab[OFFSETS[0]..OFFSETS[0] + N * N], &ab[OFFSETS[1]..OFFSETS[1] + N * N]);
        let c = &mut c[..N * N];
        c.fill(0.0);
        for _ in 0..REPS {
            for i in 0..N {
                let row = &mut c[i * N..(i + 1) * N];
                for k in 0..N {
                    let x = a[i * N + k];
                    for (c, b) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *c += x * b;
                    }
                }
            }
        }
        std::hint::black_box(c);
        // Each lookup's index depends on the previous value read.
        let mut x = 12_345u32;
        for _ in 0..LOOKUPS {
            x = x.rotate_left(5) ^ self.table[x as usize % TABLE].wrapping_add(x);
        }
        // Buffers of varied sizes, a third of them held for a while.
        let mut held: Vec<Vec<f32>> = Vec::with_capacity(65);
        for i in 0..ALLOCS {
            let v = vec![i as f32; 16 + (i * 37) % 2000];
            if i % 3 == 0 {
                held.push(v);
            }
            if held.len() > 64 {
                held.clear();
            }
        }
        let bytes = held.iter().map(|v| 4 * v.len()).sum();
        std::hint::black_box((x, bytes))
    }

    /// One probe run, in ms.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        self.work();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.times.push(ms);
        ms
    }

    /// The median of [`SAMPLE_RUNS`] probe runs, in ms: the host's speed
    /// between two windows of a workload.
    pub fn sample(&mut self) -> f64 {
        let runs: Vec<f64> = (0..SAMPLE_RUNS).map(|_| self.time()).collect();
        crate::stats::median(&runs)
    }

    /// Every probe time taken so far, in ms.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Wall milliseconds taken while the probe read `probe_ms`, in reference
/// milliseconds.
pub fn to_ref(ms: f64, probe_ms: f64) -> f64 {
    ms * REF_PROBE_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_the_same_work_every_run() {
        let mut p = HostProbe::new();
        let first = p.c().to_vec();
        let ends = p.work();
        assert_eq!(p.work(), ends, "the lookup chain and the churn repeat");
        assert!(p.time() > 0.0 && p.sample() > 0.0);
        assert_eq!(p.c(), first, "the product restarts from zero each run");
        assert_eq!(p.times().len(), 1 + SAMPLE_RUNS);
        assert_eq!((p.buf.as_ptr() as usize + 4 * p.base) % (4 * PAGE), 0);
        // c[0][0] = REPS * sum_k a[0][k] * b[k][0], all exact in f32.
        let want: f32 = (0..N).map(|k| (k % 7) as f32 * 0.125 * ((k * N) % 5) as f32 * 0.25).sum();
        assert_eq!(p.c()[0], want * REPS as f32);
    }

    #[test]
    fn reference_time_scales_with_the_probe() {
        assert_eq!(to_ref(100.0, REF_PROBE_MS), 100.0);
        // A host running 25 % slow stretches both; the ratio is kept.
        assert_eq!(to_ref(125.0, REF_PROBE_MS * 1.25), 100.0);
    }
}
