//! Reading the program's trace events: kernel regions and stage spans.
//!
//! The benchmark installs a `TraceContext` (training) or a per-request
//! trace id (serving); the kernels' existing `ttsnn_obs::region` hooks
//! and the serving stack's stage spans then land in the trace, and the
//! functions here fold them into per-layer numbers.

use ttsnn_obs::Event;

/// Every kernel region the tensor crate opens, in report order.
pub const KERNELS: [&str; 8] = [
    "conv2d",
    "gemm",
    "gemm_at_b",
    "gemm_a_bt",
    "qconv2d",
    "qgemm",
    "sparse_conv2d",
    "sparse_linear",
];

/// Kernel-region totals over a set of events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTally {
    /// Calls per kernel, indexed like [`KERNELS`].
    pub calls: [u64; 8],
    /// Nanoseconds per kernel (nested regions included in their own row).
    pub ns: [u64; 8],
    /// Nanoseconds inside top-level regions only — a region nested in
    /// another (a `gemm` inside a `conv2d`) is not counted twice.
    pub top_ns: u64,
}

impl KernelTally {
    /// Tallies the kernel regions among `events`. Regions must come from
    /// one thread, so that they nest properly; with one kernel thread
    /// every region of a traced call runs on the caller.
    pub fn of(events: &[Event]) -> KernelTally {
        let mut regions: Vec<(usize, &Event)> = events
            .iter()
            .filter_map(|e| KERNELS.iter().position(|&k| k == e.name).map(|i| (i, e)))
            .collect();
        regions.sort_by_key(|(_, e)| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut t = KernelTally::default();
        let mut top_end = 0u64;
        for (i, e) in regions {
            t.calls[i] += 1;
            t.ns[i] += e.dur_ns;
            if e.start_ns >= top_end {
                t.top_ns += e.dur_ns;
                top_end = e.start_ns + e.dur_ns;
            }
        }
        t
    }
}

/// Fractional kernel totals (calls and milliseconds), for per-request
/// shares of batched work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelShare {
    /// Calls per kernel.
    pub calls: [f64; 8],
    /// Milliseconds per kernel.
    pub ms: [f64; 8],
    /// Milliseconds inside top-level regions.
    pub top_ms: f64,
}

impl KernelShare {
    /// Adds `tally` scaled by `weight` (a request's share of the batch
    /// whose kernels it rode in, or 1 for a training step).
    pub fn add(&mut self, tally: &KernelTally, weight: f64) {
        for i in 0..KERNELS.len() {
            self.calls[i] += tally.calls[i] as f64 * weight;
            self.ms[i] += tally.ns[i] as f64 * weight / 1e6;
        }
        self.top_ms += tally.top_ns as f64 * weight / 1e6;
    }
}

/// Total duration (ns) of the spans named `name`.
pub fn span_ns(events: &[Event], name: &str) -> u64 {
    events.iter().filter(|e| e.name == name).map(|e| e.dur_ns).sum()
}

/// The first span named `name`, if any.
pub fn first_span<'a>(events: &'a [Event], name: &str) -> Option<&'a Event> {
    events.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_obs::EventKind;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64) -> Event {
        Event { trace: 1, name, kind: EventKind::Span, start_ns, dur_ns, a: 0, b: 0 }
    }

    #[test]
    fn nested_regions_count_once_in_the_top_level_share() {
        let events = [
            span("conv2d", 100, 50),
            span("gemm", 110, 30),        // inside the conv
            span("gemm", 200, 10),        // top level on its own
            span("snn.forward", 90, 200), // not a kernel
        ];
        let t = KernelTally::of(&events);
        assert_eq!(t.calls[0], 1);
        assert_eq!(t.calls[1], 2);
        assert_eq!(t.ns[1], 40);
        assert_eq!(t.top_ns, 60);
        assert_eq!(span_ns(&events, "snn.forward"), 200);
    }
}
