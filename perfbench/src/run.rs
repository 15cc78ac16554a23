//! The closed-loop runner: repeated set-up, a timed loop with checks
//! outside each call's timing, a determinism replay, and the metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::{self, NoTrace, SelfTime, Span, Spans, Tracer};
use crate::util::{median, peak_rss_bytes, tail, Digest};
use crate::workload::{Counters, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Failure messages printed per run.
const SHOWN_ERRORS: usize = 5;

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The spans the workloads record, in layer order.
pub const SPANS: [&str; 7] = [
    "sweep.point",
    "workloads.build",
    "hlo.compile",
    "sim.run",
    "isa.encode",
    "serving.global",
    "serving.gen",
];

/// How a work-counter metric is derived. The counter a workload adds
/// has the metric's name unless given.
enum Derive {
    /// Counter total per span of the named layer.
    PerCall(&'static str),
    /// Largest value seen in one call.
    Max,
    /// The named span's self time in ns per unit of the named counter.
    NsPer(&'static str, &'static str),
}

/// Work-counter metrics: name, unit, derivation.
const LAYER_COUNTERS: [(&str, &str, Derive); 31] = {
    use Derive::{Max, NsPer, PerCall};
    const G: &str = "serving.global";
    [
        ("hlo.nodes_in", "count", PerCall("hlo.compile")),
        ("hlo.nodes_out", "count", PerCall("hlo.compile")),
        ("hlo.passes_applied", "count", PerCall("hlo.compile")),
        ("hlo.pass_sweeps", "count", PerCall("hlo.compile")),
        (
            "hlo.ns_per_node",
            "ns",
            NsPer("hlo.compile", "hlo.nodes_in"),
        ),
        ("hlo.plan_steps", "count", PerCall("hlo.compile")),
        ("sim.steps", "count", PerCall("sim.run")),
        ("sim.ns_per_step", "ns", NsPer("sim.run", "sim.steps")),
        ("sim.flops", "count", PerCall("sim.run")),
        ("sim.hbm_bytes", "B", PerCall("sim.run")),
        ("workloads.nodes", "count", PerCall("workloads.build")),
        ("isa.bundles", "count", PerCall("isa.encode")),
        ("isa.bytes", "B", PerCall("isa.encode")),
        (
            "isa.ns_per_bundle",
            "ns",
            NsPer("isa.encode", "isa.bundles"),
        ),
        ("serving.des.events", "count", PerCall(G)),
        (
            "serving.des.ns_per_event",
            "ns",
            NsPer(G, "serving.des.events"),
        ),
        ("serving.des.retries", "count", PerCall(G)),
        ("serving.des.failover_redistributed", "count", PerCall(G)),
        ("serving.des.shed", "count", PerCall(G)),
        ("serving.des.dropped", "count", PerCall(G)),
        ("serving.des.failed", "count", PerCall(G)),
        ("serving.fleet.redirected", "count", PerCall(G)),
        ("serving.fleet.lb_shed", "count", PerCall(G)),
        ("serving.fleet.autoscaler_actions", "count", PerCall(G)),
        ("serving.fleet.server_epochs", "count", PerCall(G)),
        ("serving.gen.events", "count", PerCall("serving.gen")),
        (
            "serving.gen.ns_per_event",
            "ns",
            NsPer("serving.gen", "serving.gen.events"),
        ),
        ("serving.gen.decode_steps", "count", PerCall("serving.gen")),
        (
            "serving.gen.ns_per_token",
            "ns",
            NsPer("serving.gen", "serving.gen.tokens"),
        ),
        ("serving.gen.kv_deferrals", "count", PerCall("serving.gen")),
        ("serving.gen.kv_peak_bytes", "B", Max),
    ]
};

/// The end-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    /// Host seconds of each call.
    pub call_s: Vec<f64>,
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Digest of the first `min_calls` results.
    pub digest: Digest,
    /// Digest of the first result, for the replay check.
    pub first: Option<Digest>,
    pub max_requests: u64,
    pub counters: Counters,
    pub wall_s: f64,
}

impl Loop {
    /// Work per host second of calls.
    pub fn units_per_s(&self) -> f64 {
        ratio(self.units as f64, self.call_s.iter().sum())
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < SHOWN_ERRORS {
            self.errors.push(what);
        }
    }
}

fn digest_of<W: Workload>(out: &W::Output) -> Digest {
    let mut d = Digest::default();
    W::digest(out, &mut d);
    d
}

/// Runs calls back to back for `seconds` and at least `min_calls` calls,
/// timing each call alone and checking its result outside that time.
/// The digest covers the first `min_calls` results.
pub fn closed_loop<W: Workload, T: Tracer>(
    w: &W,
    t: &mut T,
    seconds: f64,
    min_calls: usize,
) -> Loop {
    let inputs = w.inputs();
    let mut l = Loop::default();
    let start = Instant::now();
    let mut i = 0;
    while i < min_calls || start.elapsed().as_secs_f64() < seconds {
        let input = &inputs[i % inputs.len()];
        let t0 = Instant::now();
        let out = w.call(input, t);
        l.call_s.push(t0.elapsed().as_secs_f64());
        l.attempted += 1;
        match out.and_then(|o| w.check(input, &o).map(|()| o)) {
            Ok(o) => {
                l.units += W::units(&o);
                l.max_requests = l.max_requests.max(W::requests(&o));
                W::count(&o, &mut l.counters);
                if i < min_calls {
                    W::digest(&o, &mut l.digest);
                }
                if i == 0 {
                    l.first = Some(digest_of::<W>(&o));
                }
            }
            Err(e) => l.fail(format!("call {i}: {e}")),
        }
        i += 1;
    }
    l.wall_s = start.elapsed().as_secs_f64();
    l
}

/// Everything one run of a workload produced.
#[derive(Debug)]
pub struct Run {
    pub setup_s: f64,
    pub plain: Loop,
    pub peak_rss_bytes: u64,
    /// Peak-RSS growth over the timed loop.
    pub rss_growth_bytes: u64,
    pub replay_ok: bool,
    pub traced: Option<(Loop, Vec<Span>)>,
    pub unit: &'static str,
}

/// Sets the workload up [`SETUPS`] times, runs the untraced loop, replays
/// the first call, and, if `trace`, runs the traced loop on the same
/// inputs. A traced run splits `seconds` evenly between its two loops,
/// so every run measures for `seconds` in all.
///
/// # Errors
///
/// A set-up failure or an unreadable peak RSS.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(W::setup(seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let w = w.expect("SETUPS > 0");
    let rss_before = peak_rss_bytes()?;
    let loop_s = if trace { seconds / 2.0 } else { seconds };
    let plain = closed_loop(&w, &mut NoTrace, loop_s, W::MIN_CALLS);
    let peak_rss_bytes = peak_rss_bytes()?;

    let first = &w.inputs()[0];
    let replay = w.call(first, &mut NoTrace).ok().map(|o| digest_of::<W>(&o));
    let replay_ok = replay.is_some() && replay == plain.first;

    let traced = trace.then(|| {
        let mut spans = Spans::new();
        let l = closed_loop(&w, &mut spans, loop_s, W::MIN_CALLS);
        (l, spans.spans)
    });
    Ok(Run {
        setup_s: median(&setup_s),
        peak_rss_bytes,
        rss_growth_bytes: peak_rss_bytes.saturating_sub(rss_before),
        replay_ok,
        plain,
        traced,
        unit: W::UNIT,
    })
}

impl Run {
    pub fn correct(&self) -> bool {
        let nested = self
            .traced
            .as_ref()
            .is_none_or(|(_, spans)| trace::escaping_children(spans) == 0);
        self.plain.failed == 0
            && self.traced.as_ref().is_none_or(|(l, _)| l.failed == 0)
            && self.replay_ok
            && nested
    }

    /// The end-to-end metrics, measured with tracing off. `success_rate`
    /// is `1 - error_rate`, so the metric is never zero.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let l = &self.plain;
        let ms: Vec<f64> = l.call_s.iter().map(|s| s * 1e3).collect();
        let (tail_ms, _) = tail(&ms).expect("MIN_CALLS > TAIL_BEYOND");
        let values = [
            self.setup_s,
            l.units_per_s(),
            median(&ms),
            tail_ms,
            self.peak_rss_bytes as f64 / 1e6,
            1.0 - self.error_rate(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
            .collect()
    }

    pub fn error_rate(&self) -> f64 {
        self.plain.failed as f64 / self.plain.attempted as f64
    }

    /// The percentile `call_tail_ms` reports.
    pub fn tail_percentile(&self) -> f64 {
        tail(&self.plain.call_s).map_or(f64::NAN, |(_, p)| p)
    }

    /// The per-layer metrics of the traced loop (every name, zero for
    /// layers the workload does not call).
    pub fn per_layer(&self) -> Option<Vec<Metric>> {
        let (l, spans) = self.traced.as_ref()?;
        Some(per_layer(
            l,
            &trace::self_times(spans),
            self.rss_growth_bytes,
            self.plain.units_per_s(),
        ))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from a traced loop's self times and
/// counters. `rss_growth_bytes` and `plain_units_per_s` come from the
/// untraced loop of the same run.
pub fn per_layer(
    l: &Loop,
    times: &BTreeMap<&'static str, SelfTime>,
    rss_growth_bytes: u64,
    plain_units_per_s: f64,
) -> Vec<Metric> {
    let time = |s: &str| times.get(s).copied().unwrap_or_default();
    let sum = |c: &str| l.counters.sums.get(c).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    for s in SPANS {
        let t = time(s);
        let (count, self_ms) = (t.count as f64, t.self_ns as f64 / 1e6);
        out.push((format!("{s}.count"), count, "count"));
        out.push((format!("{s}.self_ms"), self_ms, "ms"));
        out.push((
            format!("{s}.share"),
            ratio(self_ms / 1e3, l.wall_s),
            "ratio",
        ));
    }
    for (name, unit, how) in &LAYER_COUNTERS {
        let v = match *how {
            Derive::PerCall(s) => ratio(sum(name), time(s).count as f64),
            Derive::Max => l.counters.maxes.get(name).copied().unwrap_or(0.0),
            Derive::NsPer(s, c) => ratio(time(s).self_ns as f64, sum(c)),
        };
        out.push((name.to_string(), v, *unit));
    }
    out.push((
        "serving.bytes_per_request".into(),
        ratio(rss_growth_bytes as f64, l.max_requests as f64),
        "B",
    ));
    let overhead = plain_units_per_s - l.units_per_s();
    out.push(("trace.overhead_units_per_s".into(), overhead, "1/s"));
    out.push((
        "trace.overhead_share".into(),
        ratio(overhead, plain_units_per_s),
        "ratio",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_complete() {
        let m = per_layer(&Loop::default(), &BTreeMap::new(), 0, 0.0);
        let mut names: Vec<_> = m.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names.len(), 3 * SPANS.len() + 31 + 3);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.len());
        // Absent layers read zero, never NaN.
        assert!(m.iter().all(|(_, v, _)| *v == 0.0));
    }
}
