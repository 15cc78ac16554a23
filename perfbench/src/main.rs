//! The tpugen benchmark: three closed-loop workloads, each bound by a
//! different layer, measured end to end with tracing off and broken down
//! by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it are the same numbers for people, plus `sim_digest` and,
//! when traced, the path of the Chrome-trace file. The exit code is
//! non-zero if any check fails. See `perfbench/README.md`.

mod decode;
mod design;
mod fleet;
mod run;
mod trace;
mod util;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::{Metric, Run};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["design-sweep", "fleet-global", "llm-decode"];
/// Directory (relative to the working directory) for trace files.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} must be finite and >= 0"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_line(run: &Run, metrics: &[Metric]) -> String {
    let attempted = run.plain.attempted + run.traced.as_ref().map_or(0, |(l, _)| l.attempted);
    let failed = run.plain.failed
        + run.traced.as_ref().map_or(0, |(l, _)| l.failed)
        + u64::from(!run.replay_ok);
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        run.correct()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("  {name:<38} {value:>16.6} {unit}");
    }
}

fn report(args: &Args, run: &Run) -> Result<(), String> {
    let l = &run.plain;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "closed loop, one caller: {} calls, {} {} in {:.3} s",
        l.attempted, l.units, run.unit, l.wall_s
    );
    println!("end to end (tracing off):");
    let e2e = run.end_to_end();
    print_metrics(&e2e);
    println!(
        "  call_tail_ms is p{:.3} of {} calls ({} beyond); setup_s is the median of {} set-ups; \
         units are {}",
        run.tail_percentile(),
        l.attempted,
        util::TAIL_BEYOND,
        run::SETUPS,
        run.unit
    );
    println!(
        "  error_rate {} ({} of {} calls failed)",
        run.error_rate(),
        l.failed,
        l.attempted
    );
    println!("sim_digest {:016x}", l.digest.value());
    if !run.replay_ok {
        println!("FAILED: replaying call 0 did not reproduce its result bit for bit");
    }
    for e in l
        .errors
        .iter()
        .chain(run.traced.iter().flat_map(|(t, _)| &t.errors))
    {
        println!("FAILED: {e}");
    }
    let metrics = match (&run.traced, run.per_layer()) {
        (Some((t, spans)), Some(layers)) => {
            println!(
                "per layer (traced: {} calls, {} spans, {:.3} s):",
                t.attempted,
                spans.len(),
                t.wall_s
            );
            print_metrics(&layers);
            println!(
                "  tracing overhead: {:.3} -> {:.3} {}/s untraced -> traced",
                l.units_per_s(),
                t.units_per_s(),
                run.unit
            );
            let escaping = trace::escaping_children(spans);
            if escaping > 0 {
                println!("FAILED: {escaping} child spans lie outside their parent");
            }
            std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
            let path = format!("{TRACE_DIR}/{}-seed{}.json", args.workload, args.seed);
            std::fs::write(&path, trace::chrome_json(spans)).map_err(|e| format!("{path}: {e}"))?;
            println!("chrome trace: {path}");
            layers
        }
        _ => e2e,
    };
    println!("{}", json_line(run, &metrics));
    Ok(())
}

fn run_workload(args: &Args) -> Result<Run, String> {
    let go = match args.workload.as_str() {
        "design-sweep" => run::run::<design::DesignSweep>,
        "fleet-global" => run::run::<fleet::FleetGlobal>,
        "llm-decode" => run::run::<decode::LlmDecode>,
        w => return Err(format!("unknown workload {w}")),
    };
    go(args.seed, args.seconds, args.trace)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let run = run_workload(&args)?;
        report(&args, &run)?;
        Ok(run.correct())
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::closed_loop;
    use crate::trace::{NoTrace, Spans};
    use crate::workload::Workload;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload llm-decode --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("llm-decode", 7, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload llm-decode")).is_err());
        assert!(parse_args(&args("--workload llm-decode --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload llm-decode --seed")).is_err());
    }

    /// A tiny closed loop, untraced and traced, whose results pass every
    /// check and replay to the same digest.
    fn smoke<W: Workload>(w: &W, calls: usize) {
        let plain = closed_loop(w, &mut NoTrace, 0.0, calls);
        assert_eq!(plain.attempted, calls as u64);
        assert_eq!(plain.failed, 0, "{:?}", plain.errors);
        assert!(plain.units > 0);
        let mut spans = Spans::new();
        let traced = closed_loop(w, &mut spans, 0.0, calls);
        assert_eq!(traced.failed, 0, "{:?}", traced.errors);
        assert_eq!(traced.digest, plain.digest, "tracing changed a result");
        assert!(!spans.spans.is_empty());
        assert_eq!(trace::escaping_children(&spans.spans), 0);
    }

    #[test]
    fn design_sweep_smoke() {
        let w = design::DesignSweep::setup(1).expect("valid");
        smoke(&w, 4);
    }

    #[test]
    fn fleet_global_smoke() {
        smoke(&fleet::FleetGlobal::new(1, 4, 2000.0).expect("valid"), 2);
    }

    #[test]
    fn llm_decode_smoke() {
        smoke(&decode::LlmDecode::new(1, 4, 300).expect("valid"), 3);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = spec
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
                .collect()
        };
        let e2e: Vec<String> = run::END_TO_END
            .iter()
            .map(|(n, _)| (*n).to_owned())
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> =
            run::per_layer(&run::Loop::default(), &Default::default(), 0, 0.0)
                .into_iter()
                .map(|(n, _, _)| n)
                .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads = names("workloads");
        assert_eq!(workloads, WORKLOADS.map(str::to_owned).to_vec());
    }
}
