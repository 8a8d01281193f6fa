//! End-to-end and per-layer benchmark of the cpsmon workspace.
//!
//! ```text
//! cpsmon-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Workloads (each chosen to load a different set of layers):
//!
//! - `serve_engine` — 1000 Glucosym sessions streamed, one fleet step at a
//!   time, through the serving stack `cpsmon serve --shards 2` runs, in
//!   process: frame decode, two shards, verdict encode ([`serve`]).
//! - `screen_cohort` — a 1000-member T1DS cohort stepped through 24 h,
//!   every member streamed into a guarded, mitigated stateful-LSTM pool
//!   ([`cohort`]).
//! - `robustness_sweep` — the paper's σ×ε grid over four monitors trained
//!   from scratch on a Glucosym campaign ([`sweep`]).
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a traced run and
//! the spans are written under `--out`. Every output is checked; a failed
//! check prints `"correct": false` and exits 1.
//!
//! Every workload reports every end-to-end metric; a verdict is one
//! monitor classification:
//!
//! | metric | `serve_engine` | `screen_cohort` | `robustness_sweep` |
//! |---|---|---|---|
//! | `setup_s` | fleet simulated, MLP trained | LSTM trained, cohort sampled | campaign simulated, dataset built |
//! | `peak_rss_mb` | harness `VmHWM` | harness `VmHWM` | harness `VmHWM` |
//! | `verdict_p50_ms`, `verdict_p99_ms` | one fleet step (decode, offer, tick and encode 1000 records), median per step over passes | one cohort step (simulate, push, classify 1000 members), median per step over passes | one heat-map column (a strength scored on all four monitors), median per column over passes |
//! | `verdicts_per_s` | verdicts per second of a pass's step times | member-steps per second | perturbed rows classified per second of a whole pass, training included |
//!
//! Per-layer metrics of a layer the workload never calls read 0.

mod cohort;
mod ledger;
mod machine;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("verdicts_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.shard.offer_ns", "ns"),
    ("serve.shard.tick_p50_ms", "ms"),
    ("serve.shard.tick_p99_ms", "ms"),
    ("serve.shard.rows_per_tick", "rows"),
    ("serve.shard.ticks", "count"),
    ("core.stream.pool_drain_p50_ms", "ms"),
    ("core.stream.pool_drain_p99_ms", "ms"),
    ("core.stream.pool_drain_share", "ratio"),
    ("nn.lstm.step_gflops", "GFLOP/s"),
    ("sim.cohort.advance_self_ms", "ms"),
    ("core.stream.pool_push_ms", "ms"),
    ("sim.cohort.sample_s", "s"),
    ("screen.alarms", "count"),
    ("core.pipeline.actions", "count"),
    ("sim.campaign.run_s", "s"),
    ("core.dataset.build_s", "s"),
    ("core.train.mlp_s", "s"),
    ("core.train.lstm_s", "s"),
    ("core.train.mlp_custom_s", "s"),
    ("core.train.lstm_custom_s", "s"),
    ("core.train.rows_per_s", "1/s"),
    ("nn.predict.mlp_s", "s"),
    ("nn.predict.lstm_s", "s"),
    ("nn.lstm.predict_gflops", "GFLOP/s"),
    ("attack.sweep.grad_sign_s", "s"),
    ("attack.sweep.unit_noise_s", "s"),
    ("attack.sweep.materialize_s", "s"),
    ("core.robustness.error_s", "s"),
    ("machine.fma_peak_gflops", "GFLOP/s"),
    ("par.threads", "count"),
    ("simd.backend", "f64_lanes"),
    ("par.speedup.screen_cohort", "x"),
    ("par.speedup.robustness_sweep", "x"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_share", "ratio"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for spans and scratch files.
    pub out: PathBuf,
}

const USAGE: &str = "usage: cpsmon-perfbench --workload serve_engine|screen_cohort|\
robustness_sweep --seed N --seconds S --trace 0|1 [--out DIR]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: Duration::ZERO,
            trace: false,
            out: PathBuf::from("perfbench/out"),
        };
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&s| (1..=600).contains(&s))
                            .ok_or_else(|| bad("a whole number of seconds in 1..=600"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = Duration::from_secs(seconds.ok_or("--seconds is required")?);
        args.trace = trace.ok_or("--trace is required")?;
        Ok(args)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(report: &Report, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let mut report = match args.workload.as_str() {
        "serve_engine" => serve::run(args)?,
        "screen_cohort" => cohort::run(args)?,
        "robustness_sweep" => sweep::run(args)?,
        other => return Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    if args.trace {
        let threads = cpsmon_nn::par::max_threads();
        report.set(
            "machine.fma_peak_gflops",
            machine::fma_peak_gflops(threads, Duration::from_millis(300)),
        );
        report.set("par.threads", threads as f64);
        report.set(
            "simd.backend",
            cpsmon_nn::simd::backend().f64_lanes() as f64,
        );
    } else if let Some(missing) = END_TO_END
        .iter()
        .find(|(n, _)| !report.metrics.contains_key(n))
    {
        return Err(format!("workload did not measure {}", missing.0));
    }
    Ok(report)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in names {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {v:>14.6} {unit}");
    }
    println!(
        "{:<34} attempted={} failed={} correct={}",
        args.workload, report.attempted, report.failed, report.correct
    );
    println!("{}", machine::Stamp::read().to_json());
    match result_json(&report, names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = result_json(&r, &[("setup_s", "s"), ("peak_rss_mb", "MB")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}}}"
        );
        r.set("setup_s", f64::NAN);
        assert!(result_json(&r, &[("setup_s", "s")]).is_err());
    }

    #[test]
    fn args_require_the_contract_flags() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_engine --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 10, true));
        assert!(parse("--workload x --seed 7 --seconds 10").is_err());
        assert!(parse("--workload x --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed -1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 2").is_err());
    }
}
