//! `cpsmon` — the one experiment CLI.
//!
//! Replaces the former 15 per-figure binaries with a registry-driven
//! interface over one shared, cache-aware context:
//!
//! ```sh
//! cpsmon list                 # all registered experiments
//! cpsmon run table3 fig8_fgsm # run selected experiments
//! cpsmon run-all              # every experiment on one shared context
//! ```
//!
//! Scale is `--scale quick|full` (default: `CPSMON_SCALE`, then quick).
//! Tables are written as CSVs under `results/`: `<name>.csv` at full
//! scale and `<name>_quick.csv` at quick scale (multi-table experiments
//! add `_<i>`), so a quick run never overwrites a full-scale table.
//! Trained monitors are served from the bundle cache under
//! `results/cache/` — the first run trains and persists, later runs load
//! in milliseconds with bit-identical predictions. `CPSMON_CACHE=0`
//! forces retraining; `CPSMON_CACHE_DIR` relocates the cache.

use std::path::PathBuf;
use std::time::Duration;

use cpsmon_bench::{registry, BenchError, Context, Scale};
use cpsmon_core::{MonitorBundle, MonitorKind};
use cpsmon_serve::{ChaosPlan, Daemon, ReplayConfig, ServeConfig, ServingBundle};
use cpsmon_sim::SimulatorKind;

const USAGE: &str = "\
Usage: cpsmon <COMMAND> [OPTIONS]

Commands:
  list                 List all registered experiments
  run <NAME>...        Run the named experiments on one shared context
  run-all              Run every registered experiment
  bundle <OUT>         Train (or load cached) a monitor and save it as a bundle
  serve <BUNDLE>       Run the monitor-fleet daemon until SIGINT/SIGTERM
  replay <ADDR>        Stream a simulated patient fleet at a running daemon

Options:
  --scale quick|full   Experiment scale (default: CPSMON_SCALE, then quick)
  -h, --help           Show this help

Bundle options:
  --monitor KIND       rule-based|mlp|lstm|mlp-custom|lstm-custom (default: mlp)
  --sim KIND           glucosym|t1ds2013 (default: glucosym)

Serve options:
  --addr HOST:PORT     Ingest listener (default: 127.0.0.1:9090)
  --admin HOST:PORT    Admin HTTP listener (default: 127.0.0.1:9091, 'off' disables)
  --shards N           Session shards (default: 4)
  --verdict-log PATH   Write the sorted verdict CSV here at shutdown

Replay options:
  --patients N         Simulated patients (default: 8)
  --steps N            Steps per patient (default: 96)
  --seed S             Campaign seed (default: 2022)
  --chaos PLAN         clean|light|storm|hostile transport chaos (default: clean)

Environment:
  CPSMON_SCALE         Default scale (quick|full)
  CPSMON_CACHE         Set to 0 to force retraining (default: cache enabled)
  CPSMON_CACHE_DIR     Bundle cache directory (default: results/cache/)
  CPSMON_THREADS       Worker threads for the data-parallel layer
  CPSMON_SIMD          Set to 0 to force scalar kernels";

fn main() {
    match run() {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
        Err(CliError::Bench(e)) => {
            eprintln!("error: {e}");
            let mut source = std::error::Error::source(&e);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            std::process::exit(1);
        }
        Err(CliError::Serve(e)) => {
            eprintln!("error: {e}");
            let mut source = e.source();
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            std::process::exit(1);
        }
    }
}

enum CliError {
    Usage(String),
    Bench(BenchError),
    Serve(Box<dyn std::error::Error>),
}

impl From<BenchError> for CliError {
    fn from(e: BenchError) -> Self {
        CliError::Bench(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Serve(Box::new(e))
    }
}

/// The registered experiment closest to `name` by edit distance, if it is
/// close enough to plausibly be a typo (distance ≤ 1 + len/3).
fn closest_experiment(name: &str) -> Option<&'static str> {
    registry::REGISTRY
        .iter()
        .map(|e| (levenshtein(name, e.name()), e.name()))
        .min()
        .filter(|&(d, _)| d <= 1 + name.len() / 3)
        .map(|(_, n)| n)
}

/// Plain O(len(a)·len(b)) Levenshtein distance — the registry has 15
/// short names, so simplicity beats cleverness.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// Parses `--flag value` pairs after the positional argument, routing each
/// pair through `set`. Shared by the serve-family subcommands, which all
/// follow `cpsmon <cmd> <POSITIONAL> [--flag value]...`.
fn parse_flags(
    args: &[String],
    mut set: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), CliError> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} expects a value")))?;
        set(flag, value).map_err(CliError::Usage)?;
    }
    Ok(())
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects an integer, got '{value}'"))
}

/// `cpsmon bundle <OUT>`: materializes a cache-aware trained monitor as a
/// standalone bundle file the daemon can serve and hot-reload.
fn cmd_bundle(out: &str, rest: &[String], mut scale: Scale) -> Result<(), CliError> {
    let mut monitor = MonitorKind::Mlp;
    let mut sim = SimulatorKind::Glucosym;
    parse_flags(rest, |flag, value| match flag {
        "--scale" => {
            scale = match value {
                "quick" => Scale::Quick,
                "full" => Scale::Full,
                _ => return Err(format!("--scale expects quick|full, got '{value}'")),
            };
            Ok(())
        }
        "--monitor" => {
            monitor = MonitorKind::from_tag(value)
                .ok_or_else(|| format!("unknown monitor kind '{value}'"))?;
            Ok(())
        }
        "--sim" => {
            sim = match value {
                "glucosym" => SimulatorKind::Glucosym,
                "t1ds2013" => SimulatorKind::T1ds2013,
                _ => return Err(format!("unknown simulator '{value}'")),
            };
            Ok(())
        }
        other => Err(format!("unexpected argument '{other}'")),
    })?;
    let ctx = Context::load_or_build(scale)?;
    let sc = ctx.sim(sim);
    let bundle = MonitorBundle::new(sc.expect_monitor(monitor).clone(), &sc.ds, &sc.train_config);
    let path = PathBuf::from(out);
    bundle.save_to_path(&path)?;
    eprintln!(
        "[cpsmon] wrote {} bundle (fingerprint {:016x}) to {}",
        monitor.tag(),
        bundle.fingerprint,
        path.display()
    );
    Ok(())
}

/// `cpsmon serve <BUNDLE>`: the monitor-fleet daemon. Blocks until
/// SIGINT/SIGTERM, then drains and writes the verdict log.
fn cmd_serve(bundle_path: &str, rest: &[String]) -> Result<(), CliError> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:9090".to_string(),
        admin_addr: Some("127.0.0.1:9091".to_string()),
        ..ServeConfig::default()
    };
    parse_flags(rest, |flag, value| match flag {
        "--addr" => {
            config.addr = value.to_string();
            Ok(())
        }
        "--admin" => {
            config.admin_addr = (value != "off").then(|| value.to_string());
            Ok(())
        }
        "--shards" => {
            config.shards = parse_usize(flag, value)?.max(1);
            Ok(())
        }
        "--verdict-log" => {
            config.verdict_log = Some(PathBuf::from(value));
            Ok(())
        }
        other => Err(format!("unexpected argument '{other}'")),
    })?;
    let file = std::fs::File::open(bundle_path)?;
    let bundle = MonitorBundle::load(&mut std::io::BufReader::new(file))
        .map_err(|e| CliError::Serve(Box::new(e)))?;
    eprintln!(
        "[cpsmon] serving {} bundle (fingerprint {:016x})",
        bundle.monitor.kind.tag(),
        bundle.fingerprint
    );
    cpsmon_serve::daemon::install_signal_handlers();
    let daemon = Daemon::start(config, ServingBundle::new(bundle))?;
    eprintln!("[cpsmon] ingest on {}", daemon.addr());
    if let Some(admin) = daemon.admin_addr() {
        eprintln!("[cpsmon] admin on http://{admin}");
    }
    daemon.run_until_signalled()?;
    eprintln!("[cpsmon] shut down cleanly");
    Ok(())
}

/// `cpsmon replay <ADDR>`: streams a deterministic simulated fleet at a
/// running daemon and reports what came back.
fn cmd_replay(addr: &str, rest: &[String]) -> Result<(), CliError> {
    let mut config = ReplayConfig {
        addr: addr.to_string(),
        ..ReplayConfig::default()
    };
    parse_flags(rest, |flag, value| match flag {
        "--patients" => {
            config.patients = parse_usize(flag, value)?;
            Ok(())
        }
        "--steps" => {
            config.steps = parse_usize(flag, value)?;
            Ok(())
        }
        "--seed" => {
            config.seed = value
                .parse()
                .map_err(|_| format!("--seed expects an integer, got '{value}'"))?;
            Ok(())
        }
        "--chaos" => {
            config.chaos = match value {
                "clean" => None,
                "light" => Some(ChaosPlan::light(config.seed)),
                "storm" => Some(ChaosPlan::storm(config.seed)),
                "hostile" => Some(ChaosPlan::hostile(config.seed)),
                _ => return Err(format!("unknown chaos plan '{value}'")),
            };
            Ok(())
        }
        other => Err(format!("unexpected argument '{other}'")),
    })?;
    config.pacing = Duration::ZERO;
    let report = cpsmon_serve::replay(&config)?;
    println!(
        "sent_steps={} verdicts={} shed_verdicts={} busy={} errors={} clean_close={}",
        report.sent_steps,
        report.verdicts,
        report.shed_verdicts,
        report.busy,
        report.errors,
        report.clean_close
    );
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::from_env();
    // The serve-family commands own their argument tail (flags carry
    // values that must not be mistaken for experiment names).
    match args.first().map(String::as_str) {
        Some("bundle" | "serve" | "replay") if args.len() < 2 => {
            return Err(CliError::Usage(format!(
                "{} expects a positional argument",
                args[0]
            )));
        }
        Some("bundle") => return cmd_bundle(&args[1], &args[2..], scale),
        Some("serve") => return cmd_serve(&args[1], &args[2..]),
        Some("replay") => return cmd_replay(&args[1], &args[2..]),
        _ => {}
    }
    let mut command: Option<&str> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("full") => Scale::Full,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--scale expects quick|full, got '{}'",
                            other.unwrap_or("")
                        )))
                    }
                };
            }
            "list" | "run" | "run-all" if command.is_none() => command = Some(arg),
            name if command == Some("run") => names.push(name.to_string()),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    match command {
        Some("list") => {
            for e in registry::REGISTRY {
                println!("{:<18} {}", e.name(), e.description());
            }
            Ok(())
        }
        Some("run") => {
            if names.is_empty() {
                return Err(CliError::Usage(
                    "run expects at least one experiment".into(),
                ));
            }
            // Resolve every name before paying for the context.
            for name in &names {
                if registry::find(name).is_none() {
                    let mut msg = format!("unknown experiment '{name}'");
                    if let Some(candidate) = closest_experiment(name) {
                        msg.push_str(&format!("; did you mean '{candidate}'?"));
                    }
                    msg.push_str(" (see 'cpsmon list')");
                    return Err(CliError::Usage(msg));
                }
            }
            let ctx = Context::load_or_build(scale)?;
            for name in &names {
                cpsmon_bench::run_registered_on(&ctx, name, &scale.csv_stem(name))?;
            }
            Ok(())
        }
        Some("run-all") => {
            let ctx = Context::load_or_build(scale)?;
            let started = std::time::Instant::now();
            for e in registry::REGISTRY {
                cpsmon_bench::run_registered_on(&ctx, e.name(), &scale.csv_stem(e.name()))?;
            }
            eprintln!(
                "[cpsmon-bench] run-all finished in {:.1?}",
                started.elapsed()
            );
            Ok(())
        }
        Some(_) | None => Err(CliError::Usage("expected a command".into())),
    }
}
