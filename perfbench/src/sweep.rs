//! `robustness_sweep`: the paper's own campaign, with no sessions and no IO.
//!
//! Set-up simulates a Glucosym campaign (12 profiles × 4 runs × 288 steps)
//! and builds the dataset. Each pass then trains MLP, LSTM, MLP-Custom and
//! LSTM-Custom at paper size for one epoch and sweeps the 5 σ + 5 ε grid
//! over the test split through `SweepContext`, as the Fig. 9 experiment
//! does. The verdict latency is the time to classify and score one column
//! of the Fig. 9 heat map (one strength, all four monitors); the verdict
//! rate is the perturbed rows classified per second of a whole pass,
//! training included.

use std::sync::Mutex;
use std::time::Instant;

use cpsmon_attack::{grid_cells, Perturbation, SweepContext};
use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::{
    robustness_error, sweep_parallel, DatasetBuilder, LabeledDataset, MonitorKind, TrainConfig,
    TrainedMonitor,
};
use cpsmon_nn::par::ThreadsGuard;
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::Matrix;
use cpsmon_sim::{CampaignConfig, SimulatorKind};

use crate::machine;
use crate::stats::{median, quantile};
use crate::trace::{self, Tracer, ROOT};
use crate::{Args, Report};

/// The set-up takes a few milliseconds, and the first three of a process
/// run 1.5–3× slower than the rest (heap growth, thread start): with this
/// many repetitions the median falls among the warm ones.
const SETUP_REPS: usize = 31;

/// Span name of each monitor's training call.
fn train_span(kind: MonitorKind) -> &'static str {
    match kind {
        MonitorKind::Mlp => "core.train.mlp",
        MonitorKind::Lstm => "core.train.lstm",
        MonitorKind::MlpCustom => "core.train.mlp_custom",
        MonitorKind::LstmCustom => "core.train.lstm_custom",
        MonitorKind::RuleBased => "core.train.rule",
    }
}

/// Span name of each architecture's `predict_x` calls.
fn predict_span(monitor: &TrainedMonitor) -> &'static str {
    match monitor.model {
        MonitorModel::Lstm(_) => "nn.predict.lstm",
        _ => "nn.predict.mlp",
    }
}

fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<LabeledDataset, String> {
    let campaign = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(12)
        .runs_per_patient(4)
        .steps(288)
        .fault_ratio(0.5)
        .seed(seed);
    let span = |name| tracer.map(|t| t.open(name, ROOT, seed));
    let close = |id: Option<u32>| {
        if let (Some(t), Some(id)) = (tracer, id) {
            t.close(id, 1);
        }
    };
    let id = span("sim.campaign.run");
    let traces = campaign.run();
    close(id);
    let id = span("core.dataset.build");
    let ds = DatasetBuilder::new().seed(seed).build(&traces);
    close(id);
    ds.map_err(|e| format!("dataset: {e}"))
}

/// Cells whose perturbed batch is kept for the output check: one σ cell
/// and one ε cell of one monitor, chosen from the seed.
#[derive(Debug, Clone, Copy)]
struct Sample {
    monitor: usize,
    cells: [usize; 2],
}

struct Pass {
    wall_s: f64,
    train_s: f64,
    sweep_s: f64,
    train_rows: u64,
    cell_rows: u64,
    /// Robustness errors outside `[0, 1]`.
    out_of_range: u64,
    /// Classify-and-score time of every cell, monitor-major, ms.
    cell_ms: Vec<f64>,
    /// `(cell index, perturbed batch, robustness error)` of sampled cells.
    kept: Vec<(usize, Matrix, f64)>,
    kept_monitor: Option<TrainedMonitor>,
    /// FLOPs of one windowed LSTM forward row (0 if no LSTM ran).
    lstm_row_flops: f64,
}

fn pass(
    ds: &LabeledDataset,
    seed: u64,
    sample: Option<Sample>,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let grid = grid_cells(seed ^ 0x006e_6f69_7365);
    let test = &ds.test;
    let cfg = TrainConfig {
        epochs: 1,
        seed,
        ..TrainConfig::default()
    };
    let t0 = Instant::now();
    let pass_span = tracer.map_or(ROOT, |t| t.open("robustness.pass", ROOT, seed));
    let mut out = Pass {
        wall_s: 0.0,
        train_s: 0.0,
        sweep_s: 0.0,
        train_rows: 0,
        cell_rows: 0,
        out_of_range: 0,
        cell_ms: Vec::new(),
        kept: Vec::new(),
        kept_monitor: None,
        lstm_row_flops: 0.0,
    };
    for (mi, &kind) in MonitorKind::ML.iter().enumerate() {
        let t = Instant::now();
        let monitor = match tracer {
            Some(tr) => tr.time(train_span(kind), pass_span, mi as u64, || {
                kind.train(ds, &cfg)
            }),
            None => kind.train(ds, &cfg),
        }
        .map_err(|e| format!("training {kind}: {e}"))?;
        out.train_s += t.elapsed().as_secs_f64();
        out.train_rows += ds.train.len() as u64;

        let t = Instant::now();
        let model = monitor
            .as_grad_model()
            .ok_or("ML monitors are differentiable")?;
        let predict = predict_span(&monitor);
        if let MonitorModel::Lstm(net) = &monitor.model {
            out.lstm_row_flops = crate::cohort::lstm_flops(net, net.timesteps());
        }
        let keep = sample.filter(|s| s.monitor == mi).map(|s| s.cells);
        let kept = Mutex::new(Vec::new());
        let errors = match tracer {
            None => {
                let clean = monitor.predict_x(&test.x);
                let ctx = SweepContext::new(model, &test.x, &test.labels);
                ctx.sweep(&grid, |cell, perturbed| {
                    let t = Instant::now();
                    let err = robustness_error(&clean, &monitor.predict_x(&perturbed));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let idx = grid
                        .iter()
                        .position(|c| c == cell)
                        .expect("cell of the grid");
                    if keep.is_some_and(|k| k.contains(&idx)) {
                        kept.lock().expect("kept lock").push((idx, perturbed, err));
                    }
                    (err, ms)
                })
            }
            Some(tr) => {
                // The same calls `SweepContext::sweep` makes — prepare the
                // shared halves, then fan the cells out through
                // `sweep_parallel` — each inside its span.
                let parent = tr.open("attack.sweep", pass_span, mi as u64);
                let clean = tr.time(predict, parent, mi as u64, || monitor.predict_x(&test.x));
                let ctx = SweepContext::new(model, &test.x, &test.labels);
                tr.time("attack.sweep.grad_sign", parent, mi as u64, || {
                    ctx.grad_sign();
                });
                for cell in &grid {
                    if let Perturbation::Gaussian { seed, .. } = *cell {
                        tr.time("attack.sweep.unit_noise", parent, seed, || {
                            ctx.unit_noise(seed)
                        });
                    }
                }
                let errors = sweep_parallel(&grid, |cell| {
                    let idx = grid
                        .iter()
                        .position(|c| c == cell)
                        .expect("cell of the grid") as u64;
                    let perturbed = tr.time("attack.sweep.materialize", parent, idx, || {
                        ctx.materialize(cell)
                    });
                    let t = Instant::now();
                    let preds = tr.time(predict, parent, idx, || monitor.predict_x(&perturbed));
                    let err = tr.time("core.robustness.error", parent, idx, || {
                        robustness_error(&clean, &preds)
                    });
                    (err, t.elapsed().as_secs_f64() * 1e3)
                });
                tr.close(parent, grid.len() as u64);
                errors
            }
        };
        out.sweep_s += t.elapsed().as_secs_f64();
        out.cell_rows += (test.len() * grid.len()) as u64;
        out.out_of_range += errors
            .iter()
            .filter(|(e, _)| !(0.0..=1.0).contains(e))
            .count() as u64;
        out.cell_ms.extend(errors.iter().map(|&(_, ms)| ms));
        if keep.is_some() {
            out.kept = kept.into_inner().expect("kept lock");
            out.kept_monitor = Some(monitor);
        }
    }
    if let Some(t) = tracer {
        t.close(pass_span, 1);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Sampled cells equal `Perturbation::apply` on the same batch, bit for
/// bit, and so does their robustness error. Returns the mismatches.
fn cell_mismatches(ds: &LabeledDataset, seed: u64, p: &Pass) -> u64 {
    let Some(monitor) = &p.kept_monitor else {
        return 1;
    };
    let grid = grid_cells(seed ^ 0x006e_6f69_7365);
    let test = &ds.test;
    let model = monitor
        .as_grad_model()
        .expect("ML monitors are differentiable");
    let clean = monitor.predict_x(&test.x);
    let mut bad = u64::from(p.kept.len() != 2);
    for (idx, perturbed, err) in &p.kept {
        let direct = grid[*idx].apply(model, &test.x, &test.labels);
        let direct_err = robustness_error(&clean, &monitor.predict_x(&direct));
        bad += u64::from(&direct != perturbed || direct_err.to_bits() != err.to_bits());
    }
    bad
}

/// Runs `robustness_sweep`.
pub fn run(args: &Args) -> Result<Report, String> {
    let tracer = args.trace.then(Tracer::new);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ds = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        ds = Some(setup(args.seed, tracer.as_ref())?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let ds = ds.expect("at least one set-up");
    let mut rng = SmallRng::new(args.seed ^ 0x6365_6c6c);
    let sample = Sample {
        monitor: rng.index(MonitorKind::ML.len()),
        cells: [rng.index(5), 5 + rng.index(5)],
    };

    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        let s = passes.is_empty().then_some(sample);
        passes.push(pass(&ds, args.seed, s, None)?);
        if args.trace || started.elapsed() >= args.seconds {
            break;
        }
    }
    let first = &passes[0];
    let bad_cells = cell_mismatches(&ds, args.seed, first);
    let out_of_range: u64 = passes.iter().map(|p| p.out_of_range).sum();
    let cell_rows: u64 = passes.iter().map(|p| p.cell_rows).sum();

    let mut report = Report {
        correct: bad_cells == 0 && out_of_range == 0,
        attempted: cell_rows,
        failed: 0,
        ..Report::default()
    };
    eprintln!(
        "perfbench: robustness_sweep passes={} train_rows/pass={} cell_rows/pass={} \
         cell_mismatches={bad_cells} errors_out_of_range={out_of_range}",
        passes.len(),
        first.train_rows,
        first.cell_rows
    );
    // A heat-map column is one strength scored on every monitor. Every pass
    // repeats the same columns, so each column's median over passes is its
    // time with transient host noise filtered out.
    let cells = first.cell_ms.len() / MonitorKind::ML.len();
    let column_ms = |p: &Pass, c: usize| -> f64 { p.cell_ms.iter().skip(c).step_by(cells).sum() };
    let mut typical_column_ms: Vec<f64> = (0..cells)
        .map(|c| median(&mut passes.iter().map(|p| column_ms(p, c)).collect::<Vec<_>>()))
        .collect();
    let mut wall_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    report.set("setup_s", median(&mut setup_s));
    report.set(
        "peak_rss_mb",
        machine::peak_rss_mb("self").ok_or("cannot read peak RSS")?,
    );
    report.set("verdict_p50_ms", quantile(&mut typical_column_ms, 0.5));
    report.set("verdict_p99_ms", quantile(&mut typical_column_ms, 0.99));
    report.set(
        "verdicts_per_s",
        first.cell_rows as f64 / median(&mut wall_s),
    );

    if let Some(tr) = &tracer {
        let traced = pass(&ds, args.seed, None, Some(tr))?;
        // Untraced passes on both sides of the traced one, so warm-up
        // favours neither side of the overhead and speed-up ratios.
        let untraced_s = (first.wall_s + pass(&ds, args.seed, None, None)?.wall_s) / 2.0;
        let single = {
            let _one = ThreadsGuard::set(1);
            pass(&ds, args.seed, None, None)?
        };
        let spans = tr.spans();
        let own = trace::self_times(&spans);
        let secs = |name| trace::totals(&spans, &own, name).ns as f64 / 1e9;
        let mut campaign: Vec<f64> = trace::durations_ms(&spans, "sim.campaign.run");
        let mut build: Vec<f64> = trace::durations_ms(&spans, "core.dataset.build");
        report.set("sim.campaign.run_s", median(&mut campaign) / 1e3);
        report.set("core.dataset.build_s", median(&mut build) / 1e3);
        let mut train_total = 0.0;
        for kind in MonitorKind::ML {
            let s = secs(train_span(kind));
            train_total += s;
            let name = match kind {
                MonitorKind::Mlp => "core.train.mlp_s",
                MonitorKind::Lstm => "core.train.lstm_s",
                MonitorKind::MlpCustom => "core.train.mlp_custom_s",
                _ => "core.train.lstm_custom_s",
            };
            report.set(name, s);
        }
        report.set(
            "core.train.rows_per_s",
            traced.train_rows as f64 / train_total,
        );
        report.set("nn.predict.mlp_s", secs("nn.predict.mlp"));
        report.set("nn.predict.lstm_s", secs("nn.predict.lstm"));
        let lstm_rows = trace::totals(&spans, &own, "nn.predict.lstm").count * ds.test.len() as u64;
        report.set(
            "nn.lstm.predict_gflops",
            traced.lstm_row_flops * lstm_rows as f64
                / trace::wall_ns(&spans, "nn.predict.lstm") as f64,
        );
        report.set("attack.sweep.grad_sign_s", secs("attack.sweep.grad_sign"));
        report.set("attack.sweep.unit_noise_s", secs("attack.sweep.unit_noise"));
        report.set(
            "attack.sweep.materialize_s",
            secs("attack.sweep.materialize"),
        );
        report.set("core.robustness.error_s", secs("core.robustness.error"));
        report.set("trace.overhead_frac", traced.wall_s / untraced_s - 1.0);
        // Wall time of the traced pass inside no layer span: the named
        // residual (context set-up, fan-out and join).
        let pass_span = spans
            .iter()
            .find(|s| s.name == "robustness.pass")
            .ok_or("traced pass has no span")?;
        let mut layers: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| {
                s.name.starts_with("core.")
                    || s.name.starts_with("nn.")
                    || s.name.starts_with("attack.sweep.")
            })
            .map(|s| (s.start, s.end))
            .collect();
        let covered = trace::covered(&mut layers, pass_span.start, pass_span.end);
        report.set(
            "trace.residual_share",
            (pass_span.ns() - covered) as f64 / pass_span.ns() as f64,
        );
        report.set("par.speedup.robustness_sweep", single.wall_s / untraced_s);
        let path = args
            .out
            .join(format!("spans-robustness_sweep-seed{}.csv", args.seed));
        tr.write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: robustness_sweep trace: pass {:.3} s = train {:.3} s + sweep {:.3} s; \
             single-thread pass {:.3} s",
            traced.wall_s, traced.train_s, traced.sweep_s, single.wall_s
        );
    }
    Ok(report)
}
