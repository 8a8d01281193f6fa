//! `screen_cohort`: population screening with no IO.
//!
//! `Cohort::sample(T1ds2013, seed, 1000)` runs 288 steps (24 h, 25 % pump
//! faults) through `CohortEngine::advance`; every member streams into a
//! guarded, mitigated `LstmSessionPool` running the paper LSTM (128-64) on
//! the f64 engine, trained in set-up on a small T1DS campaign for one
//! epoch. The benchmark's own `CohortObserver` pushes each member's record
//! and drains the pool at every step end, so one step's verdict latency is
//! one `advance` call: simulate, push and classify the whole cohort.

use std::time::Instant;

use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::{
    DatasetBuilder, GuardPolicy, GuardedVerdict, HealthState, InputGuard, LabeledDataset,
    LstmEngine, LstmSessionPool, LstmStreamSession, Mitigator, MonitorKind, TrainConfig,
    TrainedMonitor,
};
use cpsmon_nn::par::ThreadsGuard;
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::LstmNet;
use cpsmon_sim::{CampaignConfig, Cohort, CohortEngine, CohortObserver, SimulatorKind, StepRecord};
use cpsmon_stl::RuleMonitor;

use crate::machine;
use crate::stats::{median, quantile};
use crate::trace::{self, Tracer, ROOT};
use crate::{Args, Report};

const MEMBERS: usize = 1000;
const STEPS: usize = 288;
const FAULT_RATIO: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Members re-stepped alone after the first pass to check pool transparency.
const CHECKED_MEMBERS: usize = 8;

struct Setup {
    ds: LabeledDataset,
    monitor: TrainedMonitor,
    engine: CohortEngine,
    sample_s: f64,
}

impl Setup {
    fn build(seed: u64) -> Result<Setup, String> {
        let traces = CampaignConfig::new(SimulatorKind::T1ds2013)
            .patients(3)
            .runs_per_patient(3)
            .steps(STEPS)
            .fault_ratio(0.5)
            .seed(seed)
            .run();
        let ds = DatasetBuilder::new()
            .seed(seed)
            .build(&traces)
            .map_err(|e| format!("training dataset: {e}"))?;
        let cfg = TrainConfig {
            epochs: 1,
            seed,
            ..TrainConfig::default()
        };
        let monitor = MonitorKind::Lstm
            .train(&ds, &cfg)
            .map_err(|e| format!("training: {e}"))?;
        let t0 = Instant::now();
        let cohort = Cohort::sample(SimulatorKind::T1ds2013, seed, MEMBERS);
        let sample_s = t0.elapsed().as_secs_f64();
        let mut engine = cohort.engine(STEPS, seed ^ 0x7363_7265_656e, FAULT_RATIO);
        engine.set_recording(false);
        Ok(Setup {
            ds,
            monitor,
            engine,
            sample_s,
        })
    }

    fn net(&self) -> &LstmNet {
        match &self.monitor.model {
            MonitorModel::Lstm(net) => net,
            _ => unreachable!("trained as an LSTM"),
        }
    }
}

/// Multiply-add FLOPs for one row of `timesteps` LSTM steps followed by
/// the dense head, from the net's shape: every layer's four gate blocks
/// over `[x, h]` per step.
pub fn lstm_flops(net: &LstmNet, timesteps: usize) -> f64 {
    let gates: usize = net
        .lstm_layers()
        .iter()
        .map(|l| 2 * (l.input_dim() + l.hidden_dim()) * 4 * l.hidden_dim())
        .sum();
    (timesteps * gates + 2 * net.head().input_dim() * net.head().output_dim()) as f64
}

/// The harness's observer: pushes every member's record into the pool,
/// drains it at step end, and checks that each pushed member got exactly
/// one verdict.
struct Screen<'p, 'm> {
    pool: &'p mut LstmSessionPool<'m>,
    pushed: Vec<bool>,
    verdicts: u64,
    alarms: u64,
    actions: u64,
    /// Member-steps that got no verdict, or a verdict without a record.
    bad: u64,
    watch: Vec<usize>,
    watched: Vec<(Vec<StepRecord>, Vec<GuardedVerdict>)>,
    tracer: Option<&'p Tracer>,
    step_span: u32,
}

impl CohortObserver for Screen<'_, '_> {
    fn on_step(&mut self, member: usize, _step: usize, record: &StepRecord) {
        if let Some(i) = self.watch.iter().position(|&m| m == member) {
            self.watched[i].0.push(*record);
        }
        match self.tracer {
            Some(t) => t.time(
                "core.stream.pool_push",
                self.step_span,
                member as u64,
                || self.pool.push(member, record),
            ),
            None => self.pool.push(member, record),
        }
        self.pushed[member] = true;
    }

    fn on_step_end(&mut self, step: usize) {
        let out = match self.tracer {
            Some(t) => {
                let id = t.open("core.stream.pool_drain", self.step_span, step as u64);
                let out = self.pool.drain_ready();
                t.close(id, self.pushed.iter().filter(|&&p| p).count() as u64);
                out
            }
            None => self.pool.drain_ready(),
        };
        for (member, v) in out.iter().enumerate() {
            let pushed = std::mem::take(&mut self.pushed[member]);
            match v {
                Some(gv) if pushed => {
                    self.verdicts += 1;
                    self.alarms += u64::from(gv.verdict.label == 1);
                    self.actions += u64::from(!gv.verdict.action.is_none());
                    if let Some(i) = self.watch.iter().position(|&m| m == member) {
                        self.watched[i].1.push(*gv);
                    }
                }
                None if !pushed => {}
                _ => self.bad += 1,
            }
        }
    }
}

struct Pass {
    wall_s: f64,
    /// Wall time of each step (one `advance` call), ms.
    step_ms: Vec<f64>,
    screen_bad: u64,
    verdicts: u64,
    alarms: u64,
    actions: u64,
    watched: Vec<(Vec<StepRecord>, Vec<GuardedVerdict>)>,
}

/// Runs the whole cohort once.
fn pass(setup: &Setup, watch: &[usize], tracer: Option<&Tracer>) -> Pass {
    let mut engine = setup.engine.clone();
    let ds = &setup.ds;
    let mut pool = LstmSessionPool::new(
        LstmEngine::F64(setup.net()),
        ds.feature_config,
        &ds.normalizer,
        MEMBERS,
    )
    .with_guards(GuardPolicy::aps(), RuleMonitor::new(ds.rules))
    .with_mitigator(Mitigator::aps());
    let mut screen = Screen {
        pool: &mut pool,
        pushed: vec![false; MEMBERS],
        verdicts: 0,
        alarms: 0,
        actions: 0,
        bad: 0,
        watch: watch.to_vec(),
        watched: vec![(Vec::new(), Vec::new()); watch.len()],
        tracer,
        step_span: ROOT,
    };
    let mut step_ms = Vec::with_capacity(STEPS);
    let t0 = Instant::now();
    for step in 0.. {
        let t = Instant::now();
        screen.step_span = tracer.map_or(ROOT, |tr| tr.open("sim.cohort.advance", ROOT, step));
        let more = engine.advance(&mut screen);
        if let Some(tr) = tracer {
            tr.close(screen.step_span, u64::from(more));
        }
        if !more {
            break;
        }
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        step_ms,
        screen_bad: screen.bad,
        verdicts: screen.verdicts,
        alarms: screen.alarms,
        actions: screen.actions,
        watched: screen.watched,
    }
}

/// Pool transparency on the watched members: each one stepped alone
/// through the same guard and an `LstmStreamSession` gives the pool's
/// verdicts bit for bit (fallback steps come from the rule monitor, so
/// only their health is compared). Returns the number of mismatches.
fn solo_mismatches(setup: &Setup, p: &Pass) -> u64 {
    let ds = &setup.ds;
    let mut bad = 0;
    for (records, pooled) in &p.watched {
        if records.len() != STEPS || pooled.len() != STEPS {
            bad += 1;
            continue;
        }
        let mut guard = InputGuard::new(GuardPolicy::aps());
        let mut solo = LstmStreamSession::new(
            LstmEngine::F64(setup.net()),
            ds.feature_config,
            &ds.normalizer,
        );
        for (rec, gv) in records.iter().zip(pooled) {
            let (clean, status) = guard.sanitize(rec);
            let v = solo.step(&clean);
            let same = status.health == gv.health
                && (status.health == HealthState::Fallback
                    || (v.step, v.label, v.proba.to_bits())
                        == (
                            gv.verdict.step,
                            gv.verdict.label,
                            gv.verdict.proba.to_bits(),
                        ));
            bad += u64::from(!same);
        }
    }
    bad
}

/// Runs `screen_cohort`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut sample_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Setup::build(args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        sample_s.push(s.sample_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let mut rng = SmallRng::new(args.seed ^ 0x0077_6174_6368);
    let mut watch = Vec::with_capacity(CHECKED_MEMBERS);
    while watch.len() < CHECKED_MEMBERS {
        let m = rng.index(MEMBERS);
        if !watch.contains(&m) {
            watch.push(m);
        }
    }

    let mut report = Report::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        let w = if passes.is_empty() { &watch[..] } else { &[] };
        passes.push(pass(&setup, w, None));
        if args.trace || started.elapsed() >= args.seconds {
            break;
        }
    }

    let first = &passes[0];
    let solo_bad = solo_mismatches(&setup, first);
    let screen_bad: u64 = passes.iter().map(|p| p.screen_bad).sum();
    let verdicts: u64 = passes.iter().map(|p| p.verdicts).sum();
    let attempted = (passes.len() * MEMBERS * STEPS) as u64;
    report.attempted = attempted;
    report.failed = attempted - verdicts.min(attempted);
    report.correct = solo_bad == 0 && screen_bad == 0 && verdicts == attempted;
    eprintln!(
        "perfbench: screen_cohort passes={} member_steps={attempted} verdicts={verdicts} \
         screen_mismatches={screen_bad} solo_mismatches={solo_bad} alarms={} actions={}",
        passes.len(),
        first.alarms,
        first.actions
    );

    // Every pass repeats the same work step for step, so each step's median
    // over passes is its time with transient host noise filtered out; the
    // latency quantiles and the throughput are read off those medians.
    let mut typical: Vec<f64> = (0..STEPS)
        .map(|t| median(&mut passes.iter().map(|p| p.step_ms[t]).collect::<Vec<_>>()))
        .collect();
    let typical_pass_s = typical.iter().sum::<f64>() / 1e3;
    report.set("setup_s", median(&mut setup_s));
    report.set(
        "peak_rss_mb",
        machine::peak_rss_mb("self").ok_or("cannot read peak RSS")?,
    );
    report.set("verdict_p50_ms", quantile(&mut typical, 0.5));
    report.set("verdict_p99_ms", quantile(&mut typical, 0.99));
    report.set("verdicts_per_s", (MEMBERS * STEPS) as f64 / typical_pass_s);

    if args.trace {
        let tracer = Tracer::new();
        let traced = pass(&setup, &[], Some(&tracer));
        // Untraced passes on both sides of the traced one, so warm-up
        // favours neither side of the overhead and speed-up ratios.
        let untraced_s = (first.wall_s + pass(&setup, &[], None).wall_s) / 2.0;
        let single = {
            let _one = ThreadsGuard::set(1);
            pass(&setup, &[], None)
        };
        let spans = tracer.spans();
        let own = trace::self_times(&spans);
        let advance = trace::totals(&spans, &own, "sim.cohort.advance");
        let drain = trace::totals(&spans, &own, "core.stream.pool_drain");
        let push = trace::totals(&spans, &own, "core.stream.pool_push");
        let steps = drain.count.max(1) as f64;
        let mut drain_ms = trace::durations_ms(&spans, "core.stream.pool_drain");
        report.set(
            "core.stream.pool_drain_p50_ms",
            quantile(&mut drain_ms, 0.5),
        );
        report.set(
            "core.stream.pool_drain_p99_ms",
            quantile(&mut drain_ms, 0.99),
        );
        report.set(
            "core.stream.pool_drain_share",
            drain.ns as f64 / advance.ns as f64,
        );
        report.set(
            "nn.lstm.step_gflops",
            lstm_flops(setup.net(), 1) * drain.units as f64 / drain.ns as f64,
        );
        report.set(
            "sim.cohort.advance_self_ms",
            advance.self_ns as f64 / 1e6 / steps,
        );
        report.set("core.stream.pool_push_ms", push.ns as f64 / 1e6 / steps);
        report.set("sim.cohort.sample_s", median(&mut sample_s));
        report.set("screen.alarms", traced.alarms as f64);
        report.set("core.pipeline.actions", traced.actions as f64);
        report.set("trace.overhead_frac", traced.wall_s / untraced_s - 1.0);
        report.set(
            "trace.residual_share",
            (traced.wall_s - advance.ns as f64 / 1e9) / traced.wall_s,
        );
        report.set("par.speedup.screen_cohort", single.wall_s / untraced_s);
        let path = args
            .out
            .join(format!("spans-screen_cohort-seed{}.csv", args.seed));
        tracer
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: screen_cohort trace: advance {:.3} s = push {:.3} s + drain {:.3} s \
             + simulation (self) {:.3} s; outside advance {:.3} s",
            advance.ns as f64 / 1e9,
            push.ns as f64 / 1e9,
            drain.ns as f64 / 1e9,
            advance.self_ns as f64 / 1e9,
            traced.wall_s - advance.ns as f64 / 1e9
        );
    }
    Ok(report)
}
