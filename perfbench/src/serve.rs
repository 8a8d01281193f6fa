//! `serve_engine`: the monitor-fleet serving stack, in process.
//!
//! Set-up generates a 1000-session Glucosym fleet (24 h, 25 % pump faults)
//! and trains a paper-size MLP (256-128) on a small campaign with a fixed
//! budget. A pass streams the fleet one step at a time, every session's
//! record at once, through the public sans-IO stack `cpsmon serve` runs:
//! the step frames are decoded by one `FrameDecoder`, offered to two
//! `Shard`s (patient id modulo 2, as `--shards 2` pins them), each shard is
//! ticked until its queue is empty, and every verdict is encoded as a
//! frame. One fleet step is one unit of verdict latency.
//!
//! The daemon around this stack (sockets, threads, its outbound channel) is
//! not measured: its 256-slot per-connection outbound channel drops verdict
//! frames whenever a burst of a few hundred records reaches one connection,
//! and any ~15 ms scheduling stall of the daemon or of its client at 20k
//! records/s makes such a burst, so how many operations fail depends on the
//! host rather than on the code.
//!
//! Every pass is checked on the verdict frames as a client decodes them:
//! each post-warm-up record gets exactly one verdict, none is shed, every
//! pass repeats the first pass bit for bit, and the first pass equals every
//! patient stepped alone through the offline `PipelineSession` the shard
//! wraps, bit for bit.

use std::time::Instant;

use cpsmon_core::{
    DatasetBuilder, GuardPolicy, HealthState, MonitorBundle, MonitorKind, MonitorSession,
    PipelineSession, TrainConfig,
};
use cpsmon_serve::{
    Frame, FrameDecoder, IngestItem, IngestKind, OutEvent, ServingBundle, Shard, ShardConfig,
};
use cpsmon_sim::{CampaignConfig, Cohort, SimulatorKind, StepRecord};

use crate::ledger::{Got, Ledger};
use crate::machine;
use crate::stats::{median, quantile};
use crate::trace::{self, Tracer, ROOT};
use crate::{Args, Report};

/// Sessions in the fleet.
const SESSIONS: usize = 1000;
/// Records per session: 24 h of 5-minute control steps.
const STEPS: usize = 288;
/// Shards, as `cpsmon serve --shards 2`.
const SHARDS: usize = 2;
/// Share of fleet sessions whose pump carries an injected fault.
const FAULT_RATIO: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Setup {
    /// The fleet's records, `[patient][step]`.
    records: Vec<Vec<StepRecord>>,
    bundle: MonitorBundle,
    serving: ServingBundle,
    /// Steps before a session's first verdict (the feature window's fill).
    warmup: usize,
}

impl Setup {
    /// Simulates the fleet and trains the served MLP on a 4 × 3 × 24 h
    /// Glucosym campaign for two epochs.
    fn build(seed: u64) -> Result<Setup, String> {
        let records = Cohort::sample(SimulatorKind::Glucosym, seed, SESSIONS)
            .engine(STEPS, seed ^ 0x0066_6c65_6574, FAULT_RATIO)
            .run()
            .iter()
            .map(|t| t.records().to_vec())
            .collect();
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(4)
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
            epochs: 2,
            seed,
            ..TrainConfig::default()
        };
        let monitor = MonitorKind::Mlp
            .train(&ds, &cfg)
            .map_err(|e| format!("training: {e}"))?;
        let bundle = MonitorBundle::new(monitor, &ds, &cfg);
        let serving = ServingBundle::new(bundle.clone());
        let warmup = serving.feature_config().window - 1;
        Ok(Setup {
            records,
            bundle,
            serving,
            warmup,
        })
    }
}

/// The verdict frame's health byte for a guard state.
fn health_byte(h: HealthState) -> u8 {
    match h {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Fallback => 2,
    }
}

struct Pass {
    wall_s: f64,
    /// Wall time of each fleet step (decode, offer, tick, encode), ms.
    step_ms: Vec<f64>,
    ledger: Ledger,
    ticks: u64,
}

/// Streams the whole fleet once through fresh shards. With a tracer, each
/// step is a `serve.step` span whose children wrap the decoder, the offers,
/// every tick and every tick's verdict encoding; their `units` count
/// frames, items or rows.
fn pass(setup: &Setup, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|_| Shard::new(ShardConfig::default(), setup.serving.clone()))
        .collect();
    let mut ledger = Ledger::new(SESSIONS, STEPS, setup.warmup);
    let (mut decoder, mut client) = (FrameDecoder::new(), FrameDecoder::new());
    let mut wire = Vec::new();
    let mut frames = Vec::with_capacity(SESSIONS);
    let mut outbound = Vec::new();
    let mut step_ms = Vec::with_capacity(STEPS);
    let mut ticks = 0;
    let t0 = Instant::now();
    for step in 0..STEPS {
        // The client's side, outside the timed step: one frame per session.
        wire.clear();
        for (patient, records) in setup.records.iter().enumerate() {
            Frame::Step {
                patient: patient as u64,
                seq: step as u32,
                rec: records[step],
            }
            .encode_into(&mut wire);
        }
        let t = Instant::now();
        let parent = tracer.map_or(ROOT, |tr| tr.open("serve.step", ROOT, step as u64));
        let open = |name| tracer.map(|tr| tr.open(name, parent, step as u64));
        let close = |span: Option<u32>, units: usize| {
            if let (Some(tr), Some(id)) = (tracer, span) {
                tr.close(id, units as u64);
            }
        };

        let span = open("serve.protocol.decode");
        decoder.feed(&wire);
        frames.clear();
        while let Some(f) = decoder.next_frame().map_err(|e| format!("decode: {e}"))? {
            frames.push(f);
        }
        close(span, frames.len());
        let span = open("serve.shard.offer");
        for f in frames.drain(..) {
            if let Frame::Step { patient, seq, rec } = f {
                let item = IngestItem {
                    conn: 1,
                    patient,
                    seq,
                    kind: IngestKind::Step(rec),
                };
                if shards[patient as usize % SHARDS].offer(item).is_err() {
                    ledger.refused += 1;
                }
            }
        }
        close(span, SESSIONS);
        outbound.clear();
        for shard in &mut shards {
            while shard.queue_len() > 0 {
                let span = open("serve.shard.tick");
                let events = shard.tick();
                close(span, events.len());
                ticks += 1;
                let span = open("serve.protocol.encode");
                let n = events.len();
                for ev in events {
                    match ev {
                        OutEvent::Verdict {
                            patient,
                            step,
                            label,
                            proba,
                            health,
                            shed,
                            ..
                        } => Frame::Verdict {
                            patient,
                            step,
                            label,
                            proba,
                            health,
                            shed,
                        }
                        .encode_into(&mut outbound),
                        OutEvent::SessionRefused { .. } => ledger.refused += 1,
                    }
                }
                close(span, n);
            }
        }
        if let Some(tr) = tracer {
            tr.close(parent, SESSIONS as u64);
        }
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // The client's side again, untimed: the step's verdict frames.
        client.feed(&outbound);
        while let Some(f) = client.next_frame().map_err(|e| format!("verdicts: {e}"))? {
            let Frame::Verdict {
                patient,
                step,
                label,
                proba,
                health,
                shed,
            } = f
            else {
                return Err(format!("a shard answered with {f:?}"));
            };
            let got = Got {
                label,
                proba,
                health,
                shed,
            };
            ledger.verdict(patient, step, got);
        }
    }
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        step_ms,
        ledger,
        ticks,
    })
}

/// Check outcomes summed over passes.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    refused: u64,
    shed: u64,
    /// Passes with a duplicate or unexpected verdict.
    inconsistent: u64,
    /// Passes whose verdicts differ from the first pass's.
    diverged: u64,
}

impl Tally {
    fn add(&mut self, ledger: &Ledger, first: &Ledger) {
        self.attempted += ledger.attempted();
        self.failed += ledger.failed();
        self.refused += ledger.refused;
        self.shed += ledger.shed_verdicts();
        self.inconsistent += u64::from(!ledger.consistent());
        self.diverged += u64::from(!ledger.same_verdicts(first));
    }
}

/// Shard transparency: every patient stepped alone through the offline
/// guarded `PipelineSession` over the served bundle gives the shards'
/// verdicts bit for bit. Returns the number of verdicts that differ or are
/// missing.
fn offline_mismatches(setup: &Setup, ledger: &Ledger) -> u64 {
    let mut bad = 0;
    for p in 0..SESSIONS {
        let core = MonitorSession::new(
            &setup.bundle.monitor,
            setup.serving.feature_config(),
            setup.bundle.normalizer.clone(),
        );
        let mut session =
            PipelineSession::new(core).with_guard(GuardPolicy::aps(), *setup.serving.fallback());
        let mut solo = 0;
        for rec in &setup.records[p] {
            if let Some(gv) = session.step(rec) {
                solo += 1;
                let want = Got {
                    label: gv.verdict.label as u8,
                    proba: gv.verdict.proba,
                    health: health_byte(gv.health),
                    shed: false,
                };
                let got = ledger.get(p, gv.verdict.step);
                bad += u64::from(got.map(Got::bits) != Some(want.bits()));
            }
        }
        bad += (STEPS - setup.warmup).abs_diff(solo) as u64;
    }
    bad
}

/// Runs `serve_engine`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        setup = Some(Setup::build(args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    // Later passes are checked against the first and then dropped, so
    // memory does not grow with the number of passes.
    let started = Instant::now();
    let first = pass(&setup, None)?;
    let mut tally = Tally::default();
    tally.add(&first.ledger, &first.ledger);
    let mut step_ms = vec![first.step_ms.clone()];
    while !args.trace && started.elapsed() < args.seconds {
        let p = pass(&setup, None)?;
        tally.add(&p.ledger, &first.ledger);
        step_ms.push(p.step_ms);
    }
    let offline_bad = offline_mismatches(&setup, &first.ledger);
    let mut report = Report {
        correct: tally.inconsistent == 0
            && tally.shed == 0
            && tally.diverged == 0
            && offline_bad == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    eprintln!(
        "perfbench: serve_engine passes={} attempted={} failed={} (refused={}) shed={} \
         inconsistent_passes={} diverged_passes={} offline_mismatches={offline_bad}",
        step_ms.len(),
        tally.attempted,
        tally.failed,
        tally.refused,
        tally.shed,
        tally.inconsistent,
        tally.diverged
    );

    // Every pass repeats the same work step for step, so each step's median
    // over passes is its time with transient host noise filtered out; the
    // latency quantiles (over the steps that yield verdicts) and the
    // throughput are read off those medians.
    let mut typical: Vec<f64> = (0..STEPS)
        .map(|t| median(&mut step_ms.iter().map(|p| p[t]).collect::<Vec<_>>()))
        .collect();
    let typical_pass_s = typical.iter().sum::<f64>() / 1e3;
    let answering = &mut typical[setup.warmup..];
    report.set("setup_s", median(&mut setup_s));
    report.set(
        "peak_rss_mb",
        machine::peak_rss_mb("self").ok_or("cannot read peak RSS")?,
    );
    report.set("verdict_p50_ms", quantile(answering, 0.5));
    report.set("verdict_p99_ms", quantile(answering, 0.99));
    report.set(
        "verdicts_per_s",
        first.ledger.answered() as f64 / typical_pass_s,
    );

    if args.trace {
        let tracer = Tracer::new();
        let traced = pass(&setup, Some(&tracer))?;
        // Untraced passes on both sides of the traced one, so warm-up
        // favours neither side of the overhead.
        let untraced_s = (first.wall_s + pass(&setup, None)?.wall_s) / 2.0;
        let spans = tracer.spans();
        let own = trace::self_times(&spans);
        let per_unit_ns = |name| {
            let t = trace::totals(&spans, &own, name);
            t.ns as f64 / t.units.max(1) as f64
        };
        let layers: u64 = [
            "serve.protocol.decode",
            "serve.shard.offer",
            "serve.shard.tick",
            "serve.protocol.encode",
        ]
        .into_iter()
        .map(|name| trace::totals(&spans, &own, name).ns)
        .sum();
        let tick = trace::totals(&spans, &own, "serve.shard.tick");
        // Warm-up ticks classify nothing; the quantiles are over the rest.
        let mut tick_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.shard.tick" && s.units > 0)
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        report.set(
            "serve.protocol.decode_ns",
            per_unit_ns("serve.protocol.decode"),
        );
        report.set(
            "serve.protocol.encode_ns",
            per_unit_ns("serve.protocol.encode"),
        );
        report.set("serve.shard.offer_ns", per_unit_ns("serve.shard.offer"));
        report.set("serve.shard.tick_p50_ms", quantile(&mut tick_ms, 0.5));
        report.set("serve.shard.tick_p99_ms", quantile(&mut tick_ms, 0.99));
        report.set(
            "serve.shard.rows_per_tick",
            tick.units as f64 / tick.count.max(1) as f64,
        );
        report.set("serve.shard.ticks", traced.ticks as f64);
        report.set("trace.overhead_frac", traced.wall_s / untraced_s - 1.0);
        report.set(
            "trace.residual_share",
            (traced.wall_s - layers as f64 / 1e9) / traced.wall_s,
        );
        let path = args
            .out
            .join(format!("spans-serve_engine-seed{}.csv", args.seed));
        tracer
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: serve_engine trace: pass {:.3} s = layers {:.3} s + residual \
             (the client's encoding and decoding, bookkeeping) {:.3} s",
            traced.wall_s,
            layers as f64 / 1e9,
            traced.wall_s - layers as f64 / 1e9
        );
    }
    Ok(report)
}
