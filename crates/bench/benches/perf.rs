//! Criterion micro-benchmarks of the pipeline's hot operations: training
//! steps, inference, and attack crafting for both monitor architectures.

use cpsmon_attack::{grid_cells, Fgsm, SweepContext, EPSILON_SWEEP};
use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::CohortLstmBridge;
use cpsmon_core::{
    robustness_error, sweep_parallel, FeatureConfig, GuardPolicy, LstmEngine, LstmSessionPool,
    Mitigator, MonitorBundle, MonitorKind, MonitorSession, Normalizer, PipelineSession,
    SessionPool, TrainConfig, TrainedMonitor,
};
use cpsmon_nn::par::{self, ThreadsGuard};
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::{
    init::random_normal, AdamTrainer, GradModel, LstmConfig, LstmNet, Matrix, MlpConfig, MlpNet,
    Network,
};
use cpsmon_serve::{IngestItem, IngestKind, OverloadPolicy, ServingBundle, Shard, ShardConfig};
use cpsmon_sim::basal_bolus::BasalBolusController;
use cpsmon_sim::engine::ClosedLoop;
use cpsmon_sim::meal::MealSchedule;
use cpsmon_sim::pump::InsulinPump;
use cpsmon_sim::sensor::Cgm;
use cpsmon_sim::t1ds::T1dsPatient;
use cpsmon_sim::{Cohort, CohortEngine, CohortMember, SimulatorKind, StepRecord};
use cpsmon_stl::{ApsRules, RuleMonitor};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

const BATCH: usize = 128;
const WINDOW: usize = 6;
const FEATURES: usize = 6;

fn batch(rows: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = SmallRng::new(seed);
    let x = random_normal(rows, WINDOW * FEATURES, 1.0, &mut rng);
    let labels = (0..rows).map(|_| rng.index(2)).collect();
    (x, labels)
}

fn paper_mlp() -> MlpNet {
    MlpNet::new(&MlpConfig {
        input_dim: WINDOW * FEATURES,
        hidden: vec![256, 128],
        classes: 2,
        seed: 1,
    })
}

fn paper_lstm() -> LstmNet {
    LstmNet::new(&LstmConfig {
        feature_dim: FEATURES,
        timesteps: WINDOW,
        hidden: vec![128, 64],
        classes: 2,
        seed: 1,
    })
}

/// Stamps the snapshot with the environment facts that perf numbers depend
/// on: worker threads, detected CPU features, and the active kernel
/// backend (including whether `CPSMON_SIMD` forced the scalar one).
fn record_meta(c: &mut Criterion) {
    c.metadata("threads", &par::max_threads().to_string());
    #[cfg(target_arch = "x86_64")]
    let features = format!(
        "avx2={} fma={} avx512f={}",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("avx512f")
    );
    #[cfg(not(target_arch = "x86_64"))]
    let features = "non-x86_64".to_string();
    c.metadata("cpu_features", &features);
    c.metadata("simd_backend", cpsmon_nn::simd::backend().label());
    c.metadata(
        "simd_env",
        &std::env::var("CPSMON_SIMD").unwrap_or_else(|_| "unset".into()),
    );
}

fn bench_training(c: &mut Criterion) {
    let (x, labels) = batch(BATCH, 2);
    c.bench_function("mlp_train_batch_128", |b| {
        b.iter_batched(
            || {
                (
                    paper_mlp(),
                    AdamTrainer::new(paper_mlp().param_count(), 1e-3),
                )
            },
            |(mut net, mut tr)| net.train_batch(&x, &labels, None, &mut tr),
            BatchSize::LargeInput,
        );
    });
    c.bench_function("lstm_train_batch_128", |b| {
        b.iter_batched(
            || {
                (
                    paper_lstm(),
                    AdamTrainer::new(paper_lstm().param_count(), 1e-3),
                )
            },
            |(mut net, mut tr)| net.train_batch(&x, &labels, None, &mut tr),
            BatchSize::LargeInput,
        );
    });
}

fn bench_inference(c: &mut Criterion) {
    let (x, _) = batch(BATCH, 3);
    let mlp = paper_mlp();
    let lstm = paper_lstm();
    c.bench_function("mlp_predict_128", |b| b.iter(|| mlp.predict_labels(&x)));
    c.bench_function("lstm_predict_128", |b| b.iter(|| lstm.predict_labels(&x)));
    // One serve tick's batch: about 246 ready windows per shard tick.
    let (tick, _) = batch(256, 6);
    c.bench_function("mlp_predict_256", |b| b.iter(|| mlp.predict_proba(&tick)));
}

fn bench_attacks(c: &mut Criterion) {
    let (x, labels) = batch(BATCH, 4);
    let mlp = paper_mlp();
    let lstm = paper_lstm();
    let fgsm = Fgsm::new(0.1);
    c.bench_function("fgsm_mlp_128", |b| {
        b.iter(|| fgsm.attack(&mlp, &x, &labels))
    });
    c.bench_function("fgsm_lstm_128", |b| {
        b.iter(|| fgsm.attack(&lstm, &x, &labels))
    });
    // The amortized multi-ε path: a fresh SweepContext per iteration pays
    // for ONE backward pass and materializes all five paper budgets.
    // Divide by EPSILON_SWEEP.len() for the per-cell cost — the direct
    // equivalent is the matching fgsm_*_128 number.
    let eps_cells: Vec<_> = EPSILON_SWEEP
        .iter()
        .map(|&epsilon| cpsmon_attack::Perturbation::Fgsm { epsilon })
        .collect();
    c.bench_function("fgsm_mlp_128_amortized_5eps", |b| {
        b.iter(|| {
            let sweep = SweepContext::new(&mlp, &x, &labels);
            eps_cells
                .iter()
                .map(|cell| sweep.materialize(cell))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("fgsm_lstm_128_amortized_5eps", |b| {
        b.iter(|| {
            let sweep = SweepContext::new(&lstm, &x, &labels);
            eps_cells
                .iter()
                .map(|cell| sweep.materialize(cell))
                .collect::<Vec<_>>()
        })
    });
}

fn bench_kernels(c: &mut Criterion) {
    // The MLP's first-layer shape (batch × features  ·  features × hidden).
    let mut rng = SmallRng::new(5);
    let a = random_normal(BATCH, WINDOW * FEATURES, 1.0, &mut rng);
    let w = random_normal(WINDOW * FEATURES, 256, 1.0, &mut rng);
    let bias = random_normal(1, 256, 1.0, &mut rng);
    // matmul_tb's backward shape: dz (batch × hidden) · W (features × hidden)ᵀ.
    let wt = random_normal(256, WINDOW * FEATURES, 1.0, &mut rng);
    c.bench_function("matmul_128x36_36x256", |b| b.iter(|| a.matmul(&w)));
    c.bench_function("matmul_tb_128x36_256x36t", |b| b.iter(|| a.matmul_tb(&wt)));
    c.bench_function("matmul_add_bias_128x36_36x256", |b| {
        b.iter(|| a.matmul_add_bias(&w, &bias))
    });
    // The LSTM's largest weight-gradient product, one per BPTT timestep of
    // a 64-row chunk: h_prev (64 × 128)ᵀ · dz (64 × 4·128).
    let h_prev = random_normal(64, 128, 1.0, &mut rng);
    let dz = random_normal(64, 512, 1.0, &mut rng);
    c.bench_function("transpose_matmul_64x128t_64x512", |b| {
        b.iter(|| h_prev.transpose_matmul(&dz))
    });
    // The LSTM's recurrent gate product h·Wh (128 → 4·128) on one windowed
    // forward chunk (64 rows) and on one stateful-step chunk (256 rows),
    // accumulated into a reused output as the gate pre-activation is.
    let wh = random_normal(128, 512, 1.0, &mut rng);
    for rows in [64, 256] {
        let h = random_normal(rows, 128, 1.0, &mut rng);
        let mut z = Matrix::zeros(rows, 512);
        c.bench_function(&format!("matmul_{rows}x128_128x512"), |b| {
            b.iter(|| h.matmul_acc(&wh, &mut z))
        });
    }
    // The MLP's 2-class head on a tick-sized batch: only two output
    // columns, so the whole product runs in the GEMM's column tail.
    let head = paper_mlp().layers()[2].clone();
    let h = random_normal(256, 128, 1.0, &mut rng);
    let mut logits = Matrix::zeros(256, 2);
    c.bench_function("dense_head_256x128_128x2", |b| {
        b.iter(|| head.forward_into(&h, &mut logits))
    });
}

fn bench_sweep(c: &mut Criterion) {
    // The full σ×ε grid against the paper MLP on a small batch: the unit of
    // work the robustness experiments fan out per monitor.
    //
    // `sweep_grid_serial` is the legacy cost model — every cell pays its
    // own attack from scratch (five backward passes for the ε half), on one
    // thread. `sweep_grid_parallel` is what the experiments now run: the
    // amortized SweepContext (one backward pass, one noise field per seed)
    // fanned out across all available workers. The gap between the two is
    // the engine's win; both produce bit-identical errors.
    let (x, labels) = batch(64, 6);
    let mlp = paper_mlp();
    let grid = grid_cells(0xfeed);
    let clean = mlp.predict_labels(&x);
    c.bench_function("sweep_grid_serial", |b| {
        let _guard = ThreadsGuard::set(1);
        b.iter(|| {
            sweep_parallel(&grid, |cell| {
                let perturbed = cell.apply(&mlp, &x, &labels);
                robustness_error(&clean, &mlp.predict_labels(&perturbed))
            })
        });
    });
    c.bench_function("sweep_grid_parallel", |b| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _guard = ThreadsGuard::set(threads);
        b.iter(|| {
            let sweep = SweepContext::new(&mlp, &x, &labels);
            sweep.sweep(&grid, |_, perturbed| {
                robustness_error(&clean, &mlp.predict_labels(&perturbed))
            })
        });
    });
}

/// A plausible CGM-shaped record stream for the session benches: smooth BG
/// drift plus sensor jitter, so deltas and rule contexts exercise the same
/// arithmetic as real traces.
fn synthetic_records(steps: usize, seed: u64) -> Vec<StepRecord> {
    let mut rng = SmallRng::new(seed);
    let mut bg = 140.0;
    (0..steps)
        .map(|t| {
            bg = (bg + 3.0 * rng.normal()).clamp(40.0, 400.0);
            let rate = (1.0 + rng.normal().abs()).min(5.0);
            StepRecord {
                bg_true: bg,
                bg_sensor: bg + rng.normal(),
                iob: 1.5 + 0.3 * rng.normal(),
                commanded_rate: rate,
                delivered_rate: rate,
                carbs: if t % 48 == 20 { 45.0 } else { 0.0 },
            }
        })
        .collect()
}

/// Featurization for the session benches: the paper's 6-step window and a
/// normalizer fitted on windows built from the same synthetic distribution.
fn session_featurization() -> (FeatureConfig, Normalizer) {
    let mut rng = SmallRng::new(8);
    let fit = random_normal(256, WINDOW * FEATURES, 1.0, &mut rng);
    (FeatureConfig::default(), Normalizer::fit(&fit))
}

fn bench_sessions(c: &mut Criterion) {
    let (cfg, norm) = session_featurization();
    let records = synthetic_records(512, 9);
    let monitors = [
        (
            "session_step_rule",
            TrainedMonitor {
                kind: MonitorKind::RuleBased,
                model: MonitorModel::Rule(RuleMonitor::new(ApsRules::default())),
            },
        ),
        (
            "session_step_mlp",
            TrainedMonitor {
                kind: MonitorKind::Mlp,
                model: MonitorModel::Mlp(paper_mlp()),
            },
        ),
        (
            "session_step_lstm",
            TrainedMonitor {
                kind: MonitorKind::Lstm,
                model: MonitorModel::Lstm(paper_lstm()),
            },
        ),
    ];
    // Steady-state per-step latency of one live session: window already
    // full, scratch already warm — each iteration is push + classify.
    for (name, monitor) in &monitors {
        let mut session = MonitorSession::new(monitor, cfg, norm.clone());
        for r in &records[..WINDOW] {
            session.step(r);
        }
        let mut next = WINDOW;
        c.bench_function(name, |b| {
            b.iter(|| {
                let v = session.step(&records[next]);
                next = (next + 1) % records.len();
                if next == 0 {
                    next = WINDOW; // skip the refill region on wrap-around
                }
                v
            })
        });
    }
    // The guarded variants: identical workload behind an InputGuard plus
    // rule fallback. The delta vs the session_step_* numbers is the price
    // of input validation on the clean-path (budgeted ≤ 10%).
    for (name, monitor) in &monitors {
        let guarded_name = match *name {
            "session_step_rule" => "session_step_guarded_rule",
            "session_step_mlp" => "session_step_guarded_mlp",
            _ => "session_step_guarded_lstm",
        };
        let mut session = PipelineSession::new(MonitorSession::new(monitor, cfg, norm.clone()))
            .with_guard(GuardPolicy::aps(), RuleMonitor::new(ApsRules::default()));
        for r in &records[..WINDOW] {
            session.step(r);
        }
        let mut next = WINDOW;
        c.bench_function(guarded_name, |b| {
            b.iter(|| {
                let v = session.step(&records[next]);
                next = (next + 1) % records.len();
                if next == 0 {
                    next = WINDOW; // skip the refill region on wrap-around
                }
                v
            })
        });
    }
    // The full stage pipeline: guard → featurize → monitor → mitigate.
    // Mitigation is a pure function of the verdict plus the rule context,
    // so its clean-path price over the matching guarded session is
    // budgeted ≤ 10% (ratio entries in ci/bench_ceilings.json).
    for (name, monitor) in &monitors {
        let mitigated_name = match *name {
            "session_step_rule" => "session_step_mitigated_rule",
            "session_step_mlp" => "session_step_mitigated_mlp",
            _ => "session_step_mitigated_lstm",
        };
        let mut session = PipelineSession::new(MonitorSession::new(monitor, cfg, norm.clone()))
            .with_guard(GuardPolicy::aps(), RuleMonitor::new(ApsRules::default()))
            .with_mitigator(Mitigator::aps());
        for r in &records[..WINDOW] {
            session.step(r);
        }
        let mut next = WINDOW;
        c.bench_function(mitigated_name, |b| {
            b.iter(|| {
                let v = session.step(&records[next]);
                next = (next + 1) % records.len();
                if next == 0 {
                    next = WINDOW; // skip the refill region on wrap-around
                }
                v
            })
        });
    }
    // A fleet of 1000 concurrent patients: one pool step consumes one
    // record per session and batches every ready row through a single
    // forward pass.
    let (_, mlp_monitor) = &monitors[1];
    let mut pool = SessionPool::new(mlp_monitor, cfg, norm.clone(), 1000);
    let mut step_records: Vec<StepRecord> = Vec::with_capacity(1000);
    let mut next = 0usize;
    for _ in 0..WINDOW {
        step_records.clear();
        step_records.extend((0..1000).map(|s| records[(next + s) % records.len()]));
        pool.step(&step_records);
        next += 1;
    }
    c.bench_function("session_step_pool1k_mlp", |b| {
        b.iter(|| {
            step_records.clear();
            step_records.extend((0..1000).map(|s| records[(next + s) % records.len()]));
            let out = pool.step(&step_records);
            next += 1;
            out
        })
    });
}

fn bench_lstm_pools(c: &mut Criterion) {
    // The stateful batched LSTM engine (DESIGN.md §12): 1000 concurrent
    // sessions, one recurrent timestep per tick, packed through shared
    // gate-block GEMMs. Divide the per-iteration time by 1000 for the
    // per-session step cost; the per-session windowed equivalent is
    // `session_step_lstm`.
    let (cfg, norm) = session_featurization();
    let records = synthetic_records(512, 11);
    let lstm = paper_lstm();
    let mut pool = LstmSessionPool::new(LstmEngine::F64(&lstm), cfg, &norm, 1000);
    let mut step_records: Vec<StepRecord> = Vec::with_capacity(1000);
    let mut next = 0usize;
    // Warm one window's worth of ticks so ring buffers, recurrent state,
    // and the arena are all in steady state.
    for _ in 0..WINDOW {
        step_records.clear();
        step_records.extend((0..1000).map(|s| records[(next + s) % records.len()]));
        pool.step(&step_records);
        next += 1;
    }
    c.bench_function("session_step_pool1k_lstm", |b| {
        b.iter(|| {
            step_records.clear();
            step_records.extend((0..1000).map(|s| records[(next + s) % records.len()]));
            let out = pool.step(&step_records);
            next += 1;
            out
        })
    });
}

const COHORT_N: usize = 1000;
const COHORT_STEPS: usize = 24;

/// A 1000-member T1DS fleet built from 20 calibrated prototypes, each
/// member with its own meal schedule and CGM noise stream. The same fleet
/// feeds both the per-patient baseline and the batched engine so the two
/// benches measure identical work.
fn cohort_fleet() -> Vec<(T1dsPatient, CohortMember)> {
    let protos: Vec<T1dsPatient> = (0..20)
        .map(|pid| T1dsPatient::calibrated(pid, 2022))
        .collect();
    let mut root = SmallRng::new(0x636f_686f);
    (0..COHORT_N)
        .map(|j| {
            let mut rng = root.fork(j as u64);
            let meals = MealSchedule::generate(COHORT_STEPS, &mut rng);
            let cgm = Cgm::typical(rng.fork(1));
            (
                protos[j % protos.len()].clone(),
                CohortMember {
                    patient_id: j,
                    run_id: 0,
                    cgm,
                    pump: InsulinPump::healthy(),
                    meals,
                },
            )
        })
        .collect()
}

fn bench_cohort(c: &mut Criterion) {
    // Sampling a 1000-member T1DS cohort: the latin-hypercube draw, then
    // every member's basal calibration (14 bisection rounds of a 24 h
    // warm-up, plus the final warm-up), batched on the SoA kernels.
    c.bench_function("cohort_sample_t1ds_1k", |b| {
        b.iter(|| Cohort::sample(SimulatorKind::T1ds2013, 2022, COHORT_N))
    });
    let fleet = cohort_fleet();
    // Per-patient baseline: the campaign's scalar path, one ClosedLoop per
    // member. `sim_cohort_1k` runs the same 1000 × 24-step workload through
    // the SoA engine; the ratio of the two medians is the batching speedup
    // the CI ceiling guards.
    c.bench_function("sim_step_scalar", |b| {
        b.iter_batched(
            || fleet.clone(),
            |fleet| {
                fleet
                    .into_iter()
                    .map(|(patient, m)| {
                        ClosedLoop::new(
                            patient,
                            BasalBolusController::new(),
                            m.pump,
                            m.cgm,
                            m.meals,
                        )
                        .run(
                            COHORT_STEPS,
                            "t1ds2013",
                            m.patient_id,
                            m.run_id,
                        )
                    })
                    .collect::<Vec<_>>()
            },
            BatchSize::LargeInput,
        );
    });
    let mut engine = CohortEngine::new(SimulatorKind::T1ds2013, COHORT_STEPS);
    for (patient, member) in fleet {
        engine.push(patient, member);
    }
    c.bench_function("sim_cohort_1k", |b| {
        b.iter_batched(|| engine.clone(), |e| e.run(), BatchSize::LargeInput);
    });
    // Monitor-in-the-loop variant: every member streams through a shared
    // stateful LSTM fleet (DESIGN.md §12) via the cohort bridge. Recording
    // is off — the verdict stream is the product here, as in a deployed
    // screening campaign. The pool stays warm across iterations, so this
    // measures steady-state simulate+monitor throughput.
    let (fcfg, norm) = session_featurization();
    let lstm = paper_lstm();
    let mut pool = LstmSessionPool::new(LstmEngine::F64(&lstm), fcfg, &norm, COHORT_N);
    engine.set_recording(false);
    c.bench_function("sim_cohort_1k_monitored", |b| {
        b.iter_batched(
            || engine.clone(),
            |mut e| {
                let mut bridge = CohortLstmBridge::new(&mut pool);
                while e.advance(&mut bridge) {}
                bridge.take_verdicts()
            },
            BatchSize::LargeInput,
        );
    });
}

const SERVE_FLEET: usize = 1000;

/// A serving bundle over a hand-built [`MonitorBundle`]: the benches need
/// the shard's data path, not a trained model, so the bundle is assembled
/// directly from the paper-shaped nets and the synthetic normalizer.
fn serve_bundle(monitor: TrainedMonitor) -> ServingBundle {
    let (_, normalizer) = session_featurization();
    ServingBundle::new(MonitorBundle {
        monitor,
        normalizer,
        train_config: TrainConfig::quick_test(),
        fingerprint: 1,
    })
}

fn bench_serve(c: &mut Criterion) {
    // One iteration = one shard tick serving a 1000-session fleet: offer
    // one record per patient, drain them all, batch every ready window
    // through the bundle. Divide by 1000 for the per-record serve cost;
    // the shard-free equivalent is `session_step_pool1k_mlp`.
    let records = synthetic_records(512, 12);
    let shard_config = ShardConfig {
        queue_cap: 2 * SERVE_FLEET + 48, // pressure stays below degrade (0.5)
        drain_max: 2 * SERVE_FLEET,
        tick_budget: None,
        max_sessions: SERVE_FLEET,
        ..ShardConfig::default()
    };
    let monitors = [
        (
            "serve_shard_tick_1k_rule",
            TrainedMonitor {
                kind: MonitorKind::RuleBased,
                model: MonitorModel::Rule(RuleMonitor::new(ApsRules::default())),
            },
            shard_config,
        ),
        (
            "serve_shard_tick_1k_mlp",
            TrainedMonitor {
                kind: MonitorKind::Mlp,
                model: MonitorModel::Mlp(paper_mlp()),
            },
            shard_config,
        ),
        (
            "serve_shard_tick_1k_mlp_shed",
            TrainedMonitor {
                kind: MonitorKind::Mlp,
                model: MonitorModel::Mlp(paper_mlp()),
            },
            // Shed from the first tick: the ML model is installed but every
            // verdict takes the rule-fallback path — the floor the service
            // degrades to under sustained overload.
            ShardConfig {
                overload: OverloadPolicy {
                    shed_pressure: 0.0,
                    recover_pressure: 0.0,
                    ..OverloadPolicy::default()
                },
                ..shard_config
            },
        ),
    ];
    for (name, monitor, config) in monitors {
        let mut shard = Shard::new(config, serve_bundle(monitor));
        let mut seq = 0u32;
        let mut offer_tick = |shard: &mut Shard| {
            for p in 0..SERVE_FLEET {
                let item = IngestItem {
                    conn: p as u64,
                    patient: p as u64,
                    seq,
                    kind: IngestKind::Step(records[(seq as usize + p) % records.len()]),
                };
                shard.offer(item).expect("bench queue never fills");
            }
            seq += 1;
            shard.tick()
        };
        // Warm one window per session so every subsequent tick classifies
        // all 1000 windows (steady-state serving).
        for _ in 0..WINDOW {
            offer_tick(&mut shard);
        }
        c.bench_function(name, |b| b.iter(|| offer_tick(&mut shard)));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = record_meta, bench_training, bench_inference, bench_attacks, bench_kernels, bench_sweep, bench_sessions, bench_lstm_pools, bench_cohort, bench_serve
}
criterion_main!(benches);
