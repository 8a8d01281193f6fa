//! The sans-IO serving engine: one [`Shard`] owns a bounded ingest
//! queue, a table of live patient sessions, and the closed-loop
//! [`OverloadController`].
//!
//! The shard has **no sockets or threads**, and (optionally) no clock
//! reading reaches its output: callers [`offer`](Shard::offer) ingest
//! items and [`tick`](Shard::tick) the engine, and it answers with
//! [`OutEvent`]s. The daemon wraps it in a
//! mutex and threads; the chaos tests and the `serve_chaos` experiment
//! drive it synchronously, which is what makes overload and fault-storm
//! behaviour reproducible byte-for-byte.
//!
//! ## Degradation ladder
//!
//! Two independent mechanisms guard a tick, mirroring the per-session
//! guard ladder at service scope:
//!
//! - **Backpressure:** [`Shard::offer`] rejects step items once the
//!   queue holds [`ShardConfig::queue_cap`] entries. The caller reports
//!   the rejection to the client as an explicit `Busy` frame — load is
//!   shed at the boundary, memory stays bounded.
//! - **Load shedding:** while the controller reports
//!   [`ServiceHealth::Shedding`], ready windows are classified by the
//!   Table-I rule fallback instead of the ML model. Windows still
//!   advance, so when pressure drains the ML path resumes on exactly
//!   the state it would have had — post-recovery verdicts are
//!   bit-identical to an offline replay (asserted by the chaos suite).
//!
//! ## Sessions
//!
//! The session table is the core crate's pooled [`Executor`]: it owns
//! every slot's featurizer, input guard and pending record, and runs
//! the guard-fallback → mitigation → attribution tail every pooled
//! deployment shares. The shard adds the ingest queue, the
//! patient → slot map and routing, its counters and the controller.
//! A slot holds one pending record, so a tick drains the executor
//! before it re-pushes a pending slot and before it closes one: every
//! accepted record past warm-up gets its own verdict, in per-patient
//! order, and a session closed in the same tick as its last record
//! still gets that record's verdict.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use cpsmon_core::artifact::MonitorBundle;
use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::{Engine, Executor, FeatureConfig, GuardPolicy, HealthState, WindowStream};
use cpsmon_sim::trace::StepRecord;
use cpsmon_stl::RuleMonitor;

use crate::health::{OverloadController, OverloadPolicy, ServiceHealth};

/// A [`MonitorBundle`] prepared for serving: the bundle plus the rule
/// fallback used for guard-degraded sessions *and* for service-level
/// load shedding, and the featurization every session window uses.
#[derive(Debug, Clone)]
pub struct ServingBundle {
    bundle: MonitorBundle,
    fallback: RuleMonitor,
    feature_config: FeatureConfig,
}

impl ServingBundle {
    /// Prepares a bundle for serving. The window width comes from the
    /// bundle's own normalizer (the bundle knows what it was trained
    /// on); if the bundle *is* a rule monitor its embedded rules double
    /// as the fallback, otherwise the Table-I defaults apply.
    pub fn new(bundle: MonitorBundle) -> ServingBundle {
        let window = bundle.normalizer.mean().len() / cpsmon_core::FEATURES_PER_STEP;
        let fallback = match &bundle.monitor.model {
            MonitorModel::Rule(m) => *m,
            _ => RuleMonitor::default(),
        };
        ServingBundle {
            bundle,
            fallback,
            feature_config: FeatureConfig {
                window,
                ..FeatureConfig::default()
            },
        }
    }

    /// The wrapped bundle.
    pub fn bundle(&self) -> &MonitorBundle {
        &self.bundle
    }

    /// The dataset fingerprint the bundle was built against.
    pub fn fingerprint(&self) -> u64 {
        self.bundle.fingerprint
    }

    /// The featurization served sessions use.
    pub fn feature_config(&self) -> FeatureConfig {
        self.feature_config
    }

    /// The rule fallback (guard degradation and load shedding).
    pub fn fallback(&self) -> &RuleMonitor {
        &self.fallback
    }

    /// Flattened feature-window width (normalizer columns).
    pub fn feature_dim(&self) -> usize {
        self.bundle.normalizer.mean().len()
    }
}

/// Shard tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Ingest queue bound; offers beyond it are rejected with
    /// [`OfferError::QueueFull`] (→ `Busy` frame).
    pub queue_cap: usize,
    /// Items drained per tick — the work budget that turns queue
    /// occupancy into a meaningful pressure signal.
    pub drain_max: usize,
    /// Wall-clock budget per tick; `None` disables the deadline check,
    /// which is what the deterministic chaos harness runs under: clock
    /// readings then only feed per-verdict latency attribution, never an
    /// [`OutEvent`], a [`ShardStats`] counter or the controller.
    pub tick_budget: Option<Duration>,
    /// Overload controller thresholds.
    pub overload: OverloadPolicy,
    /// Per-session input-guard policy.
    pub guard: GuardPolicy,
    /// Session-table bound; admissions beyond it are refused.
    pub max_sessions: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            queue_cap: 1024,
            drain_max: 256,
            tick_budget: None,
            overload: OverloadPolicy::default(),
            guard: GuardPolicy::aps(),
            max_sessions: 4096,
        }
    }
}

/// What an ingest item asks the shard to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestKind {
    /// Feed one record to the patient's session.
    Step(StepRecord),
    /// Close the patient's session, freeing its slot.
    End,
}

/// One unit of ingest work, as queued by [`Shard::offer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestItem {
    /// Opaque connection id, echoed into [`OutEvent`]s so the daemon can
    /// route replies.
    pub conn: u64,
    /// Fleet-wide patient id.
    pub patient: u64,
    /// Client-side sequence number; items at or below the session's
    /// high-water mark are dropped (duplicate / stale-reorder defence).
    pub seq: u32,
    /// The work itself.
    pub kind: IngestKind,
}

/// Why [`Shard::offer`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferError {
    /// The ingest queue is at capacity — explicit backpressure; the
    /// caller should answer with a `Busy` frame.
    QueueFull {
        /// Occupancy at rejection time (= the configured cap).
        queue_len: usize,
    },
}

impl fmt::Display for OfferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfferError::QueueFull { queue_len } => {
                write!(f, "ingest queue full ({queue_len} items)")
            }
        }
    }
}

impl Error for OfferError {}

/// Something the shard wants delivered after a tick.
#[derive(Debug, Clone, PartialEq)]
pub enum OutEvent {
    /// A monitor verdict for one session step.
    Verdict {
        /// Connection to route the frame to.
        conn: u64,
        /// The session.
        patient: u64,
        /// Window-end step (0-based accepted-record index).
        step: u32,
        /// Predicted class (0 safe / 1 unsafe).
        label: u8,
        /// Probability of the unsafe class (hard 0/1 for rule verdicts).
        proba: f64,
        /// Session guard health byte (0 healthy / 1 degraded / 2 fallback).
        health: u8,
        /// Whether service-level shedding produced this verdict.
        shed: bool,
    },
    /// A session could not be admitted: the table is full.
    SessionRefused {
        /// Connection to notify.
        conn: u64,
        /// The patient whose admission was refused.
        patient: u64,
        /// Live sessions at refusal time.
        sessions: usize,
    },
}

/// Where a live slot's verdicts go, and its sequence high-water mark.
#[derive(Debug, Clone, Copy)]
struct Route {
    patient: u64,
    conn: u64,
    last_seq: Option<u32>,
}

/// Monotonic shard counters, cheap enough to bump unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Items accepted by [`Shard::offer`].
    pub offered: u64,
    /// Step items rejected with [`OfferError::QueueFull`].
    pub rejected_busy: u64,
    /// Items dropped by the sequence high-water mark (duplicates and
    /// stale reorders).
    pub dropped_stale: u64,
    /// Records rejected by the window boundary even after guard
    /// imputation (defensive; unreachable with the stock guard).
    pub invalid_samples: u64,
    /// Sessions admitted over the shard's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed (explicit end or connection teardown).
    pub sessions_closed: u64,
    /// Admissions refused because the table was full.
    pub sessions_refused: u64,
    /// Verdicts emitted.
    pub verdicts: u64,
    /// Verdicts produced by the rule path because of service-level
    /// shedding (guard fallbacks not included).
    pub shed_verdicts: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Ticks that blew their [`ShardConfig::tick_budget`].
    pub deadline_overruns: u64,
    /// Successful hot bundle installs.
    pub reloads: u64,
    /// Rejected bundle installs (width mismatch).
    pub reloads_rejected: u64,
}

/// Why [`Shard::install_bundle`] refused a replacement bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The replacement's feature-window width differs from the one live
    /// sessions were built with; installing it would corrupt every
    /// window in flight.
    WidthMismatch {
        /// Replacement bundle's flattened window width.
        got: usize,
        /// Width the serving sessions use.
        want: usize,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::WidthMismatch { got, want } => write!(
                f,
                "bundle feature width {got} does not match serving width {want}"
            ),
        }
    }
}

impl Error for InstallError {}

/// The serving engine for one slice of the patient fleet. See the
/// module docs for the degradation ladder.
pub struct Shard {
    config: ShardConfig,
    serving: ServingBundle,
    /// Bundle generation, bumped by every successful install — lets
    /// `/stats` prove which bundle produced a verdict stream.
    epoch: u64,
    queue: VecDeque<IngestItem>,
    sessions: Executor<WindowStream>,
    /// Routing per executor slot; `None` marks a free slot.
    routes: Vec<Option<Route>>,
    free: Vec<usize>,
    by_patient: HashMap<u64, usize>,
    controller: OverloadController,
    stats: ShardStats,
    events: Vec<OutEvent>,
}

impl Shard {
    /// Creates a shard serving `bundle` under `config`.
    pub fn new(config: ShardConfig, bundle: ServingBundle) -> Shard {
        let template = WindowStream::new(bundle.feature_config, bundle.bundle.normalizer.clone());
        Shard {
            controller: OverloadController::new(config.overload),
            sessions: Executor::new(template, 0).with_guards(config.guard, bundle.fallback),
            config,
            serving: bundle,
            epoch: 0,
            queue: VecDeque::new(),
            routes: Vec::new(),
            free: Vec::new(),
            by_patient: HashMap::new(),
            stats: ShardStats::default(),
            events: Vec::new(),
        }
    }

    /// The health the next tick will serve under.
    pub fn health(&self) -> ServiceHealth {
        self.controller.health()
    }

    /// Whether a [`tick`](Self::tick) has work: queued items, or a
    /// controller that must still walk back to `Healthy` — an idle tick
    /// is the calm observation it recovers on, and emits nothing.
    pub fn needs_tick(&self) -> bool {
        !self.queue.is_empty() || self.controller.health() != ServiceHealth::Healthy
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// The overload controller (transition counts for `/stats`).
    pub fn controller(&self) -> &OverloadController {
        &self.controller
    }

    /// Live session count.
    pub fn sessions(&self) -> usize {
        self.by_patient.len()
    }

    /// Current ingest-queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bundle generation (0 = the boot bundle).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The bundle currently serving.
    pub fn serving(&self) -> &ServingBundle {
        &self.serving
    }

    /// Queues one ingest item, or rejects it if the queue is at
    /// capacity. Rejection is the backpressure signal: the daemon turns
    /// it into a `Busy` frame and the item is dropped here, not
    /// buffered.
    pub fn offer(&mut self, item: IngestItem) -> Result<(), OfferError> {
        if self.queue.len() >= self.config.queue_cap {
            self.stats.rejected_busy += 1;
            return Err(OfferError::QueueFull {
                queue_len: self.queue.len(),
            });
        }
        self.stats.offered += 1;
        self.queue.push_back(item);
        Ok(())
    }

    /// Runs one engine tick: drains up to [`ShardConfig::drain_max`]
    /// queued items through the session table, classifies every window
    /// that became ready (ML batch, or rule path when shedding), feeds
    /// the controller, and returns the tick's events.
    pub fn tick(&mut self) -> Vec<OutEvent> {
        // The one clock reading a tick takes: the deadline reference and
        // the arrival instant of every record the tick pushes (it feeds
        // only latency attribution, never an event or a decision).
        let started = Instant::now();
        let shed = self.controller.health() == ServiceHealth::Shedding;
        self.events.clear();

        // Pressure is demand at tick entry, not the post-drain residue:
        // a full queue reads 1.0 even though the drain budget will eat
        // part of it, so `shed_pressure` fires exactly when offers are
        // about to bounce — the post-drain residue can never exceed
        // `1 - drain_max/queue_cap` and would leave Shedding unreachable.
        let demand = self.queue.len();
        let budget = self.config.drain_max.min(self.queue.len());
        for _ in 0..budget {
            let item = self.queue.pop_front().expect("sized by budget");
            self.apply(item, started, shed);
        }
        self.drain(shed);

        let overrun = self
            .config
            .tick_budget
            .is_some_and(|budget| started.elapsed() > budget);
        if overrun {
            self.stats.deadline_overruns += 1;
        }
        let pressure = if self.config.queue_cap == 0 {
            0.0
        } else {
            demand as f64 / self.config.queue_cap as f64
        };
        self.controller.observe(pressure, overrun);
        self.stats.ticks += 1;
        std::mem::take(&mut self.events)
    }

    /// Routes one drained item into its slot.
    fn apply(&mut self, item: IngestItem, at: Instant, shed: bool) {
        match item.kind {
            IngestKind::End => {
                if let Some(&idx) = self.by_patient.get(&item.patient) {
                    // End frames are not seq-deduped: closing twice is
                    // harmless, and a storm-duplicated End must still
                    // close.
                    if self.sessions.is_pending(idx) {
                        self.drain(shed);
                    }
                    self.close_slot(idx, item.patient);
                }
            }
            IngestKind::Step(rec) => {
                let Some(idx) = self.admit(&item) else {
                    return;
                };
                let route = self.routes[idx].expect("mapped slots are live");
                let stale = route.last_seq.is_some_and(|hw| item.seq <= hw);
                // A pending record is classified before the slot takes
                // another one, and before a reconnect re-routes it.
                if self.sessions.is_pending(idx) && (!stale || route.conn != item.conn) {
                    self.drain(shed);
                }
                let route = self.routes[idx].as_mut().expect("mapped slots are live");
                // A reconnect adopts the session: verdicts follow the
                // most recent connection that fed it.
                route.conn = item.conn;
                if stale {
                    self.stats.dropped_stale += 1;
                    return;
                }
                route.last_seq = Some(item.seq);
                if self.sessions.push(idx, &rec, at).is_err() {
                    // The guard imputes every channel the window checks,
                    // so this is unreachable with the stock policy —
                    // counted, not panicked, in case a custom policy
                    // lets something through.
                    self.stats.invalid_samples += 1;
                }
            }
        }
    }

    /// The patient's slot, admitting it into a free (or new) slot if the
    /// table has room; refusals are counted and reported.
    fn admit(&mut self, item: &IngestItem) -> Option<usize> {
        if let Some(&idx) = self.by_patient.get(&item.patient) {
            return Some(idx);
        }
        let live = self.by_patient.len();
        if live >= self.config.max_sessions {
            self.stats.sessions_refused += 1;
            self.events.push(OutEvent::SessionRefused {
                conn: item.conn,
                patient: item.patient,
                sessions: live,
            });
            return None;
        }
        let route = Some(Route {
            patient: item.patient,
            conn: item.conn,
            last_seq: None,
        });
        // Freed slots were reset when they were closed.
        let idx = match self.free.pop() {
            Some(idx) => {
                self.routes[idx] = route;
                idx
            }
            None => {
                self.routes.push(route);
                self.sessions.add_slot()
            }
        };
        self.stats.sessions_opened += 1;
        self.by_patient.insert(item.patient, idx);
        Some(idx)
    }

    /// Classifies every pending slot in one batch — the ML model, or the
    /// rule fallback when the bundle is rule-based or the tick sheds —
    /// and emits one verdict event per slot. Because the forward kernels
    /// are row-independent, the verdicts are bit-identical to the same
    /// sessions stepped individually offline.
    fn drain(&mut self, shed: bool) {
        let engine = if shed {
            Engine::Rule(&self.serving.fallback)
        } else {
            Engine::of(&self.serving.bundle.monitor)
        };
        let (events, stats, routes) = (&mut self.events, &mut self.stats, &self.routes);
        self.sessions.drain(engine, |idx, gv| {
            let route = routes[idx].expect("pending slots are live");
            stats.verdicts += 1;
            stats.shed_verdicts += u64::from(shed);
            events.push(OutEvent::Verdict {
                conn: route.conn,
                patient: route.patient,
                step: gv.verdict.step as u32,
                label: gv.verdict.label as u8,
                proba: gv.verdict.proba,
                health: match gv.health {
                    HealthState::Healthy => 0,
                    HealthState::Degraded => 1,
                    HealthState::Fallback => 2,
                },
                shed,
            });
        });
    }

    fn close_slot(&mut self, idx: usize, patient: u64) {
        self.by_patient.remove(&patient);
        self.routes[idx] = None;
        self.sessions.reset_slot(idx);
        self.free.push(idx);
        self.stats.sessions_closed += 1;
    }

    /// Closes every session fed by connection `conn` (daemon teardown
    /// path: the peer vanished, its sessions must not leak).
    pub fn close_conn(&mut self, conn: u64) -> usize {
        let patients: Vec<u64> = self
            .by_patient
            .iter()
            .filter(|&(_, &idx)| self.routes[idx].is_some_and(|r| r.conn == conn))
            .map(|(&p, _)| p)
            .collect();
        for p in &patients {
            let idx = self.by_patient[p];
            self.close_slot(idx, *p);
        }
        // Purge queued work for the dead connection so a storm of
        // disconnects cannot replay into fresh sessions.
        self.queue.retain(|item| item.conn != conn);
        patients.len()
    }

    /// Atomically swaps the serving bundle. Live sessions keep their
    /// accumulated windows — every slot's normalization statistics and
    /// fallback rules are re-pointed, free slots included — and an
    /// incompatible bundle is rejected *before* any session is touched,
    /// so a failed install leaves the shard serving the previous bundle
    /// untouched.
    pub fn install_bundle(&mut self, next: ServingBundle) -> Result<u64, InstallError> {
        let want = self.serving.feature_dim();
        let got = next.feature_dim();
        if got != want {
            self.stats.reloads_rejected += 1;
            return Err(InstallError::WidthMismatch { got, want });
        }
        self.sessions.reload(&next.bundle.normalizer, next.fallback);
        self.serving = next;
        self.epoch += 1;
        self.stats.reloads += 1;
        Ok(self.epoch)
    }
}
