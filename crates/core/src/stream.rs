//! Streaming monitor sessions: the online inference layer.
//!
//! The batch pipeline ([`crate::dataset`] → [`TrainedMonitor::predict`])
//! evaluates monitors *offline*, over windows extracted from completed
//! traces. This module provides the deployment form the paper assumes — a
//! monitor running *inside* the control loop, predicting at every 5-minute
//! step:
//!
//! - [`WindowStream`]: per-patient featurizer state (feature ring buffer,
//!   incremental `bg/iob/rate` deltas, normalization) that accepts one
//!   [`StepRecord`] at a time and assembles the same flattened windows the
//!   batch path builds.
//! - [`MonitorSession`]: a [`WindowStream`] plus a borrowed
//!   [`TrainedMonitor`], emitting a [`Verdict`] per step once the window
//!   fills. ML monitors classify through the reusable-scratch fast path
//!   ([`cpsmon_nn::MlpNet::predict_proba_scratch`] /
//!   [`cpsmon_nn::LstmNet::predict_proba_scratch`]), so the steady-state
//!   per-step cost allocates nothing.
//! - [`SessionPool`]: many concurrent sessions whose ready rows are batched
//!   through **one** [`cpsmon_nn::GradModel::predict_proba`] call per step.
//! - [`LstmStreamSession`] / [`LstmSessionPool`]: the *stateful* LSTM
//!   serving engine — hidden/cell state carried across records
//!   (one timestep of compute per record instead of a full-window
//!   recompute), pooled structure-of-arrays so a whole fleet advances
//!   through one fused GEMM per gate block
//!   ([`LstmNet::step_stream`](cpsmon_nn::LstmNet::step_stream)). See
//!   DESIGN.md §12.
//!
//! Both pools are thin facades over the one pooled executor,
//! [`crate::executor::Executor`].
//!
//! ## Batch-equivalence contract
//!
//! Streaming verdicts are **bit-identical** to the batch path over the same
//! trace. This is by construction, not by tolerance: both paths share the
//! per-step featurization ([`crate::features::step_features`]), the same
//! row normalization ([`Normalizer::transform_row`]), and forward kernels
//! that are row-independent and chunk-transparent (see [`cpsmon_nn::par`]).
//! The workspace-level `streaming` test suite proves the contract for every
//! monitor kind and both simulators.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use crate::dataset::LabeledDataset;
use crate::executor::{Engine, Executor};
use crate::features::{step_features, FeatureConfig, Normalizer, FEATURES_PER_STEP};
use crate::guard::{GuardPolicy, HealthState};
use crate::monitor::{MonitorModel, TrainedMonitor};
use crate::pipeline::{Action, LatencyAttribution, Mitigator};
use cpsmon_nn::{LstmNet, LstmNetScratch, LstmStreamState, Matrix, MlpScratch};
use cpsmon_sim::trace::StepRecord;
use cpsmon_stl::{ApsContext, RuleMonitor};

/// A non-finite sensor sample reached a session boundary that has no
/// guard in front of it.
///
/// The infallible entry points ([`WindowStream::push`],
/// [`StepStream::push`]) panic on this condition because silently admitting
/// a NaN/inf would poison every later window in the ring; the fallible
/// `try_*` counterparts return this typed error instead, so untrusted
/// per-step input (e.g. frames decoded off the wire by `cpsmon-serve`) can
/// surface as a degraded-mode verdict rather than aborting the session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidSample {
    /// The offending CGM reading.
    pub bg: f64,
    /// The offending insulin-on-board estimate.
    pub iob: f64,
    /// The offending delivered rate.
    pub rate: f64,
}

impl InvalidSample {
    fn check(rec: &StepRecord) -> Result<(), InvalidSample> {
        if rec.bg_sensor.is_finite() && rec.iob.is_finite() && rec.delivered_rate.is_finite() {
            Ok(())
        } else {
            Err(InvalidSample {
                bg: rec.bg_sensor,
                iob: rec.iob,
                rate: rec.delivered_rate,
            })
        }
    }
}

impl fmt::Display for InvalidSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "non-finite sensor input at session boundary \
             (bg={}, iob={}, rate={}); wrap the session in an input guard \
             to impute invalid samples",
            self.bg, self.iob, self.rate
        )
    }
}

impl Error for InvalidSample {}

/// One streaming prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Trace step the verdict's window ends at (0-based).
    pub step: usize,
    /// Predicted class (0 safe / 1 unsafe).
    pub label: usize,
    /// Predicted probability of the unsafe class. The rule-based monitor is
    /// not probabilistic; it reports its hard label as 0.0 / 1.0.
    pub proba: f64,
    /// Wall-clock cost of producing this verdict: featurization plus
    /// classification for [`MonitorSession::step`]. Pooled verdicts report
    /// their *attributed* share — the session's queue wait (push to
    /// classify start) plus the batched forward pass divided by the number
    /// of rows that shared it — so a 1000-session pool tick no longer
    /// charges every session the full batch time. Always exactly
    /// `attribution.total()`.
    pub latency: Duration,
    /// Corrective action derived by the mitigation stage
    /// ([`Action::None`] when no [`Mitigator`] is armed — mitigation
    /// never alters `label`/`proba`, only annotates).
    pub action: Action,
    /// Stage-by-stage breakdown of `latency`.
    pub attribution: LatencyAttribution,
}

/// Per-patient streaming featurizer: consumes one [`StepRecord`] at a time
/// and maintains the most recent flattened feature window, raw and
/// normalized, exactly as [`FeatureConfig::windows`] would have built it
/// from the completed trace.
///
/// The per-step `bg/iob/rate` deltas are computed incrementally from the
/// previously pushed record through the shared
/// [`step_features`] — the same function the batch
/// extractor applies — so a streamed window is bit-identical to its batch
/// counterpart.
#[derive(Debug, Clone)]
pub struct WindowStream {
    cfg: FeatureConfig,
    normalizer: Normalizer,
    /// Circular buffer of the last `window` per-step feature vectors;
    /// `head` is the slot the *next* push overwrites (= oldest entry).
    ring: Vec<[f64; FEATURES_PER_STEP]>,
    head: usize,
    filled: usize,
    prev: Option<StepRecord>,
    steps_seen: usize,
    raw: Vec<f64>,
    x: Vec<f64>,
    /// Rule context of `raw`, aggregated once per step while the window
    /// is hot in cache; every consumer (rule monitor, guard fallback,
    /// mitigation) reads this copy.
    ctx: ApsContext,
}

impl WindowStream {
    /// Creates a featurizer. `normalizer` must be the one fitted with the
    /// monitor's training data (see [`LabeledDataset::normalizer`]).
    pub fn new(cfg: FeatureConfig, normalizer: Normalizer) -> Self {
        let raw = vec![0.0; cfg.window * FEATURES_PER_STEP];
        Self {
            cfg,
            normalizer,
            ring: vec![[0.0; FEATURES_PER_STEP]; cfg.window],
            head: 0,
            filled: 0,
            prev: None,
            steps_seen: 0,
            ctx: cfg.context_of(&raw),
            x: raw.clone(),
            raw,
        }
    }

    /// Feeds one record. Returns the window-end step once `window` records
    /// have accumulated (every step from then on), or `None` while the ring
    /// is still filling.
    ///
    /// # Panics
    ///
    /// Panics on non-finite sensor input — a NaN/inf would silently flow
    /// through normalization into the network and poison every later
    /// window in the ring. Deployments with unreliable inputs should
    /// sanitize through an [`InputGuard`](crate::guard::InputGuard) (a
    /// guarded [`PipelineSession`](crate::pipeline::PipelineSession) or
    /// pool) first, or use [`try_push`](Self::try_push) to receive the
    /// typed [`InvalidSample`] error instead.
    pub fn push(&mut self, rec: &StepRecord) -> Option<usize> {
        match self.try_push(rec) {
            Ok(end) => end,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`push`](Self::push) for untrusted input: a non-finite sample is
    /// rejected with a typed [`InvalidSample`] error, leaving the ring,
    /// deltas, and step count untouched — the caller can impute or degrade
    /// and keep the session alive.
    pub fn try_push(&mut self, rec: &StepRecord) -> Result<Option<usize>, InvalidSample> {
        InvalidSample::check(rec)?;
        // The batch extractor uses the record itself as "previous" for the
        // first step of a trace (all deltas exactly 0) — mirror that here.
        let prev = self.prev.unwrap_or(*rec);
        self.ring[self.head] = step_features(rec, &prev);
        self.head = (self.head + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());
        self.prev = Some(*rec);
        let end = self.steps_seen;
        self.steps_seen += 1;
        if self.filled < self.ring.len() {
            return Ok(None);
        }
        // Unroll the ring chronologically; after the increment above `head`
        // points at the oldest entry.
        for (k, chunk) in self.raw.chunks_exact_mut(FEATURES_PER_STEP).enumerate() {
            chunk.copy_from_slice(&self.ring[(self.head + k) % self.ring.len()]);
        }
        self.x.copy_from_slice(&self.raw);
        self.normalizer.transform_row(&mut self.x);
        self.ctx = self.cfg.context_of(&self.raw);
        Ok(Some(end))
    }

    /// Swaps the normalization statistics in place — the hot-reload seam:
    /// a freshly installed [`MonitorBundle`](crate::artifact::MonitorBundle)
    /// brings its own normalizer, and live sessions must start normalizing
    /// with it without losing their accumulated window state. The current
    /// complete window (if any) is re-normalized immediately, so the next
    /// classification already sees the new statistics.
    ///
    /// # Panics
    ///
    /// Panics if the new normalizer's width differs from the window width
    /// this stream was built with (incompatible bundles must be rejected
    /// before they reach live sessions).
    pub fn set_normalizer(&mut self, normalizer: Normalizer) {
        assert_eq!(
            normalizer.mean().len(),
            self.raw.len(),
            "replacement normalizer width does not match the feature window"
        );
        self.normalizer = normalizer;
        if self.is_ready() {
            self.x.copy_from_slice(&self.raw);
            self.normalizer.transform_row(&mut self.x);
        }
    }

    /// The latest complete window, normalized — the monitor-input row.
    pub fn window_x(&self) -> &[f64] {
        &self.x
    }

    /// Rule context aggregated from the latest complete window (Eq. 2's
    /// `f(μ(X_t))`), via the same [`FeatureConfig::context_of`] the batch
    /// path uses.
    pub fn context(&self) -> ApsContext {
        self.ctx
    }

    /// Records consumed so far.
    pub fn steps_seen(&self) -> usize {
        self.steps_seen
    }

    /// Whether a complete window is available.
    pub fn is_ready(&self) -> bool {
        self.filled == self.ring.len()
    }

    /// Forgets all state (e.g. at a patient hand-over): the next window
    /// fills from scratch.
    pub fn reset(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.prev = None;
        self.steps_seen = 0;
    }
}

/// Reusable classification scratch matching the session's model kind.
#[derive(Debug, Clone)]
enum NetScratch {
    Rule,
    Mlp(MlpScratch),
    Lstm(LstmNetScratch),
}

impl NetScratch {
    fn for_model(model: &MonitorModel) -> Self {
        match model {
            MonitorModel::Rule(_) => NetScratch::Rule,
            MonitorModel::Mlp(_) => NetScratch::Mlp(MlpScratch::default()),
            MonitorModel::Lstm(_) => NetScratch::Lstm(LstmNetScratch::default()),
        }
    }
}

/// Row argmax with the same tie-breaking as
/// [`Matrix::argmax_rows`] (first strictly-greatest element wins), applied
/// to a single probability row.
pub(crate) fn argmax_row(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// A live monitor attached to one patient stream: per-patient featurizer
/// state plus a borrowed [`TrainedMonitor`]. Feed it one [`StepRecord`] per
/// control cycle; once the 6-step window fills it emits a [`Verdict`] per
/// step whose label and probability are bit-identical to the batch
/// `predict` path over the same trace.
///
/// To observe a running simulation, pass a closure to
/// [`cpsmon_sim::engine::ClosedLoop::run_observed`]:
///
/// ```no_run
/// # use cpsmon_core::stream::MonitorSession;
/// # fn demo(mut session: MonitorSession<'_>, sim: cpsmon_sim::ClosedLoop<
/// #     cpsmon_sim::glucosym::GlucosymPatient, cpsmon_sim::openaps::OpenApsController>) {
/// let mut verdicts = Vec::new();
/// sim.run_observed(144, "glucosym", 0, 0, &mut |_step: usize, rec: &_| {
///     if let Some(v) = session.step(rec) {
///         verdicts.push(v);
///     }
/// });
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MonitorSession<'m> {
    monitor: &'m TrainedMonitor,
    stream: WindowStream,
    scratch: NetScratch,
    xrow: Matrix,
}

impl<'m> MonitorSession<'m> {
    /// Creates a session for a monitor with explicit featurization
    /// parameters.
    pub fn new(monitor: &'m TrainedMonitor, cfg: FeatureConfig, normalizer: Normalizer) -> Self {
        let dim = cfg.window * FEATURES_PER_STEP;
        Self {
            monitor,
            stream: WindowStream::new(cfg, normalizer),
            scratch: NetScratch::for_model(&monitor.model),
            xrow: Matrix::zeros(1, dim),
        }
    }

    /// Creates a session using the featurization the monitor was trained
    /// with.
    pub fn for_dataset(monitor: &'m TrainedMonitor, ds: &LabeledDataset) -> Self {
        Self::new(monitor, ds.feature_config, ds.normalizer.clone())
    }

    /// The monitor this session wraps.
    pub fn monitor(&self) -> &'m TrainedMonitor {
        self.monitor
    }

    /// The underlying featurizer (e.g. for inspecting the current window).
    pub fn window(&self) -> &WindowStream {
        &self.stream
    }

    /// Feeds one record; returns a verdict once the window is full.
    ///
    /// # Panics
    ///
    /// Panics on non-finite sensor input (see [`WindowStream::push`]); use
    /// [`try_step`](Self::try_step) for untrusted input.
    pub fn step(&mut self, rec: &StepRecord) -> Option<Verdict> {
        self.step_timed(rec).map(|(v, _)| v)
    }

    /// Fallible [`step`](Self::step): non-finite input surfaces as a typed
    /// [`InvalidSample`] error instead of a panic, leaving the session
    /// state untouched so the caller can degrade and keep serving.
    pub fn try_step(&mut self, rec: &StepRecord) -> Result<Option<Verdict>, InvalidSample> {
        Ok(self.try_step_timed(rec)?.map(|(v, _)| v))
    }

    /// [`step`](Self::step), also returning the instant the compute
    /// measurement ended — downstream stages time themselves against it
    /// instead of paying an extra clock read per step.
    pub fn step_timed(&mut self, rec: &StepRecord) -> Option<(Verdict, Instant)> {
        match self.try_step_timed(rec) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`step_timed`](Self::step_timed) with the typed [`InvalidSample`]
    /// error instead of the boundary panic.
    pub fn try_step_timed(
        &mut self,
        rec: &StepRecord,
    ) -> Result<Option<(Verdict, Instant)>, InvalidSample> {
        let t0 = Instant::now();
        let Some(end) = self.stream.try_push(rec)? else {
            return Ok(None);
        };
        let (label, proba) = match (&self.monitor.model, &mut self.scratch) {
            (MonitorModel::Rule(m), NetScratch::Rule) => {
                let label = m.predict(&self.stream.context());
                (label, label as f64)
            }
            (MonitorModel::Mlp(net), NetScratch::Mlp(s)) => {
                self.xrow.row_mut(0).copy_from_slice(self.stream.window_x());
                let p = net.predict_proba_scratch(&self.xrow, s);
                (argmax_row(p.row(0)), p.get(0, 1))
            }
            (MonitorModel::Lstm(net), NetScratch::Lstm(s)) => {
                self.xrow.row_mut(0).copy_from_slice(self.stream.window_x());
                let p = net.predict_proba_scratch(&self.xrow, s);
                (argmax_row(p.row(0)), p.get(0, 1))
            }
            _ => unreachable!("scratch kind matches model kind by construction"),
        };
        let ended = Instant::now();
        let attribution = LatencyAttribution::compute_only(ended - t0);
        Ok(Some((
            Verdict {
                step: end,
                label,
                proba,
                latency: attribution.total(),
                action: Action::None,
                attribution,
            },
            ended,
        )))
    }

    /// Resets the featurizer state, keeping the monitor and warm scratch.
    pub fn reset(&mut self) {
        self.stream.reset();
    }
}

/// Many concurrent [`WindowStream`]s (one per patient) sharing one monitor.
/// Each [`step`](Self::step) consumes one record per session and classifies
/// every ready row through a **single** batched
/// [`cpsmon_nn::GradModel::predict_proba`] call — the serving layout for a fleet of
/// patients, where per-session forward passes would waste the matmul
/// kernel's blocking.
///
/// Because the forward kernels are row-independent, pooled verdicts are
/// bit-identical to the same sessions stepped individually.
///
/// Records arrive through [`push`](Self::push) (or the
/// [`step`](Self::step) convenience that pushes one record per session);
/// [`drain_ready`](Self::drain_ready) classifies everything queued since
/// the last drain in one batch and attributes latency per session: queue
/// wait plus an equal share of the batched forward pass. The pool is a
/// facade over the shared [`Executor`].
pub struct SessionPool<'m> {
    monitor: &'m TrainedMonitor,
    exec: Executor<WindowStream>,
}

impl<'m> SessionPool<'m> {
    /// Creates `n` sessions with explicit featurization parameters.
    pub fn new(
        monitor: &'m TrainedMonitor,
        cfg: FeatureConfig,
        normalizer: Normalizer,
        n: usize,
    ) -> Self {
        Self {
            monitor,
            exec: Executor::new(WindowStream::new(cfg, normalizer), n),
        }
    }

    /// Arms per-session input guards with a shared policy and a rule
    /// fallback for slots that degrade to [`HealthState::Fallback`] —
    /// the pooled form of the pipeline's guard stage.
    pub fn with_guards(mut self, policy: GuardPolicy, fallback: RuleMonitor) -> Self {
        self.exec = self.exec.with_guards(policy, fallback);
        self
    }

    /// Arms the mitigation stage: every drained verdict carries the
    /// [`Action`] the mitigator derives for it. Classification is
    /// untouched, so armed pools stay bit-identical to unarmed ones.
    pub fn with_mitigator(mut self, mitigator: Mitigator) -> Self {
        self.exec = self.exec.with_mitigator(mitigator);
        self
    }

    /// Creates `n` sessions using the featurization the monitor was trained
    /// with.
    pub fn for_dataset(monitor: &'m TrainedMonitor, ds: &LabeledDataset, n: usize) -> Self {
        Self::new(monitor, ds.feature_config, ds.normalizer.clone(), n)
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// Whether the pool has no sessions.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// Feeds one record to session `i`. Returns `true` when the session's
    /// window is complete and a verdict will be emitted by the next
    /// [`drain_ready`](Self::drain_ready).
    ///
    /// Pushing the same session again before draining just slides its
    /// window one more step — only the latest window is classified.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or on non-finite input to an
    /// unguarded pool (see [`WindowStream::push`]).
    pub fn push(&mut self, i: usize, rec: &StepRecord) -> bool {
        self.exec
            .push(i, rec, Instant::now())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Classifies every session whose window completed since the last
    /// drain, all in one batched forward pass, and runs the per-slot
    /// fallback/mitigation tail. Returns one entry per session: `None` if
    /// nothing was queued for it.
    ///
    /// Each verdict's latency is attributed per session: its queue wait
    /// (push to classify start) plus `batch time / ready rows` plus its
    /// own mitigation time — not the whole pool step, so pooled latencies
    /// are comparable to [`MonitorSession::step`] ones.
    pub fn drain_ready_guarded(&mut self) -> Vec<Option<GuardedVerdict>> {
        let mut out = vec![None; self.exec.len()];
        self.exec
            .drain(Engine::of(self.monitor), |i, gv| out[i] = Some(gv));
        out
    }

    /// [`drain_ready_guarded`](Self::drain_ready_guarded) stripped to the
    /// bare verdicts — the historical pool interface.
    pub fn drain_ready(&mut self) -> Vec<Option<Verdict>> {
        self.drain_ready_guarded()
            .into_iter()
            .map(|o| o.map(|g| g.verdict))
            .collect()
    }

    /// Resets one session end to end: featurizer, guard slot, and any
    /// queued record, so neither a stale pending tick (which the next
    /// drain would classify against the reset stream) nor the old trace's
    /// staleness budget survives into the next trace.
    pub fn reset_session(&mut self, i: usize) {
        self.exec.reset_slot(i);
    }

    /// Advances every session by one record (`records[i]` feeds session
    /// `i`) and drains: returns one entry per session, `None` while its
    /// window is filling, otherwise its verdict for this step. All ready
    /// rows share one batched forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `records.len() != self.len()`.
    pub fn step(&mut self, records: &[StepRecord]) -> Vec<Option<Verdict>> {
        assert_eq!(records.len(), self.exec.len(), "one record per session");
        for (i, rec) in records.iter().enumerate() {
            self.push(i, rec);
        }
        self.drain_ready()
    }
}

/// A [`Verdict`] annotated with the guard's per-step health assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedVerdict {
    /// The verdict (the rule fallback's when `health` is
    /// [`HealthState::Fallback`], the wrapped monitor's otherwise).
    pub verdict: Verdict,
    /// Session health at this step.
    pub health: HealthState,
    /// Whether any input channel was imputed this step.
    pub imputed: bool,
}

/// Per-record featurizer for the *stateful* LSTM engine: one normalized
/// feature row per pushed record, plus a raw ring of the last `window`
/// per-step features so the rule fallback's [`ApsContext`] stays available.
///
/// Unlike [`WindowStream`] — which assembles the full flattened window the
/// batch extractor builds — this normalizes each record with the *final*
/// timestep's column statistics ([`Normalizer::tail`]): the stateful engine
/// carries its own temporal memory in `h`/`c`, so the input at every tick
/// is "the current record", the position whose training-time distribution
/// is the window's last slot.
///
/// Until the ring fills, the missing older slots are padded with the first
/// record's features (a constant-history assumption), so
/// [`context`](Self::context) is well-defined from the very first push.
#[derive(Debug, Clone)]
pub struct StepStream {
    cfg: FeatureConfig,
    tail: Normalizer,
    ring: Vec<[f64; FEATURES_PER_STEP]>,
    head: usize,
    filled: usize,
    prev: Option<StepRecord>,
    steps_seen: usize,
    raw: Vec<f64>,
    x: [f64; FEATURES_PER_STEP],
}

impl StepStream {
    /// Creates a per-record featurizer. `normalizer` is the monitor's full
    /// windowed normalizer (`window × FEATURES_PER_STEP` columns); its tail
    /// is extracted here.
    ///
    /// # Panics
    ///
    /// Panics if the normalizer width does not match `cfg.window`.
    pub fn new(cfg: FeatureConfig, normalizer: &Normalizer) -> Self {
        assert_eq!(
            normalizer.mean().len(),
            cfg.window * FEATURES_PER_STEP,
            "normalizer width does not match the feature window"
        );
        Self {
            cfg,
            tail: normalizer.tail(FEATURES_PER_STEP),
            ring: vec![[0.0; FEATURES_PER_STEP]; cfg.window],
            head: 0,
            filled: 0,
            prev: None,
            steps_seen: 0,
            raw: vec![0.0; cfg.window * FEATURES_PER_STEP],
            x: [0.0; FEATURES_PER_STEP],
        }
    }

    /// Feeds one record and returns its 0-based step index. Every push
    /// yields a usable feature row — stateful sessions emit verdicts from
    /// the first record.
    ///
    /// # Panics
    ///
    /// Panics on non-finite sensor input, like [`WindowStream::push`];
    /// guard unreliable inputs ([`LstmSessionPool::with_guards`]), or use
    /// [`try_push`](Self::try_push) for the typed error.
    pub fn push(&mut self, rec: &StepRecord) -> usize {
        match self.try_push(rec) {
            Ok(step) => step,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`push`](Self::push) for untrusted input: rejects non-finite
    /// samples with a typed [`InvalidSample`] error instead of panicking,
    /// leaving the featurizer state untouched.
    pub fn try_push(&mut self, rec: &StepRecord) -> Result<usize, InvalidSample> {
        InvalidSample::check(rec)?;
        let prev = self.prev.unwrap_or(*rec);
        let feats = step_features(rec, &prev);
        if self.filled == 0 {
            // Constant-history padding: the context window starts as if the
            // first record had been seen `window` times.
            self.ring.fill(feats);
        }
        self.ring[self.head] = feats;
        self.head = (self.head + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());
        self.prev = Some(*rec);
        self.x = feats;
        self.tail.transform_row(&mut self.x);
        let step = self.steps_seen;
        self.steps_seen += 1;
        Ok(step)
    }

    /// The latest record's normalized feature row — the engine input.
    pub fn features(&self) -> &[f64] {
        &self.x
    }

    /// Rule context aggregated from the raw ring (padded until it fills),
    /// via the same [`FeatureConfig::context_of`] the batch path uses.
    pub fn context(&mut self) -> ApsContext {
        for (k, chunk) in self.raw.chunks_exact_mut(FEATURES_PER_STEP).enumerate() {
            chunk.copy_from_slice(&self.ring[(self.head + k) % self.ring.len()]);
        }
        self.cfg.context_of(&self.raw)
    }

    /// Records consumed so far.
    pub fn steps_seen(&self) -> usize {
        self.steps_seen
    }

    /// Forgets all state; the next push starts a fresh session.
    pub fn reset(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.prev = None;
        self.steps_seen = 0;
    }
}

/// The network behind a stateful LSTM session or pool, as its
/// constructors take it. The session and pool constructors unwrap it at
/// once and step the borrowed network directly.
pub enum LstmEngine<'m> {
    /// Borrowed f64 network — bit-identical to the training-time forward.
    F64(&'m LstmNet),
}

/// One *stateful* streaming LSTM session: carries `h`/`c` across records
/// instead of recomputing a window per step, so each record costs one
/// timestep of LSTM compute (~1/6 of the windowed path) and a verdict is
/// emitted for every record from the first.
///
/// Note the semantics differ from [`MonitorSession`] with an LSTM monitor:
/// verdicts reflect the whole stream since the session started, not a
/// sliding 6-step window, so they are *not* comparable bit-for-bit to the
/// batch path. What **is** guaranteed (and property-tested) is
/// pool-transparency: this session and any [`LstmSessionPool`] slot fed
/// the same records produce bit-identical verdicts.
pub struct LstmStreamSession<'m> {
    net: &'m LstmNet,
    stream: StepStream,
    state: LstmStreamState,
    x: Matrix,
}

impl<'m> LstmStreamSession<'m> {
    /// Creates a stateful session with explicit featurization parameters.
    pub fn new(engine: LstmEngine<'m>, cfg: FeatureConfig, normalizer: &Normalizer) -> Self {
        let LstmEngine::F64(net) = engine;
        Self {
            net,
            stream: StepStream::new(cfg, normalizer),
            state: net.stream_state(1),
            x: Matrix::zeros(1, net.feature_dim()),
        }
    }

    /// Creates a stateful session using the featurization the monitor was
    /// trained with.
    pub fn for_dataset(engine: LstmEngine<'m>, ds: &LabeledDataset) -> Self {
        Self::new(engine, ds.feature_config, &ds.normalizer)
    }

    /// Feeds one record; always yields a verdict.
    pub fn step(&mut self, rec: &StepRecord) -> Verdict {
        let t0 = Instant::now();
        let step = self.stream.push(rec);
        self.x.row_mut(0).copy_from_slice(self.stream.features());
        let probs = self.net.step_stream(&self.x, &mut self.state);
        let attribution = LatencyAttribution::compute_only(t0.elapsed());
        Verdict {
            step,
            label: argmax_row(probs.row(0)),
            proba: probs.get(0, 1),
            latency: attribution.total(),
            action: Action::None,
            attribution,
        }
    }

    /// Resets featurizer and recurrent state.
    pub fn reset(&mut self) {
        self.stream.reset();
        self.state.reset();
    }
}

/// A fleet of *stateful* LSTM sessions advanced in lockstep: the
/// hidden/cell state of every session lives as one row of
/// structure-of-arrays matrices ([`LstmStreamState`]), and each
/// [`drain_ready`](Self::drain_ready) gathers the pushed rows, advances
/// them through **one** fused GEMM per gate block (the M dimension is the
/// number of ready sessions), and scatters the state back. The pool is a
/// facade over the shared [`Executor`], which owns the per-slot
/// featurizers and guards.
///
/// Because every kernel in the engine is row-independent, a pooled
/// session's verdict stream is bit-identical to the same records fed to a
/// standalone [`LstmStreamSession`] — regardless of pool size or which
/// other sessions happen to be ready in the same tick (property-tested in
/// the workspace `streaming` suite).
///
/// With [`with_guards`](Self::with_guards) the pool becomes the guarded
/// deployment form: each slot's records are sanitized by its own
/// [`InputGuard`](crate::guard::InputGuard), and while a slot is in [`HealthState::Fallback`] its
/// emitted verdict comes from the knowledge-only rule monitor evaluated on
/// the imputed context (the recurrent state still advances on imputed
/// inputs, so recovery is seamless).
pub struct LstmSessionPool<'m> {
    net: &'m LstmNet,
    state: LstmStreamState,
    exec: Executor<StepStream>,
}

impl<'m> LstmSessionPool<'m> {
    /// Creates `n` stateful sessions with explicit featurization
    /// parameters.
    pub fn new(
        engine: LstmEngine<'m>,
        cfg: FeatureConfig,
        normalizer: &Normalizer,
        n: usize,
    ) -> Self {
        let LstmEngine::F64(net) = engine;
        Self {
            net,
            state: net.stream_state(n),
            exec: Executor::new(StepStream::new(cfg, normalizer), n),
        }
    }

    /// Creates `n` stateful sessions using the featurization the monitor
    /// was trained with.
    pub fn for_dataset(engine: LstmEngine<'m>, ds: &LabeledDataset, n: usize) -> Self {
        Self::new(engine, ds.feature_config, &ds.normalizer, n)
    }

    /// Arms per-session input guards with a shared policy and a rule
    /// fallback for slots that degrade to [`HealthState::Fallback`].
    pub fn with_guards(mut self, policy: GuardPolicy, fallback: RuleMonitor) -> Self {
        self.exec = self.exec.with_guards(policy, fallback);
        self
    }

    /// Arms the mitigation stage: every drained verdict carries the
    /// [`Action`] the mitigator derives for it. Classification is
    /// untouched, so armed pools stay bit-identical to unarmed ones.
    pub fn with_mitigator(mut self, mitigator: Mitigator) -> Self {
        self.exec = self.exec.with_mitigator(mitigator);
        self
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// Whether the pool has no sessions.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// Feeds one record to session `i` (sanitized through its guard when
    /// guards are armed). The verdict is produced by the next
    /// [`drain_ready`](Self::drain_ready).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or if session `i` was already pushed
    /// since the last drain — a stateful session must advance once per
    /// record, so dropping a queued record would silently skip state.
    pub fn push(&mut self, i: usize, rec: &StepRecord) {
        assert!(
            !self.exec.is_pending(i),
            "session {i} pushed twice without drain_ready; \
             stateful sessions must drain between records"
        );
        if let Err(e) = self.exec.push(i, rec, Instant::now()) {
            panic!("{e}");
        }
    }

    /// Advances every pushed session by one timestep through a single
    /// batched engine step and returns one entry per session (`None` if it
    /// was not pushed since the last drain).
    ///
    /// Latency is attributed per session — queue wait plus an equal share
    /// of the batched step.
    pub fn drain_ready(&mut self) -> Vec<Option<GuardedVerdict>> {
        let mut out = vec![None; self.exec.len()];
        let engine = Engine::Stateful(self.net, &mut self.state);
        self.exec.drain(engine, |i, gv| out[i] = Some(gv));
        out
    }

    /// Pushes one record per session and drains — the lockstep
    /// convenience.
    ///
    /// # Panics
    ///
    /// Panics if `records.len() != self.len()`.
    pub fn step(&mut self, records: &[StepRecord]) -> Vec<Option<GuardedVerdict>> {
        assert_eq!(records.len(), self.exec.len(), "one record per session");
        for (i, rec) in records.iter().enumerate() {
            self.push(i, rec);
        }
        self.drain_ready()
    }

    /// Resets one session: featurizer, recurrent state row, guard slot,
    /// and any queued record.
    pub fn reset_session(&mut self, i: usize) {
        self.state.reset_row(i);
        self.exec.reset_slot(i);
    }
}

/// Feeds a cohort run through an [`LstmSessionPool`]: monitor-in-the-loop
/// over an entire population, one fused gate-block GEMM per step.
///
/// Used as the observer of a [`cpsmon_sim::CohortEngine`] run, it routes
/// member `j`'s record to pool session `j` during the per-member front end
/// and drains the pool at each step boundary (`on_step_end`). Verdicts
/// accumulate as `(member, step, verdict)` triples; fetch them with
/// [`take_verdicts`](Self::take_verdicts).
///
/// The pool must have one session per cohort member (index-aligned).
pub struct CohortLstmBridge<'p, 'm> {
    pool: &'p mut LstmSessionPool<'m>,
    verdicts: Vec<(usize, usize, GuardedVerdict)>,
}

impl<'p, 'm> CohortLstmBridge<'p, 'm> {
    /// Wraps a pool sized to the cohort.
    pub fn new(pool: &'p mut LstmSessionPool<'m>) -> Self {
        Self {
            pool,
            verdicts: Vec::new(),
        }
    }

    /// Verdicts collected so far, in emission order.
    pub fn verdicts(&self) -> &[(usize, usize, GuardedVerdict)] {
        &self.verdicts
    }

    /// Drains the collected verdicts (for steady-memory benchmark loops).
    pub fn take_verdicts(&mut self) -> Vec<(usize, usize, GuardedVerdict)> {
        std::mem::take(&mut self.verdicts)
    }
}

impl cpsmon_sim::CohortObserver for CohortLstmBridge<'_, '_> {
    fn on_step(&mut self, member: usize, _step: usize, record: &StepRecord) {
        self.pool.push(member, record);
    }

    fn on_step_end(&mut self, step: usize) {
        for (member, verdict) in self.pool.drain_ready().into_iter().enumerate() {
            if let Some(v) = verdict {
                self.verdicts.push((member, step, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::monitor::MonitorKind;
    use crate::pipeline::PipelineSession;
    use crate::train::TrainConfig;
    use cpsmon_sim::{CampaignConfig, SimulatorKind};

    fn dataset() -> (Vec<cpsmon_sim::SimTrace>, LabeledDataset) {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(96)
            .fault_ratio(0.5)
            .seed(77)
            .run();
        let ds = DatasetBuilder::new().build(&traces).unwrap();
        (traces, ds)
    }

    #[test]
    fn no_verdicts_until_window_fills() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::RuleBased
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let mut session = MonitorSession::for_dataset(&monitor, &ds);
        let records = traces[0].records();
        for (t, rec) in records.iter().enumerate() {
            let verdict = session.step(rec);
            if t + 1 < ds.feature_config.window {
                assert!(verdict.is_none(), "premature verdict at step {t}");
            } else {
                let v = verdict.expect("window full");
                assert_eq!(v.step, t);
                assert!(v.label <= 1);
            }
        }
    }

    #[test]
    fn session_matches_batch_on_one_trace() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let trace = &traces[0];
        let labels = ds.hazard_config.labels(trace);
        let windows = ds.feature_config.windows(trace, &labels, 0);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for w in &windows {
            rows.push(w.features.clone());
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = ds.normalizer.transform(&Matrix::from_rows(&refs));
        let batch_labels = monitor.predict_x(&x);
        let batch_probs = monitor.as_grad_model().unwrap().predict_proba(&x);

        let mut session = MonitorSession::for_dataset(&monitor, &ds);
        let mut k = 0;
        for rec in trace.records() {
            if let Some(v) = session.step(rec) {
                assert_eq!(v.step, windows[k].step);
                assert_eq!(v.label, batch_labels[k], "label at window {k}");
                assert_eq!(v.proba, batch_probs.get(k, 1), "proba bits at window {k}");
                k += 1;
            }
        }
        assert_eq!(k, windows.len());
    }

    #[test]
    fn pool_matches_individual_sessions() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Lstm
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let n = traces.len();
        let steps = traces.iter().map(|t| t.len()).min().unwrap();
        let mut pool = SessionPool::for_dataset(&monitor, &ds, n);
        let mut singles: Vec<MonitorSession<'_>> = (0..n)
            .map(|_| MonitorSession::for_dataset(&monitor, &ds))
            .collect();
        for t in 0..steps {
            let records: Vec<StepRecord> = traces.iter().map(|trace| trace.records()[t]).collect();
            let pooled = pool.step(&records);
            for (i, rec) in records.iter().enumerate() {
                let single = singles[i].step(rec);
                match (pooled[i], single) {
                    (Some(p), Some(s)) => {
                        assert_eq!(p.step, s.step);
                        assert_eq!(p.label, s.label, "session {i} step {t}");
                        assert_eq!(p.proba, s.proba, "session {i} step {t} proba bits");
                    }
                    (None, None) => {}
                    other => panic!("readiness mismatch at session {i} step {t}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pool_handles_staggered_sessions() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::RuleBased
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let mut pool = SessionPool::for_dataset(&monitor, &ds, 2);
        let records = traces[0].records();
        // Stagger: session 1 joins 3 steps late via a reset.
        for (t, rec) in records.iter().take(10).enumerate() {
            if t == 3 {
                pool.reset_session(1);
            }
            let out = pool.step(&[*rec, *rec]);
            let w = ds.feature_config.window;
            assert_eq!(out[0].is_some(), t + 1 >= w);
            if t >= 3 {
                assert_eq!(out[1].is_some(), t - 3 + 1 >= w);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite sensor input")]
    fn non_finite_input_is_rejected_at_session_boundary() {
        // Regression: NaN used to flow silently through normalization into
        // the network and poison every later window of the ring.
        let (traces, ds) = dataset();
        let mut ws = WindowStream::new(ds.feature_config, ds.normalizer.clone());
        let mut bad = traces[0].records()[0];
        bad.bg_sensor = f64::NAN;
        ws.push(&bad);
    }

    #[test]
    fn guarded_session_matches_unguarded_on_clean_trace() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let mut plain = MonitorSession::for_dataset(&monitor, &ds);
        let mut guarded = PipelineSession::new(MonitorSession::for_dataset(&monitor, &ds))
            .with_guard(crate::guard::GuardPolicy::aps(), RuleMonitor::new(ds.rules));
        for rec in traces[0].records() {
            let a = plain.step(rec);
            let b = guarded.step(rec);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(b.health, HealthState::Healthy);
                    assert!(!b.imputed);
                    assert_eq!(a.step, b.verdict.step);
                    assert_eq!(a.label, b.verdict.label);
                    assert_eq!(a.proba, b.verdict.proba, "proba bits must match");
                }
                (None, None) => {}
                other => panic!("readiness mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn guarded_session_survives_nan_and_falls_back() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let policy = crate::guard::GuardPolicy::aps();
        let mut guarded = PipelineSession::new(MonitorSession::for_dataset(&monitor, &ds))
            .with_guard(policy, RuleMonitor::new(ds.rules));
        let rules = cpsmon_stl::RuleMonitor::new(ds.rules);
        let mut saw_fallback = false;
        for (t, rec) in traces[0].records().iter().enumerate() {
            let mut r = *rec;
            if t >= 20 {
                r.bg_sensor = f64::NAN; // total CGM loss from step 20 on
            }
            if let Some(v) = guarded.step(&r) {
                if v.health == HealthState::Fallback {
                    saw_fallback = true;
                    let expect = rules.predict(&guarded.core().window().context());
                    assert_eq!(v.verdict.label, expect, "fallback label is the rule's");
                    assert_eq!(v.verdict.proba, expect as f64);
                }
            }
        }
        assert!(saw_fallback, "budget exhaustion must reach Fallback");
        assert_eq!(guarded.health(), HealthState::Fallback);
    }

    #[test]
    fn guarded_windowed_pool_falls_back_per_slot() {
        // Slot 1 loses its CGM from step 10 on; slot 0 stays clean. The
        // reference for slot 1 is its own guard + featurizer replayed
        // alone, whose window context the rule fallback must read.
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let policy = crate::guard::GuardPolicy::aps();
        let rules = RuleMonitor::new(ds.rules);
        let mut pool = SessionPool::for_dataset(&monitor, &ds, 2).with_guards(policy, rules);
        let mut clean_single = MonitorSession::for_dataset(&monitor, &ds);
        let mut guard = crate::guard::InputGuard::new(policy);
        let mut window = WindowStream::new(ds.feature_config, ds.normalizer.clone());
        let mut saw_fallback = false;
        for (t, rec) in traces[0].records().iter().take(60).enumerate() {
            let mut bad = *rec;
            if t >= 10 {
                bad.bg_sensor = f64::NAN;
            }
            pool.push(0, rec);
            pool.push(1, &bad);
            let out = pool.drain_ready_guarded();
            let (clean_bad, status) = guard.sanitize(&bad);
            window.push(&clean_bad);
            match (out[0], clean_single.step(rec)) {
                (Some(v0), Some(s)) => {
                    assert_eq!(v0.health, HealthState::Healthy);
                    assert!(!v0.imputed);
                    assert_eq!(v0.verdict.step, s.step);
                    assert_eq!(v0.verdict.label, s.label, "clean slot step {t}");
                    assert_eq!(v0.verdict.proba.to_bits(), s.proba.to_bits());
                }
                (None, None) => {}
                other => panic!("readiness mismatch at step {t}: {other:?}"),
            }
            let Some(v1) = out[1] else {
                assert!(!window.is_ready(), "ready slot 1 emitted nothing at {t}");
                continue;
            };
            assert_eq!(v1.health, status.health, "slot 1 health at step {t}");
            if v1.health == HealthState::Fallback {
                saw_fallback = true;
                let expect = rules.predict(&window.context());
                assert_eq!(v1.verdict.label, expect, "fallback label at step {t}");
                assert_eq!(v1.verdict.proba, expect as f64);
            }
        }
        assert!(saw_fallback, "budget exhaustion must reach Fallback");
    }

    fn lstm_net(ds: &LabeledDataset) -> TrainedMonitor {
        MonitorKind::Lstm
            .train(ds, &TrainConfig::quick_test())
            .unwrap()
    }

    fn net_of(monitor: &TrainedMonitor) -> &cpsmon_nn::LstmNet {
        match &monitor.model {
            MonitorModel::Lstm(net) => net,
            _ => unreachable!(),
        }
    }

    #[test]
    fn stateful_pool_bit_identical_to_individual_sessions() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let n = traces.len();
        let steps = traces.iter().map(|t| t.len()).min().unwrap();
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, n);
        let mut singles: Vec<LstmStreamSession<'_>> = (0..n)
            .map(|_| LstmStreamSession::for_dataset(LstmEngine::F64(net), &ds))
            .collect();
        for t in 0..steps {
            let records: Vec<StepRecord> = traces.iter().map(|tr| tr.records()[t]).collect();
            let pooled = pool.step(&records);
            for (i, rec) in records.iter().enumerate() {
                let s = singles[i].step(rec);
                let p = pooled[i].expect("stateful sessions always emit").verdict;
                assert_eq!(p.step, s.step);
                assert_eq!(p.label, s.label, "session {i} step {t}");
                assert_eq!(
                    p.proba.to_bits(),
                    s.proba.to_bits(),
                    "session {i} step {t} proba bits"
                );
            }
        }
    }

    #[test]
    fn stateful_pool_ragged_pushes_match_individual_sessions() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let records = traces[0].records();
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, 3);
        let mut singles: Vec<LstmStreamSession<'_>> = (0..3)
            .map(|_| LstmStreamSession::for_dataset(LstmEngine::F64(net), &ds))
            .collect();
        // Session i is pushed only on ticks where t % (i + 1) == 0, so every
        // drain sees a different ragged ready-set (including singletons).
        for (t, rec) in records.iter().take(24).enumerate() {
            for i in 0..3 {
                if t % (i + 1) == 0 {
                    pool.push(i, rec);
                }
            }
            let pooled = pool.drain_ready();
            for (i, slot) in pooled.iter().enumerate() {
                if t % (i + 1) == 0 {
                    let s = singles[i].step(rec);
                    let p = slot.expect("pushed sessions emit").verdict;
                    assert_eq!(p.step, s.step, "session {i} tick {t}");
                    assert_eq!(
                        p.proba.to_bits(),
                        s.proba.to_bits(),
                        "session {i} tick {t} proba bits"
                    );
                } else {
                    assert!(slot.is_none(), "unpushed session {i} emitted at {t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pushed twice without drain_ready")]
    fn stateful_pool_rejects_double_push() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, 1);
        let rec = traces[0].records()[0];
        pool.push(0, &rec);
        pool.push(0, &rec);
    }

    #[test]
    fn stateful_pool_reset_session_restarts_stream() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let records = traces[0].records();
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, 2);
        let mut fresh = LstmStreamSession::for_dataset(LstmEngine::F64(net), &ds);
        for rec in records.iter().take(8) {
            pool.step(&[*rec, *rec]);
        }
        pool.reset_session(1);
        for (k, rec) in records.iter().take(8).enumerate() {
            let pooled = pool.step(&[*rec, *rec]);
            let s = fresh.step(rec);
            let p = pooled[1].expect("emits").verdict;
            assert_eq!(p.step, k, "reset session restarts step numbering");
            assert_eq!(p.proba.to_bits(), s.proba.to_bits(), "reset slot diverged");
        }
    }

    #[test]
    fn guarded_stateful_pool_falls_back_per_slot() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let rules = RuleMonitor::new(ds.rules);
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, 2)
            .with_guards(crate::guard::GuardPolicy::aps(), rules);
        let mut clean_single = LstmStreamSession::for_dataset(LstmEngine::F64(net), &ds);
        let mut saw_fallback = false;
        for (t, rec) in traces[0].records().iter().take(60).enumerate() {
            let mut bad = *rec;
            if t >= 10 {
                bad.bg_sensor = f64::NAN; // slot 1 loses its CGM
            }
            pool.push(0, rec);
            pool.push(1, &bad);
            let out = pool.drain_ready();
            let clean = clean_single.step(rec);
            let v0 = out[0].expect("emits");
            // Slot 0's stream is clean: guard passthrough is bit-exact.
            assert_eq!(v0.health, HealthState::Healthy);
            assert!(!v0.imputed);
            assert_eq!(v0.verdict.proba.to_bits(), clean.proba.to_bits());
            let v1 = out[1].expect("emits");
            if v1.health == HealthState::Fallback {
                saw_fallback = true;
                assert!(v1.verdict.proba == 0.0 || v1.verdict.proba == 1.0);
            }
        }
        assert!(saw_fallback, "budget exhaustion must reach Fallback");
    }

    #[test]
    fn pool_latency_attribution_stays_below_pool_step() {
        // A windowed pool of n sessions must not charge each verdict the
        // full batch: the attributed share decreases with pool size.
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let n = 4;
        let mut pool = SessionPool::for_dataset(&monitor, &ds, n);
        let records = traces[0].records();
        let mut checked = false;
        for rec in records.iter().take(12) {
            let recs: Vec<StepRecord> = vec![*rec; n];
            let t0 = Instant::now();
            let out = pool.step(&recs);
            let whole = t0.elapsed();
            for v in out.into_iter().flatten() {
                assert!(
                    v.latency <= whole,
                    "attributed latency {:?} exceeds whole pool step {:?}",
                    v.latency,
                    whole
                );
                checked = true;
            }
        }
        assert!(checked, "pool never became ready");
    }

    #[test]
    fn solo_pipeline_attribution_sums_to_latency() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let mut session = PipelineSession::new(MonitorSession::for_dataset(&monitor, &ds))
            .with_guard(crate::guard::GuardPolicy::aps(), RuleMonitor::new(ds.rules))
            .with_mitigator(Mitigator::aps());
        let mut checked = 0;
        for rec in traces[0].records() {
            if let Some(v) = session.step(rec) {
                assert_eq!(v.verdict.latency, v.verdict.attribution.total());
                assert_eq!(v.verdict.attribution.queue, Duration::ZERO, "solo session");
                assert!(v.verdict.attribution.compute > Duration::ZERO);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn mitigated_pool_attribution_sums_to_latency() {
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let n = traces.len();
        let mut pool = SessionPool::for_dataset(&monitor, &ds, n).with_mitigator(Mitigator::aps());
        let steps = traces.iter().map(|t| t.len()).min().unwrap();
        let mut checked = 0;
        for t in 0..steps {
            let records: Vec<StepRecord> = traces.iter().map(|tr| tr.records()[t]).collect();
            for (i, rec) in records.iter().enumerate() {
                pool.push(i, rec);
            }
            for v in pool.drain_ready_guarded().into_iter().flatten() {
                let a = v.verdict.attribution;
                assert_eq!(v.verdict.latency, a.total(), "queue+batch share+mitigation");
                assert!(a.compute > Duration::ZERO);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn mitigated_lstm_pool_attribution_sums_to_latency() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, 2)
            .with_mitigator(Mitigator::aps());
        for rec in traces[0].records().iter().take(16) {
            for v in pool.step(&[*rec, *rec]).into_iter().flatten() {
                assert_eq!(v.verdict.latency, v.verdict.attribution.total());
            }
        }
    }

    #[test]
    fn mitigator_never_alters_classification() {
        // Armed vs. unarmed pools over the same records: label and proba
        // bit-identical; only the action annotation differs.
        let (traces, ds) = dataset();
        let monitor = MonitorKind::Mlp
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let n = traces.len();
        let mut plain = SessionPool::for_dataset(&monitor, &ds, n);
        let mut armed = SessionPool::for_dataset(&monitor, &ds, n).with_mitigator(Mitigator::aps());
        let steps = traces.iter().map(|t| t.len()).min().unwrap();
        for t in 0..steps {
            let records: Vec<StepRecord> = traces.iter().map(|tr| tr.records()[t]).collect();
            let a = plain.step(&records);
            let b = armed.step(&records);
            for i in 0..n {
                match (a[i], b[i]) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.label, y.label, "session {i} step {t}");
                        assert_eq!(x.proba.to_bits(), y.proba.to_bits());
                    }
                    (None, None) => {}
                    other => panic!("readiness mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn windowed_pool_reset_session_clears_pending_and_guard() {
        // Regression (see DESIGN.md §14): resetting only a slot's
        // featurizer used to leave the queued tick — and, with guards
        // armed, the old trace's staleness budget — behind.
        let (traces, ds) = dataset();
        let monitor = MonitorKind::RuleBased
            .train(&ds, &TrainConfig::quick_test())
            .unwrap();
        let mut pool = SessionPool::for_dataset(&monitor, &ds, 1)
            .with_guards(crate::guard::GuardPolicy::aps(), RuleMonitor::new(ds.rules));
        // Push past the window so a pending tick is queued, then reset
        // without draining: the stale tick must not survive.
        for rec in traces[0].records().iter().take(ds.feature_config.window) {
            pool.push(0, rec);
        }
        pool.reset_session(0);
        assert!(pool.drain_ready()[0].is_none(), "stale pending tick leaked");
        for (k, rec) in traces[0].records().iter().take(8).enumerate() {
            let out = pool.step(std::slice::from_ref(rec));
            if let Some(v) = out[0] {
                assert_eq!(v.step, k, "step numbering restarts after reset");
            }
        }
    }

    #[test]
    fn stream_reset_refills_window() {
        let (traces, ds) = dataset();
        let mut ws = WindowStream::new(ds.feature_config, ds.normalizer.clone());
        let records = traces[0].records();
        for rec in &records[..ds.feature_config.window] {
            ws.push(rec);
        }
        assert!(ws.is_ready());
        ws.reset();
        assert!(!ws.is_ready());
        assert_eq!(ws.steps_seen(), 0);
        assert_eq!(ws.push(&records[0]), None);
    }

    #[test]
    fn cohort_lstm_bridge_matches_pool_over_scalar_traces() {
        let (traces, ds) = dataset();
        let monitor = lstm_net(&ds);
        let net = net_of(&monitor);
        let cfg = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(96)
            .fault_ratio(0.5)
            .seed(77);
        let n = traces.len();
        let mut ref_pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, n);
        let mut expected: Vec<(usize, usize, usize, u64)> = Vec::new();
        let steps = traces[0].len();
        for t in 0..steps {
            let records: Vec<StepRecord> = traces.iter().map(|tr| tr.records()[t]).collect();
            for (i, v) in ref_pool.step(&records).into_iter().enumerate() {
                if let Some(v) = v {
                    expected.push((i, t, v.verdict.label, v.verdict.proba.to_bits()));
                }
            }
        }
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &ds, n);
        let mut bridge = CohortLstmBridge::new(&mut pool);
        cpsmon_sim::CohortEngine::from_campaign(&cfg).run_observed(&mut bridge);
        let got: Vec<(usize, usize, usize, u64)> = bridge
            .take_verdicts()
            .into_iter()
            .map(|(m, t, v)| (m, t, v.verdict.label, v.verdict.proba.to_bits()))
            .collect();
        assert!(!got.is_empty());
        assert_eq!(got, expected);
    }
}
