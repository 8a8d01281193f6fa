//! The pooled executor of the stage graph: one slot table behind every
//! batched deployment form — [`SessionPool`](crate::stream::SessionPool),
//! [`LstmSessionPool`](crate::stream::LstmSessionPool) and the serving
//! shard of `cpsmon-serve`.
//!
//! A slot owns its featurizer, its optional [`InputGuard`] and at most
//! one pending record. [`Executor::push`] runs the guard and featurize
//! stages for one slot and queues it once a classifier row is ready;
//! [`Executor::drain`] classifies every queued slot in one batch through
//! the [`Engine`] the caller hands it, then finishes each row through the
//! one copy of the pooled tail: guard-fallback override → mitigation →
//! [`LatencyAttribution`].
//!
//! The executor does not borrow the model — the engine comes in at drain
//! time, so an owner can hot-swap its model between drains. What a second
//! record for a pending slot means is the caller's policy (see
//! [`Executor::is_pending`]): the windowed pool overwrites it, the
//! stateful pool refuses it, the shard drains first.
//!
//! The solo sessions ([`MonitorSession`](crate::stream::MonitorSession),
//! [`PipelineSession`](crate::pipeline::PipelineSession),
//! [`LstmStreamSession`](crate::stream::LstmStreamSession)) stay separate
//! on purpose: they are the references the transparency suites compare
//! this executor against.

use std::time::{Duration, Instant};

use crate::features::Normalizer;
use crate::guard::{GuardPolicy, HealthState, InputGuard};
use crate::monitor::{MonitorModel, TrainedMonitor};
use crate::pipeline::{Action, LatencyAttribution, Mitigator};
use crate::stream::{argmax_row, GuardedVerdict, InvalidSample, StepStream, Verdict, WindowStream};
use cpsmon_nn::{GradModel, LstmNet, LstmStreamState, Matrix};
use cpsmon_sim::trace::StepRecord;
use cpsmon_stl::{ApsContext, RuleMonitor};

/// A slot's featurizer: what the executor needs from the windowed
/// [`WindowStream`] and the per-record [`StepStream`] alike.
pub trait SlotStream: Clone {
    /// Feeds one sanitized record; `Ok(true)` once a classifier row is
    /// ready.
    fn feed(&mut self, rec: &StepRecord) -> Result<bool, InvalidSample>;
    /// The ready classifier row, normalized.
    fn row(&self) -> &[f64];
    /// The rule context of the ready row.
    fn rule_context(&mut self) -> ApsContext;
    /// Records consumed since the last reset.
    fn steps_seen(&self) -> usize;
    /// Forgets all per-session state.
    fn reset(&mut self);
}

impl SlotStream for WindowStream {
    fn feed(&mut self, rec: &StepRecord) -> Result<bool, InvalidSample> {
        Ok(self.try_push(rec)?.is_some())
    }
    fn row(&self) -> &[f64] {
        self.window_x()
    }
    fn rule_context(&mut self) -> ApsContext {
        self.context()
    }
    fn steps_seen(&self) -> usize {
        WindowStream::steps_seen(self)
    }
    fn reset(&mut self) {
        WindowStream::reset(self);
    }
}

impl SlotStream for StepStream {
    fn feed(&mut self, rec: &StepRecord) -> Result<bool, InvalidSample> {
        self.try_push(rec).map(|_| true)
    }
    fn row(&self) -> &[f64] {
        self.features()
    }
    fn rule_context(&mut self) -> ApsContext {
        self.context()
    }
    fn steps_seen(&self) -> usize {
        StepStream::steps_seen(self)
    }
    fn reset(&mut self) {
        StepStream::reset(self);
    }
}

/// The classifier a drain runs every queued row through.
pub enum Engine<'a> {
    /// Table-I rules over each slot's rule context: rule monitors, and a
    /// serving shard that sheds load.
    Rule(&'a RuleMonitor),
    /// A windowed network over each slot's normalized window.
    Windowed(&'a dyn GradModel),
    /// The stateful LSTM network and its recurrent state, one row per slot.
    Stateful(&'a LstmNet, &'a mut LstmStreamState),
}

impl<'a> Engine<'a> {
    /// The engine a trained monitor classifies windows with.
    pub fn of(monitor: &'a TrainedMonitor) -> Self {
        match &monitor.model {
            MonitorModel::Rule(m) => Engine::Rule(m),
            MonitorModel::Mlp(net) => Engine::Windowed(net),
            MonitorModel::Lstm(net) => Engine::Windowed(net),
        }
    }
}

/// A record queued for the next drain.
#[derive(Debug, Clone, Copy)]
struct Pending {
    at: Instant,
    health: HealthState,
    imputed: bool,
}

#[derive(Debug)]
struct Slot<S> {
    stream: S,
    guard: Option<InputGuard>,
    pending: Option<Pending>,
}

impl<S: SlotStream> Slot<S> {
    /// The pooled tail of the stage graph: guard-fallback override,
    /// mitigation, latency attribution.
    fn finish(
        &mut self,
        (mut label, mut proba): (usize, f64),
        started: Instant,
        compute: Duration,
        fallback: Option<&RuleMonitor>,
        mitigator: Option<&Mitigator>,
    ) -> GuardedVerdict {
        let tick = self.pending.take().expect("queued slots are pending");
        if tick.health == HealthState::Fallback {
            let rules = fallback.expect("fallback rules exist when guards are armed");
            label = rules.predict(&self.stream.rule_context());
            proba = label as f64;
        }
        let (action, mitigation) = match mitigator {
            // Alarm-free rows skip the stage (decide is the identity
            // there), clock reads included.
            Some(m) if label == 1 => {
                let m0 = Instant::now();
                let action = m.decide(label, proba, || self.stream.rule_context());
                (action, m0.elapsed())
            }
            _ => (Action::None, Duration::ZERO),
        };
        let attribution = LatencyAttribution {
            queue: started - tick.at,
            compute,
            mitigation,
        };
        GuardedVerdict {
            verdict: Verdict {
                step: self.stream.steps_seen() - 1,
                label,
                proba,
                latency: attribution.total(),
                action,
                attribution,
            },
            health: tick.health,
            imputed: tick.imputed,
        }
    }
}

/// The slot table. See the module docs.
#[derive(Debug)]
pub struct Executor<S> {
    slots: Vec<Slot<S>>,
    /// A fresh featurizer, cloned into every new slot.
    template: S,
    policy: Option<GuardPolicy>,
    fallback: Option<RuleMonitor>,
    mitigator: Option<Mitigator>,
    /// Pending slots in push order; a drain emits in this order.
    queue: Vec<usize>,
    // Drain scratch, kept across drains so the steady state allocates
    // nothing per row: the batched input, the packed recurrent rows of a
    // ragged stateful drain, and each row's `(label, proba)`.
    batch: Matrix,
    packed: Option<LstmStreamState>,
    scored: Vec<(usize, f64)>,
}

impl<S: SlotStream> Executor<S> {
    /// Creates `n` slots, each with a clone of `template` (a fresh
    /// featurizer) and no guard.
    pub fn new(template: S, n: usize) -> Self {
        let mut exec = Self {
            slots: Vec::with_capacity(n),
            template,
            policy: None,
            fallback: None,
            mitigator: None,
            queue: Vec::with_capacity(n),
            batch: Matrix::zeros(0, 0),
            packed: None,
            scored: Vec::new(),
        };
        for _ in 0..n {
            exec.add_slot();
        }
        exec
    }

    /// Arms a per-slot input guard with a shared policy, and the rule
    /// fallback for slots that degrade to [`HealthState::Fallback`].
    pub fn with_guards(mut self, policy: GuardPolicy, fallback: RuleMonitor) -> Self {
        for slot in &mut self.slots {
            slot.guard = Some(InputGuard::new(policy));
        }
        self.policy = Some(policy);
        self.fallback = Some(fallback);
        self
    }

    /// Arms the mitigation stage: every drained verdict carries the
    /// [`Action`] the mitigator derives for it.
    pub fn with_mitigator(mut self, mitigator: Mitigator) -> Self {
        self.mitigator = Some(mitigator);
        self
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a fresh slot (guarded if guards are armed) and returns its
    /// index.
    pub fn add_slot(&mut self) -> usize {
        self.slots.push(Slot {
            stream: self.template.clone(),
            guard: self.policy.map(InputGuard::new),
            pending: None,
        });
        self.slots.len() - 1
    }

    /// Whether slot `i` holds a record the next drain will classify.
    pub fn is_pending(&self, i: usize) -> bool {
        self.slots[i].pending.is_some()
    }

    /// Sanitizes one record through slot `i`'s guard and feeds it to the
    /// slot's featurizer. Returns whether a row is ready; a ready slot is
    /// queued for the next [`drain`](Self::drain). Pushing a pending slot
    /// replaces its pending record, so only the latest row is classified.
    ///
    /// `at` is when the record arrived: its queue wait runs from there to
    /// the drain. The caller supplies it so that a batch of pushes can
    /// share one clock reading.
    ///
    /// A non-finite sample the guard let through is rejected with the
    /// typed [`InvalidSample`], leaving the featurizer untouched.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn push(&mut self, i: usize, rec: &StepRecord, at: Instant) -> Result<bool, InvalidSample> {
        let slot = &mut self.slots[i];
        let (clean, health, imputed) = match &mut slot.guard {
            Some(guard) => {
                let (clean, status) = guard.sanitize(rec);
                (clean, status.health, status.any_imputed())
            }
            None => (*rec, HealthState::Healthy, false),
        };
        if !slot.stream.feed(&clean)? {
            return Ok(false);
        }
        let tick = Pending {
            at,
            health,
            imputed,
        };
        if slot.pending.replace(tick).is_none() {
            self.queue.push(i);
        }
        Ok(true)
    }

    /// Resets slot `i` end to end: featurizer, guard, and any pending
    /// record.
    pub fn reset_slot(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.stream.reset();
        if let Some(guard) = &mut slot.guard {
            guard.reset();
        }
        if slot.pending.take().is_some() {
            self.queue.retain(|&j| j != i);
        }
    }

    /// Classifies every pending slot in one batch through `engine` and
    /// hands each finished verdict to `emit` with its slot index, in push
    /// order.
    ///
    /// Each verdict's latency is attributed per slot: its queue wait
    /// (push to drain start), an equal share of the batched
    /// classification, and its own mitigation time.
    pub fn drain(&mut self, engine: Engine<'_>, mut emit: impl FnMut(usize, GuardedVerdict)) {
        let rows = self.queue.len();
        if rows == 0 {
            return;
        }
        let started = Instant::now();
        self.scored.clear();
        match engine {
            Engine::Rule(rules) => {
                for &i in &self.queue {
                    let label = rules.predict(&self.slots[i].stream.rule_context());
                    self.scored.push((label, label as f64));
                }
            }
            Engine::Windowed(model) => {
                self.batch.reset_shape(rows, model.input_width());
                for (r, &i) in self.queue.iter().enumerate() {
                    self.batch
                        .row_mut(r)
                        .copy_from_slice(self.slots[i].stream.row());
                }
                let probs = model.predict_proba(&self.batch);
                self.scored
                    .extend((0..rows).map(|r| (argmax_row(probs.row(r)), probs.get(r, 1))));
            }
            Engine::Stateful(net, state) => {
                // Lockstep fast path: with every slot queued in slot order
                // the pool state IS the batch, so the gather/scatter row
                // copies — ~2 × state-size of pure memcpy — are skipped
                // and the engine steps the pool state in place.
                let full =
                    rows == self.slots.len() && self.queue.iter().enumerate().all(|(r, &i)| r == i);
                let packed = self.packed.get_or_insert_with(|| net.stream_state(0));
                if !full {
                    packed.gather_from(state, &self.queue);
                }
                self.batch.reset_shape(rows, net.feature_dim());
                for (r, &i) in self.queue.iter().enumerate() {
                    self.batch
                        .row_mut(r)
                        .copy_from_slice(self.slots[i].stream.row());
                }
                let stepped = if full { &mut *state } else { &mut *packed };
                let probs = net.step_stream(&self.batch, stepped);
                self.scored
                    .extend((0..rows).map(|r| (argmax_row(probs.row(r)), probs.get(r, 1))));
                if !full {
                    packed.scatter_to(state, &self.queue);
                }
            }
        }
        let compute = started.elapsed() / rows as u32;
        for (&i, &scored) in self.queue.iter().zip(&self.scored) {
            let verdict = self.slots[i].finish(
                scored,
                started,
                compute,
                self.fallback.as_ref(),
                self.mitigator.as_ref(),
            );
            emit(i, verdict);
        }
        self.queue.clear();
    }
}

impl Executor<WindowStream> {
    /// The hot-reload seam: re-points every slot's normalizer — free
    /// slots and the template for new ones included — and the fallback
    /// rules. Live windows keep their accumulated state.
    ///
    /// # Panics
    ///
    /// Panics if the normalizer width differs from the window width (see
    /// [`WindowStream::set_normalizer`]).
    pub fn reload(&mut self, normalizer: &Normalizer, fallback: RuleMonitor) {
        self.template.set_normalizer(normalizer.clone());
        for slot in &mut self.slots {
            slot.stream.set_normalizer(normalizer.clone());
        }
        self.fallback = Some(fallback);
    }
}
