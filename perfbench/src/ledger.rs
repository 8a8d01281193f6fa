//! Failure accounting for the serving workload.
//!
//! Every record after the window warm-up is one operation: it expects
//! exactly one verdict. An operation fails when that verdict never comes —
//! whether a shard refused the record or simply never answered it. A
//! verdict that arrives twice, or for a record that was never sent, is a
//! correctness failure, not a lost operation.

/// One verdict as encoded in its frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Got {
    /// Predicted class.
    pub label: u8,
    /// Unsafe-class probability.
    pub proba: f64,
    /// Session guard health byte (2 = rule fallback).
    pub health: u8,
    /// Whether service-level shedding produced the verdict.
    pub shed: bool,
}

impl Got {
    /// The verdict with its probability as bits, for exact comparison.
    pub fn bits(self) -> (u8, u64, u8, bool) {
        (self.label, self.proba.to_bits(), self.health, self.shed)
    }
}

/// Verdict bookkeeping for a `patients × steps` fleet.
#[derive(Debug, Clone)]
pub struct Ledger {
    patients: usize,
    steps: usize,
    warmup: usize,
    got: Vec<Option<Got>>,
    /// Records or sessions a shard refused.
    pub refused: u64,
    /// Verdicts for a `(patient, step)` already answered.
    pub duplicates: u64,
    /// Verdicts for a patient, or a step, that no record was sent for.
    pub unexpected: u64,
}

impl Ledger {
    /// A ledger for `patients` sessions of `steps` records each, whose
    /// first verdict is due at step `warmup`.
    pub fn new(patients: usize, steps: usize, warmup: usize) -> Ledger {
        assert!(warmup < steps, "warm-up must leave steps to answer");
        Ledger {
            patients,
            steps,
            warmup,
            got: vec![None; patients * steps],
            refused: 0,
            duplicates: 0,
            unexpected: 0,
        }
    }

    /// Records one verdict; returns whether it answered an operation for
    /// the first time.
    pub fn verdict(&mut self, patient: u64, step: u32, got: Got) -> bool {
        let (p, s) = (patient as usize, step as usize);
        if p >= self.patients || s >= self.steps || s < self.warmup {
            self.unexpected += 1;
            return false;
        }
        let slot = &mut self.got[p * self.steps + s];
        if slot.is_some() {
            self.duplicates += 1;
            return false;
        }
        *slot = Some(got);
        true
    }

    /// The verdict received for `(patient, step)`, if any.
    pub fn get(&self, patient: usize, step: usize) -> Option<Got> {
        self.got.get(patient * self.steps + step).copied().flatten()
    }

    /// Operations: records sent after the warm-up.
    pub fn attempted(&self) -> u64 {
        (self.patients * (self.steps - self.warmup)) as u64
    }

    /// Operations answered by a verdict.
    pub fn answered(&self) -> u64 {
        self.got.iter().filter(|g| g.is_some()).count() as u64
    }

    /// Operations whose verdict never came.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.answered()
    }

    /// Verdicts flagged `shed`.
    pub fn shed_verdicts(&self) -> u64 {
        self.got.iter().flatten().filter(|g| g.shed).count() as u64
    }

    /// No verdict arrived twice or for a record that was never sent.
    pub fn consistent(&self) -> bool {
        self.duplicates == 0 && self.unexpected == 0
    }

    /// Both ledgers hold the same verdicts, bit for bit.
    pub fn same_verdicts(&self, other: &Ledger) -> bool {
        self.got.len() == other.got.len()
            && self
                .got
                .iter()
                .zip(&other.got)
                .all(|(a, b)| a.map(Got::bits) == b.map(Got::bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn got(shed: bool) -> Got {
        Got {
            label: 0,
            proba: 0.25,
            health: 0,
            shed,
        }
    }

    #[test]
    fn every_post_warmup_record_is_one_operation() {
        let l = Ledger::new(3, 10, 5);
        assert_eq!(l.attempted(), 15);
        assert_eq!(l.failed(), 15);
        assert!(l.consistent());
    }

    #[test]
    fn missing_and_refused_verdicts_fail() {
        let mut l = Ledger::new(2, 8, 5);
        // Patient 0 answered fully.
        for s in 5..8 {
            assert!(l.verdict(0, s, got(false)));
        }
        // Patient 1: one record refused, one verdict shed, one missing.
        l.refused += 1;
        assert!(l.verdict(1, 5, got(true)));
        assert_eq!(l.attempted(), 6);
        assert_eq!(l.answered(), 4);
        assert_eq!(l.failed(), 2);
        assert_eq!(l.shed_verdicts(), 1);
        assert_eq!(l.get(1, 6), None);
        assert!(l.consistent());
    }

    #[test]
    fn duplicates_and_unknown_records_are_inconsistent() {
        let mut l = Ledger::new(2, 8, 5);
        assert!(l.verdict(1, 7, got(false)));
        assert!(!l.verdict(1, 7, got(false)));
        assert_eq!(l.duplicates, 1);
        assert!(!l.verdict(2, 6, got(false)), "no such patient");
        assert!(!l.verdict(0, 8, got(false)), "no such step");
        assert!(!l.verdict(0, 4, got(false)), "inside the warm-up");
        assert_eq!(l.unexpected, 3);
        assert!(!l.consistent());
        // Neither a duplicate nor an unknown verdict answers an operation.
        assert_eq!(l.answered(), 1);
        assert_eq!(l.failed(), 5);
    }

    #[test]
    fn verdicts_compare_bit_for_bit() {
        let mut a = Ledger::new(1, 7, 5);
        let mut b = a.clone();
        a.verdict(0, 5, got(false));
        assert!(!a.same_verdicts(&b), "a missing verdict differs");
        b.verdict(
            0,
            5,
            Got {
                proba: f64::from_bits(0.25f64.to_bits() + 1),
                ..got(false)
            },
        );
        assert!(!a.same_verdicts(&b), "one ulp differs");
        let mut c = Ledger::new(1, 7, 5);
        c.verdict(0, 5, got(false));
        assert!(a.same_verdicts(&c));
    }
}
