//! Recorded simulation traces.

use crate::faults::PumpFault;

/// One 5-minute step of a closed-loop run, as recorded by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Ground-truth plasma glucose (mg/dL) — used only for labeling.
    pub bg_true: f64,
    /// CGM reading (mg/dL) — what the controller and monitor see.
    pub bg_sensor: f64,
    /// Insulin-on-board estimate (U).
    pub iob: f64,
    /// Rate the controller commanded (U/h).
    pub commanded_rate: f64,
    /// Rate the pump actually delivered after any fault (U/h) — what the
    /// monitor observes on the actuation bus.
    pub delivered_rate: f64,
    /// Carbohydrates ingested at this step (g).
    pub carbs: f64,
}

/// A complete closed-loop simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    /// Simulator family label ("glucosym" / "t1ds2013").
    pub simulator: &'static str,
    /// Controller label ("openaps" / "basal-bolus").
    pub controller: &'static str,
    /// Patient profile index (0-based).
    pub patient_id: usize,
    /// Run index within the campaign.
    pub run_id: usize,
    /// The injected fault, if any.
    pub fault: Option<PumpFault>,
    records: Vec<StepRecord>,
}

impl SimTrace {
    /// Creates a trace from recorded steps.
    pub fn new(
        simulator: &'static str,
        controller: &'static str,
        patient_id: usize,
        run_id: usize,
        fault: Option<PumpFault>,
        records: Vec<StepRecord>,
    ) -> Self {
        Self {
            simulator,
            controller,
            patient_id,
            run_id,
            fault,
            records,
        }
    }

    /// The recorded steps.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sensor BG column.
    pub fn bg_sensor(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.bg_sensor).collect()
    }

    /// Ground-truth BG column.
    pub fn bg_true(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.bg_true).collect()
    }

    /// IOB column.
    pub fn iob(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.iob).collect()
    }

    /// Delivered-rate column.
    pub fn delivered_rate(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.delivered_rate).collect()
    }

    /// Serializes the trace as CSV (header + one line per step), for
    /// external analysis/plotting tools.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("step,bg_true,bg_sensor,iob,commanded_rate,delivered_rate,carbs\n");
        for (t, r) in self.records.iter().enumerate() {
            let _ = writeln!(
                out,
                "{t},{},{},{},{},{},{}",
                r.bg_true, r.bg_sensor, r.iob, r.commanded_rate, r.delivered_rate, r.carbs
            );
        }
        out
    }
}

/// Compares two trace sets bit for bit: the same identities, faults and
/// lengths, and every recorded float with the same bits — stricter than
/// `PartialEq`, which takes `-0.0` for `0.0`.
///
/// # Errors
///
/// A description of the first trace and step that differ.
pub fn traces_bit_identical(a: &[SimTrace], b: &[SimTrace]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} vs {} traces", a.len(), b.len()));
    }
    let bits = |r: &StepRecord| {
        [
            r.bg_true,
            r.bg_sensor,
            r.iob,
            r.commanded_rate,
            r.delivered_rate,
            r.carbs,
        ]
        .map(f64::to_bits)
    };
    for (x, y) in a.iter().zip(b) {
        let who = || format!("patient {} run {}", y.patient_id, y.run_id);
        if (x.simulator, x.controller, x.patient_id, x.run_id, x.fault)
            != (y.simulator, y.controller, y.patient_id, y.run_id, y.fault)
        {
            return Err(format!("{}: metadata differs", who()));
        }
        if x.len() != y.len() {
            return Err(format!("{}: {} vs {} records", who(), x.len(), y.len()));
        }
        let records = x.records().iter().zip(y.records());
        if let Some((t, (r, s))) = records.enumerate().find(|(_, (r, s))| bits(r) != bits(s)) {
            return Err(format!("{} step {t}: {r:?} != {s:?}", who()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bg: f64) -> StepRecord {
        StepRecord {
            bg_true: bg,
            bg_sensor: bg + 1.0,
            iob: 0.5,
            commanded_rate: 1.0,
            delivered_rate: 1.0,
            carbs: 0.0,
        }
    }

    #[test]
    fn columns_extract() {
        let t = SimTrace::new(
            "glucosym",
            "openaps",
            0,
            0,
            None,
            vec![rec(100.0), rec(110.0)],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.bg_true(), vec![100.0, 110.0]);
        assert_eq!(t.bg_sensor(), vec![101.0, 111.0]);
        assert_eq!(t.iob(), vec![0.5, 0.5]);
    }

    #[test]
    fn empty_trace() {
        let t = SimTrace::new("glucosym", "openaps", 0, 0, None, vec![]);
        assert!(t.is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = SimTrace::new(
            "glucosym",
            "openaps",
            0,
            0,
            None,
            vec![rec(100.0), rec(110.0)],
        );
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("step,bg_true"));
        assert!(lines[1].starts_with("0,100"));
        assert!(lines[2].starts_with("1,110"));
    }

    #[test]
    fn bit_identity_tells_signed_zeros_and_identities_apart() {
        let t = [SimTrace::new(
            "glucosym",
            "openaps",
            0,
            0,
            None,
            vec![rec(100.0)],
        )];
        assert!(traces_bit_identical(&t, &t).is_ok());
        let mut r = rec(100.0);
        r.carbs = -0.0;
        let z = [SimTrace::new("glucosym", "openaps", 0, 0, None, vec![r])];
        assert_eq!(z, t, "PartialEq takes -0.0 for 0.0");
        assert!(traces_bit_identical(&z, &t).is_err());
        let other_run = [SimTrace::new(
            "glucosym",
            "openaps",
            0,
            1,
            None,
            vec![rec(100.0)],
        )];
        assert!(traces_bit_identical(&other_run, &t).is_err());
        assert!(traces_bit_identical(&[], &t).is_err());
    }
}
