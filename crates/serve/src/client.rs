//! Replay client: streams a seeded simulation campaign into a running
//! daemon over the binary protocol, optionally through the transport-
//! chaos mangler, and tallies what comes back.
//!
//! The trace generation is fully deterministic ([`cpsmon_sim`]
//! campaigns are seeded), so two replays against two daemon instances
//! produce identical ingest byte streams — the foundation of the CI
//! smoke test's byte-identical verdict-log comparison.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cpsmon_sim::{CampaignConfig, SimulatorKind};

use crate::chaos::ChaosPlan;
use crate::protocol::{Frame, FrameDecoder, PROTOCOL_VERSION};

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Daemon ingest address (`host:port`).
    pub addr: String,
    /// Patients to simulate (patient ids `0..patients`).
    pub patients: usize,
    /// Steps per patient trace.
    pub steps: usize,
    /// Campaign seed (same seed → same byte stream).
    pub seed: u64,
    /// Optional transport chaos applied to the outbound byte stream.
    pub chaos: Option<ChaosPlan>,
    /// Pause between outbound chunks — a crude rate limiter;
    /// `Duration::ZERO` blasts the daemon as fast as TCP accepts
    /// (the overload condition).
    pub pacing: Duration,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            addr: "127.0.0.1:9090".to_string(),
            patients: 8,
            steps: 96,
            seed: 2022,
            chaos: None,
            pacing: Duration::ZERO,
        }
    }
}

/// What a replay observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Step frames emitted (before chaos).
    pub sent_steps: usize,
    /// Verdict frames received.
    pub verdicts: usize,
    /// Verdicts flagged as produced by service-level shedding.
    pub shed_verdicts: usize,
    /// Busy (backpressure) frames received.
    pub busy: usize,
    /// Error frames received.
    pub errors: usize,
    /// Whether the server acknowledged the Goodbye with a Bye.
    pub clean_close: bool,
}

/// Builds the deterministic outbound frame sequence for a config:
/// Hello, round-robin interleaved Step frames across all patients,
/// per-patient EndSession, Goodbye.
pub fn build_frames(cfg: &ReplayConfig) -> Vec<Frame> {
    let traces = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(cfg.patients)
        .runs_per_patient(1)
        .steps(cfg.steps)
        .seed(cfg.seed)
        .run();
    let mut frames = vec![Frame::Hello {
        version: PROTOCOL_VERSION,
    }];
    // Round-robin across patients: the arrival order a real fleet
    // produces, and the worst case for per-shard batching.
    for step in 0..cfg.steps {
        for (pid, trace) in traces.iter().enumerate().take(cfg.patients) {
            if let Some(rec) = trace.records().get(step) {
                frames.push(Frame::Step {
                    patient: pid as u64,
                    seq: step as u32,
                    rec: *rec,
                });
            }
        }
    }
    for pid in 0..cfg.patients {
        frames.push(Frame::EndSession {
            patient: pid as u64,
        });
    }
    frames.push(Frame::Goodbye);
    frames
}

/// Patient profiles a replay can simulate: the campaign's paper range
/// (see [`CampaignConfig::patients`]).
const PATIENTS: std::ops::RangeInclusive<usize> = 1..=20;

/// Runs one replay session against a live daemon and reports what came
/// back. The reader runs on its own thread so server backpressure
/// frames are consumed while the writer is still streaming.
///
/// A patient count outside `1..=20` is rejected with
/// [`io::ErrorKind::InvalidInput`] before any connection is made.
pub fn replay(cfg: &ReplayConfig) -> io::Result<ReplayReport> {
    if !PATIENTS.contains(&cfg.patients) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("patients must be in 1..=20, got {}", cfg.patients),
        ));
    }
    let frames = build_frames(cfg);
    let sent_steps = frames
        .iter()
        .filter(|f| matches!(f, Frame::Step { .. }))
        .count();

    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let chunks: Vec<Vec<u8>> = match &cfg.chaos {
        // Chaos must not touch the handshake or the close handshake —
        // dropping Hello would just reject the connection and test
        // nothing downstream.
        Some(plan) => {
            let n = encoded.len();
            let mut chunks = vec![encoded[0].clone()];
            chunks.extend(plan.mangle_bytes(&encoded[1..n - 1]));
            chunks.push(encoded[n - 1].clone());
            chunks
        }
        None => encoded,
    };

    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;

    let reader = std::thread::spawn(move || {
        let mut report = ReplayReport::default();
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut r = read_half;
        let _ = r.set_read_timeout(Some(Duration::from_secs(10)));
        'outer: loop {
            let n = match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(_) => break,
            };
            decoder.feed(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(None) => break,
                    Ok(Some(Frame::Verdict { shed, .. })) => {
                        report.verdicts += 1;
                        if shed {
                            report.shed_verdicts += 1;
                        }
                    }
                    Ok(Some(Frame::Busy { .. })) => report.busy += 1,
                    Ok(Some(Frame::Error { .. })) => report.errors += 1,
                    Ok(Some(Frame::Bye)) => {
                        report.clean_close = true;
                        break 'outer;
                    }
                    Ok(Some(_)) => {}
                    Err(_) => break 'outer,
                }
            }
        }
        report
    });

    for chunk in &chunks {
        if stream.write_all(chunk).is_err() {
            // Server closed on us (protocol error under chaos): stop
            // writing, the reader will pick up the Error frame.
            break;
        }
        if !cfg.pacing.is_zero() {
            std::thread::sleep(cfg.pacing);
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);

    let mut report = reader.join().unwrap_or_default();
    report.sent_steps = sent_steps;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_patient_counts_are_rejected_before_connecting() {
        for patients in [0, 21] {
            let cfg = ReplayConfig {
                // Nothing listens here; validation must answer first.
                addr: "127.0.0.1:1".to_string(),
                patients,
                ..ReplayConfig::default()
            };
            let err = replay(&cfg).expect_err("out-of-range count must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{patients}: {err}");
            assert!(err.to_string().contains("1..=20"), "{err}");
        }
    }
}
