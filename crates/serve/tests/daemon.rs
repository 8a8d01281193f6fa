//! Loopback tests of the IO shell: real TCP connections against a live
//! daemon — replay determinism, explicit backpressure, slow-client
//! isolation, protocol-error hygiene, and the HTTP admin surface
//! (health, stats, hot reload).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cpsmon_core::artifact::MonitorBundle;
use cpsmon_core::{DatasetBuilder, LabeledDataset, MonitorKind, TrainConfig};
use cpsmon_serve::{
    replay, Daemon, ErrorCode, Frame, FrameDecoder, ReplayConfig, ServeConfig, ServingBundle,
    ShardConfig, PROTOCOL_VERSION,
};
use cpsmon_sim::{CampaignConfig, SimulatorKind};

fn dataset() -> LabeledDataset {
    let traces = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(2)
        .runs_per_patient(2)
        .steps(120)
        .fault_ratio(0.5)
        .seed(13)
        .run();
    DatasetBuilder::new().seed(13).build(&traces).unwrap()
}

/// A rule-based bundle: deterministic verdicts regardless of shed
/// timing, which is what the byte-identical log test needs.
fn rule_bundle(ds: &LabeledDataset) -> MonitorBundle {
    let cfg = TrainConfig::quick_test();
    let monitor = MonitorKind::RuleBased.train(ds, &cfg).unwrap();
    MonitorBundle::new(monitor, ds, &cfg)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shard: ShardConfig {
            tick_budget: None, // keep verdict logs replay-deterministic
            ..ShardConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cpsmon-serve-test-{}-{name}", std::process::id()))
}

/// Raw-socket client: sends `payload` after a valid Hello and collects
/// every frame the server answers until it closes or `deadline` passes.
fn raw_exchange(addr: std::net::SocketAddr, payload: &[u8], hello: bool) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    if hello {
        stream
            .write_all(
                &Frame::Hello {
                    version: PROTOCOL_VERSION,
                }
                .encode(),
            )
            .unwrap();
    }
    stream.write_all(payload).unwrap();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                decoder.feed(&buf[..n]);
                while let Ok(Some(f)) = decoder.next_frame() {
                    frames.push(f);
                }
            }
        }
    }
    frames
}

#[test]
fn replay_completes_cleanly_and_verdict_logs_are_byte_identical() {
    let ds = dataset();
    let bundle = rule_bundle(&ds);
    let patients = 4;
    let steps = 64;
    let window = 6;

    let mut logs = Vec::new();
    for run in 0..2 {
        let log = tmp_path(&format!("log-{run}.csv"));
        let config = ServeConfig {
            verdict_log: Some(log.clone()),
            ..serve_config()
        };
        let daemon = Daemon::start(config, ServingBundle::new(bundle.clone())).unwrap();
        let report = replay(&ReplayConfig {
            addr: daemon.addr().to_string(),
            patients,
            steps,
            seed: 2022,
            chaos: None,
            pacing: Duration::ZERO,
        })
        .unwrap();
        assert!(report.clean_close, "run {run}: Goodbye must be answered");
        assert_eq!(report.errors, 0);
        assert_eq!(report.sent_steps, patients * steps);
        // One verdict per accepted record past warm-up, none lost.
        assert_eq!(report.verdicts, patients * (steps - window + 1));
        daemon.shutdown().unwrap();
        logs.push(std::fs::read(&log).unwrap());
        let _ = std::fs::remove_file(&log);
    }
    assert_eq!(
        logs[0], logs[1],
        "two identical replays must produce byte-identical verdict logs"
    );
    assert!(logs[0].starts_with(b"patient,step,label,proba,health,shed\n"));
}

#[test]
fn overload_blast_yields_busy_frames_but_never_kills_the_daemon() {
    let ds = dataset();
    let bundle = rule_bundle(&ds);
    let config = ServeConfig {
        shards: 1,
        shard: ShardConfig {
            queue_cap: 32,
            drain_max: 8,
            tick_budget: None,
            ..ShardConfig::default()
        },
        // A lazy tick loop so the blast outruns the drain budget.
        tick_interval: Duration::from_millis(5),
        ..serve_config()
    };
    let daemon = Daemon::start(config, ServingBundle::new(bundle)).unwrap();
    let report = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 4,
        steps: 200,
        seed: 7,
        chaos: None,
        pacing: Duration::ZERO,
    })
    .unwrap();
    assert!(report.busy > 0, "overload must answer explicit Busy frames");
    assert!(report.verdicts > 0, "accepted steps still get verdicts");
    assert!(report.clean_close, "the daemon survives the blast");
    daemon.shutdown().unwrap();
}

#[test]
fn storm_chaos_over_tcp_is_survived() {
    let ds = dataset();
    let bundle = rule_bundle(&ds);
    let daemon = Daemon::start(serve_config(), ServingBundle::new(bundle)).unwrap();
    // A hostile wire mangles mid-stream frames; once framing is lost the
    // server answers a typed Malformed error and closes — it must never
    // panic or leak the sessions.
    let report = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 4,
        steps: 96,
        seed: 11,
        chaos: Some(cpsmon_serve::ChaosPlan::hostile(3)),
        pacing: Duration::ZERO,
    })
    .unwrap();
    // Chaos may or may not destroy framing for this seed; either way the
    // exchange terminates and a follow-up clean replay works.
    assert!(report.verdicts > 0 || report.errors > 0);
    let clean = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 2,
        steps: 48,
        seed: 5,
        chaos: None,
        pacing: Duration::ZERO,
    })
    .unwrap();
    assert!(clean.clean_close, "daemon still serves after the storm");
    assert!(clean.verdicts > 0);
    daemon.shutdown().unwrap();
}

#[test]
fn slow_client_is_isolated_and_its_frames_are_dropped_not_blocking() {
    let ds = dataset();
    let bundle = rule_bundle(&ds);
    let config = ServeConfig {
        shards: 1,
        shard: ShardConfig {
            queue_cap: 1 << 16,
            drain_max: 1 << 12,
            tick_budget: None,
            ..ShardConfig::default()
        },
        ..serve_config()
    };
    let daemon = Daemon::start(config, ServingBundle::new(bundle)).unwrap();

    // The stalled client: floods one session with steps and never reads
    // a byte, so its verdict volume overwhelms the socket buffer and the
    // bounded outbound channel behind it.
    let traces = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(1)
        .runs_per_patient(1)
        .steps(200)
        .seed(3)
        .run();
    let recs = traces[0].records();
    let mut stalled = TcpStream::connect(daemon.addr()).unwrap();
    stalled
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .unwrap();
    let mut payload = Vec::new();
    for seq in 0..30_000u32 {
        Frame::Step {
            patient: 0,
            seq,
            rec: recs[(seq as usize) % recs.len()],
        }
        .encode_into(&mut payload);
    }
    stalled.write_all(&payload).unwrap();

    // While the stalled client's channel saturates, a well-behaved
    // client on the same daemon must still be served promptly.
    let polite = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 2,
        steps: 48,
        seed: 9,
        chaos: None,
        pacing: Duration::ZERO,
    })
    .unwrap();
    assert!(polite.clean_close, "polite client served despite the stall");
    assert!(polite.verdicts > 0);

    // The stalled connection's overflow was dropped, not buffered.
    let t0 = Instant::now();
    while daemon.dropped_frames() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        daemon.dropped_frames() > 0,
        "slow-client verdicts must be dropped once its channel fills"
    );
    drop(stalled);
    daemon.shutdown().unwrap();
}

#[test]
fn protocol_violations_get_typed_errors_and_a_clean_close() {
    let ds = dataset();
    let bundle = rule_bundle(&ds);
    let daemon = Daemon::start(serve_config(), ServingBundle::new(bundle)).unwrap();

    // Wrong version in Hello.
    let frames = raw_exchange(daemon.addr(), &Frame::Hello { version: 99 }.encode(), false);
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: ErrorCode::BadVersion,
                ..
            }
        )),
        "bad version must be answered with a typed error, got {frames:?}"
    );

    // First frame is not Hello.
    let frames = raw_exchange(daemon.addr(), &Frame::Goodbye.encode(), false);
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: ErrorCode::Malformed,
                ..
            }
        )),
        "non-Hello first frame must be Malformed, got {frames:?}"
    );

    // Framing destroyed after a valid Hello: an oversized length prefix.
    let mut garbage = u32::MAX.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    let frames = raw_exchange(daemon.addr(), &garbage, true);
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: ErrorCode::Malformed,
                ..
            }
        )),
        "lost framing must be Malformed, got {frames:?}"
    );

    // A client sending a server-only frame.
    let frames = raw_exchange(
        daemon.addr(),
        &Frame::Busy {
            patient: 1,
            queue_len: 0,
        }
        .encode(),
        true,
    );
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: ErrorCode::Malformed,
                ..
            }
        )),
        "server-only frames from a client are Malformed, got {frames:?}"
    );

    // After all that abuse, a clean replay still works.
    let clean = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 2,
        steps: 48,
        seed: 5,
        chaos: None,
        pacing: Duration::ZERO,
    })
    .unwrap();
    assert!(clean.clean_close);
    daemon.shutdown().unwrap();
}

/// Minimal HTTP client for the admin surface.
fn http(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut body = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_string(&mut body);
    let status: u16 = body
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = body
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn admin_surface_reports_health_and_reloads_bundles_safely() {
    let ds = dataset();
    let bundle_a = rule_bundle(&ds);
    // A second bundle against the same dataset: hot-reload compatible.
    let cfg = TrainConfig {
        seed: 5,
        ..TrainConfig::quick_test()
    };
    let monitor = MonitorKind::Mlp.train(&ds, &cfg).unwrap();
    let bundle_b = MonitorBundle::new(monitor, &ds, &cfg);
    assert_eq!(bundle_a.fingerprint, bundle_b.fingerprint);

    let config = ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..serve_config()
    };
    let daemon = Daemon::start(config, ServingBundle::new(bundle_a)).unwrap();
    let admin = daemon.admin_addr().expect("admin surface enabled");

    let (status, body) = http(admin, "GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "idle daemon is healthy: {body}");
    assert!(body.contains("healthy"), "got {body}");

    // Feed some traffic so stats are non-trivial.
    let report = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 2,
        steps: 48,
        seed: 5,
        chaos: None,
        pacing: Duration::ZERO,
    })
    .unwrap();
    assert!(report.verdicts > 0);

    let (status, body) = http(admin, "GET /stats HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"verdicts\""), "got {body}");
    assert!(
        body.contains("\"epoch\":0"),
        "boot bundle is epoch 0: {body}"
    );

    // Successful hot reload from a valid artifact file.
    let good = tmp_path("bundle-good.bin");
    bundle_b.save_to_path(&good).unwrap();
    let (status, body) = http(
        admin,
        &format!("POST /reload?path={} HTTP/1.0\r\n\r\n", good.display()),
    );
    assert_eq!(status, 200, "valid reload accepted: {body}");
    assert!(body.contains("\"reloaded\":true"), "got {body}");
    assert!(body.contains("\"epoch\":1"), "got {body}");

    // Corrupt artifact: truncate the file mid-payload. The daemon must
    // answer 409 with the ArtifactError chain and keep serving epoch 1.
    let bytes = std::fs::read(&good).unwrap();
    let corrupt = tmp_path("bundle-corrupt.bin");
    std::fs::write(&corrupt, &bytes[..bytes.len() / 2]).unwrap();
    let (status, body) = http(
        admin,
        &format!("POST /reload?path={} HTTP/1.0\r\n\r\n", corrupt.display()),
    );
    assert_eq!(status, 409, "corrupt reload rejected: {body}");
    assert!(body.contains("\"reloaded\":false"), "got {body}");

    // Missing file: also a clean 409, with the io error in the chain.
    let (status, body) = http(
        admin,
        &format!(
            "POST /reload?path={} HTTP/1.0\r\n\r\n",
            tmp_path("no-such-bundle.bin").display()
        ),
    );
    assert_eq!(status, 409, "missing file rejected: {body}");

    // Mis-shaped network with a valid fingerprint: the first bias loses a
    // value, so every tensor parses but the layer does not fit together.
    // The loader must reject it with a 409, not panic the admin thread.
    let text = String::from_utf8(bytes.clone()).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("tensor dense0.b 1 "))
        .expect("an MLP bundle has a first-layer bias");
    let values: Vec<String> = lines[at + 1].split(' ').map(str::to_string).collect();
    lines[at] = format!("tensor dense0.b 1 {}", values.len() - 1);
    lines[at + 1] = values[1..].join(" ");
    let misshaped = tmp_path("bundle-misshaped.bin");
    std::fs::write(&misshaped, lines.join("\n") + "\n").unwrap();
    let (status, body) = http(
        admin,
        &format!("POST /reload?path={} HTTP/1.0\r\n\r\n", misshaped.display()),
    );
    assert_eq!(status, 409, "mis-shaped reload rejected: {body}");
    assert!(body.contains("\"reloaded\":false"), "got {body}");

    // A bundle relabeled with the retired quantized format version: a
    // typed version rejection, not a parse of the body.
    let relabeled = tmp_path("bundle-v2.bin");
    std::fs::write(
        &relabeled,
        text.replacen("cpsmon-bundle v1", "cpsmon-bundle v2", 1),
    )
    .unwrap();
    let (status, body) = http(
        admin,
        &format!("POST /reload?path={} HTTP/1.0\r\n\r\n", relabeled.display()),
    );
    assert_eq!(status, 409, "v2 reload rejected: {body}");
    assert!(body.contains("\"reloaded\":false"), "got {body}");
    assert!(
        body.contains("unsupported bundle format version 'v2'"),
        "got {body}"
    );

    // The rejected reloads left the swapped bundle serving.
    let (status, body) = http(admin, "GET /stats HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"epoch\":1"),
        "epoch survives rejects: {body}"
    );
    let clean = replay(&ReplayConfig {
        addr: daemon.addr().to_string(),
        patients: 2,
        steps: 48,
        seed: 6,
        chaos: None,
        pacing: Duration::ZERO,
    })
    .unwrap();
    assert!(clean.clean_close && clean.verdicts > 0);

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&corrupt);
    let _ = std::fs::remove_file(&misshaped);
    let _ = std::fs::remove_file(&relabeled);
    daemon.shutdown().unwrap();
}
