//! Integration tests for the monitor artifact store: saved-then-loaded
//! bundles must be bit-identical to the in-memory monitors for every
//! monitor kind on both simulators, and every corruption mode must be
//! rejected loudly rather than served silently.

use cpsmon_core::artifact::{dataset_fingerprint, ArtifactError, MonitorBundle};
use cpsmon_core::{DatasetBuilder, LabeledDataset, MonitorKind, TrainConfig};
use cpsmon_sim::{CampaignConfig, SimulatorKind};
use std::io::BufReader;

fn dataset(kind: SimulatorKind) -> LabeledDataset {
    let traces = CampaignConfig::new(kind)
        .patients(2)
        .runs_per_patient(3)
        .steps(144)
        .fault_ratio(0.6)
        .seed(23)
        .run();
    DatasetBuilder::new().seed(23).build(&traces).unwrap()
}

fn saved_bytes(bundle: &MonitorBundle) -> Vec<u8> {
    let mut buf = Vec::new();
    bundle.save(&mut buf).unwrap();
    buf
}

#[test]
fn all_kinds_roundtrip_bit_identically_on_both_simulators() {
    for sim in SimulatorKind::ALL {
        let ds = dataset(sim);
        let cfg = TrainConfig::quick_test();
        let fp = dataset_fingerprint(&ds);
        for mk in MonitorKind::ALL {
            let monitor = mk.train(&ds, &cfg).unwrap();
            let bundle = MonitorBundle::new(monitor, &ds, &cfg);
            assert_eq!(bundle.fingerprint, fp, "{mk} on {sim}");
            let buf = saved_bytes(&bundle);
            let loaded =
                MonitorBundle::load_validated(&mut BufReader::new(buf.as_slice()), fp).unwrap();
            assert_eq!(loaded.monitor.kind, mk);
            // Hard predictions are bit-identical for every kind…
            assert_eq!(
                loaded.monitor.predict(&ds.test),
                bundle.monitor.predict(&ds.test),
                "{mk} on {sim}"
            );
            // …and so are the soft probabilities of the ML kinds.
            if let (Some(orig), Some(load)) = (
                bundle.monitor.as_grad_model(),
                loaded.monitor.as_grad_model(),
            ) {
                assert_eq!(
                    orig.predict_proba(&ds.test.x),
                    load.predict_proba(&ds.test.x),
                    "{mk} on {sim}"
                );
            }
            assert_eq!(loaded.normalizer, ds.normalizer, "{mk} on {sim}");
            assert_eq!(loaded.train_config, cfg, "{mk} on {sim}");
        }
    }
}

#[test]
fn file_roundtrip_through_paths() {
    let ds = dataset(SimulatorKind::Glucosym);
    let cfg = TrainConfig::quick_test();
    let monitor = MonitorKind::Mlp.train(&ds, &cfg).unwrap();
    let bundle = MonitorBundle::new(monitor, &ds, &cfg);
    let path = std::env::temp_dir()
        .join(format!("cpsmon-artifact-{}", std::process::id()))
        .join("mlp.bundle");
    bundle.save_to_path(&path).unwrap();
    let loaded = MonitorBundle::load_from_path(&path, bundle.fingerprint).unwrap();
    assert_eq!(
        loaded.monitor.predict(&ds.test),
        bundle.monitor.predict(&ds.test)
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn truncation_anywhere_is_rejected() {
    let ds = dataset(SimulatorKind::Glucosym);
    let cfg = TrainConfig::quick_test();
    for mk in [MonitorKind::RuleBased, MonitorKind::Mlp, MonitorKind::Lstm] {
        let monitor = mk.train(&ds, &cfg).unwrap();
        let bundle = MonitorBundle::new(monitor, &ds, &cfg);
        let buf = saved_bytes(&bundle);
        // Cut at several depths: header, normalizer, model payload.
        for keep in [1, buf.len() / 20, buf.len() / 2, buf.len() - 2] {
            let cut = &buf[..keep];
            assert!(
                MonitorBundle::load(&mut BufReader::new(cut)).is_err(),
                "{mk}: truncation to {keep} bytes was accepted"
            );
        }
    }
}

#[test]
fn bad_magic_and_wrong_version_are_rejected() {
    let ds = dataset(SimulatorKind::Glucosym);
    let cfg = TrainConfig::quick_test();
    let monitor = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
    let buf = saved_bytes(&MonitorBundle::new(monitor, &ds, &cfg));
    let text = String::from_utf8(buf).unwrap();

    let wrong_magic = text.replacen("cpsmon-bundle", "not-a-bundle", 1);
    let err = MonitorBundle::load(&mut BufReader::new(wrong_magic.as_bytes())).unwrap_err();
    assert!(matches!(err, ArtifactError::BadMagic(_)), "{err}");

    let wrong_version = text.replacen("cpsmon-bundle v1", "cpsmon-bundle v3", 1);
    let err = MonitorBundle::load(&mut BufReader::new(wrong_version.as_bytes())).unwrap_err();
    assert!(
        matches!(err, ArtifactError::UnsupportedVersion(v) if v == "v3"),
        "wrong variant"
    );

    // v2 was the retired quantized format: it fails with the same typed
    // error as any other version this build does not read.
    let relabeled = text.replacen("cpsmon-bundle v1", "cpsmon-bundle v2", 1);
    let err = MonitorBundle::load(&mut BufReader::new(relabeled.as_bytes())).unwrap_err();
    assert!(
        matches!(err, ArtifactError::UnsupportedVersion(ref v) if v == "v2"),
        "{err}"
    );
}

#[test]
fn mismatched_fingerprint_is_rejected_for_every_kind() {
    let ds = dataset(SimulatorKind::Glucosym);
    let other = dataset(SimulatorKind::T1ds2013);
    let cfg = TrainConfig::quick_test();
    assert_ne!(dataset_fingerprint(&ds), dataset_fingerprint(&other));
    for mk in MonitorKind::ALL {
        let monitor = mk.train(&ds, &cfg).unwrap();
        let bundle = MonitorBundle::new(monitor, &ds, &cfg);
        let buf = saved_bytes(&bundle);
        let err = MonitorBundle::load_validated(
            &mut BufReader::new(buf.as_slice()),
            dataset_fingerprint(&other),
        )
        .unwrap_err();
        assert!(
            matches!(err, ArtifactError::FingerprintMismatch { .. }),
            "{mk}: {err}"
        );
    }
}

#[test]
fn out_of_range_rule_parameters_are_rejected() {
    let ds = dataset(SimulatorKind::Glucosym);
    let cfg = TrainConfig::quick_test();
    let monitor = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
    let text = String::from_utf8(saved_bytes(&MonitorBundle::new(monitor, &ds, &cfg))).unwrap();
    let good = "rules 120 70 0.001 1.5";
    assert!(text.contains(good), "{text}");
    assert!(MonitorBundle::load(&mut BufReader::new(text.as_bytes())).is_ok());
    for bad in [
        "rules NaN 70 0.001 1.5",
        "rules 120 70 -1 -2",
        "rules inf -inf 0.001 1.5",
    ] {
        let edited = text.replacen(good, bad, 1);
        let err = MonitorBundle::load(&mut BufReader::new(edited.as_bytes())).unwrap_err();
        assert!(matches!(err, ArtifactError::Parse { .. }), "{bad}: {err}");
    }
}
