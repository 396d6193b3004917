//! Golden-fixture tests for the exporters: a fixed registry state must
//! render byte-for-byte as the committed fixtures. Any intentional format
//! change shows up here as a fixture diff, never as silent drift.

use obs::{journal_text, to_json, to_text, EventKind, Journal, Registry};

/// The registry state both fixtures were rendered from.
fn fixture_registry() -> Registry {
    let r = Registry::new();
    r.counter("fleet.ingested").add(40);
    r.counter("fleet.forecasts").add(12);
    r.gauge("shard0.queue_depth").set(3);
    let forecast = r.histogram("shard0.forecast_ns", &[1_000, 10_000, 100_000]);
    for sample in [800, 900, 5_000, 20_000, 250_000] {
        forecast.record(sample);
    }
    r.histogram("shard1.refit_ns", &[1_000]);
    r
}

#[test]
fn text_export_matches_golden_fixture() {
    let rendered = to_text(&fixture_registry().snapshot());
    let golden = include_str!("fixtures/snapshot.txt");
    assert_eq!(
        rendered, golden,
        "text exporter drifted from tests/fixtures/snapshot.txt"
    );
}

#[test]
fn json_export_matches_golden_fixture() {
    let rendered = to_json(&fixture_registry().snapshot());
    let golden = include_str!("fixtures/snapshot.json");
    assert_eq!(
        rendered,
        golden.trim_end(),
        "JSON exporter drifted from tests/fixtures/snapshot.json"
    );
}

#[test]
fn journal_text_is_deterministic_under_a_fixed_timeline() {
    let build = || {
        let j = Journal::new(8);
        j.emit(
            1_000,
            EventKind::ShardRestart,
            Some(2),
            None,
            "panic: poisoned".into(),
        );
        j.emit(
            2_000,
            EventKind::Quarantined,
            Some(2),
            Some("vm-17"),
            "crash culprit".into(),
        );
        j.emit(
            3_000,
            EventKind::Degraded,
            Some(2),
            None,
            "fallback mode".into(),
        );
        j
    };
    let text = journal_text(&build());
    assert_eq!(
        text,
        "at=1000 kind=shard_restart shard=2 entity=- panic: poisoned\n\
         at=2000 kind=quarantined shard=2 entity=vm-17 crash culprit\n\
         at=3000 kind=degraded shard=2 entity=- fallback mode\n"
    );
    assert_eq!(text, journal_text(&build()), "same events, same bytes");
}
