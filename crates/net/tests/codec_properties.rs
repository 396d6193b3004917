//! Property tests for the wire codec: every frame kind round-trips
//! bit-exactly, and no mutilation of the bytes — truncation, corruption,
//! oversized lengths, foreign headers — can produce anything but a typed
//! [`WireError`]. No panics, no hangs, no unbounded allocations.

use models::NaiveForecaster;
use net::frame::{
    decode_frame, encode_forecast_frame, encode_frame, encode_ingest_frame, read_frame, ErrorCode,
    ForecastOutcome, HealthReport, IngestEntry, Message, SeedSpec, WireError, WireFault,
    HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION,
};
use proptest::prelude::*;
use rptcn::{PipelineConfig, PredictorState, ResourcePredictor, Scenario};
use timeseries::TimeSeriesFrame;

fn small_string() -> impl Strategy<Value = String> {
    (0usize..4, 0u32..1000).prop_map(|(kind, n)| match kind {
        0 => format!("c-{n}"),
        1 => format!("entity/{n}/cpu"),
        2 => String::new(),
        _ => format!("π-{n}-日誌"),
    })
}

fn values() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0e6f32..1.0e6, 0..6)
}

fn ingest_entry() -> impl Strategy<Value = IngestEntry> {
    (small_string(), 0u64..1000, 0usize..2, values()).prop_map(|(entity, seq, has_seq, values)| {
        IngestEntry {
            entity,
            seq: if has_seq == 1 { Some(seq) } else { None },
            values,
        }
    })
}

fn string_list() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(small_string(), 0..5)
}

fn pair_list() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((small_string(), small_string()), 0..4)
}

fn outcome() -> impl Strategy<Value = ForecastOutcome> {
    (0usize..3, values(), small_string()).prop_map(|(kind, vs, msg)| match kind {
        0 => ForecastOutcome::Values(vs),
        1 => ForecastOutcome::Unknown,
        _ => ForecastOutcome::Failed(msg),
    })
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    (0usize..5).prop_map(|i| {
        [
            ErrorCode::Draining,
            ErrorCode::UnknownEntity,
            ErrorCode::Malformed,
            ErrorCode::Internal,
            ErrorCode::Unsupported,
        ][i]
    })
}

/// One strategy covering every frame kind except the state-bearing ones
/// (Checkpoint/Restore/Drain replies carry `PredictorState`, exercised
/// separately with real fitted predictors).
fn message() -> impl Strategy<Value = Message> {
    (
        (0usize..13, proptest::collection::vec(ingest_entry(), 0..4)),
        (0u64..1000, string_list(), pair_list()),
        (
            proptest::collection::vec((small_string(), outcome()), 0..4),
            (0u64..100, 0u64..100, 0u64..100, 0usize..2),
        ),
        (
            (string_list(), 0u64..1000, 30u32..100, 1u32..10),
            (error_code(), small_string()),
        ),
    )
        .prop_map(
            |(
                (kind, entries),
                (accepted, strs, pairs),
                (results, (a, b, c, flag)),
                ((ids, seed, blen, window), (code, msg)),
            )| {
                match kind {
                    0 => Message::Ingest { entries },
                    1 => Message::IngestOk {
                        accepted,
                        unknown: strs,
                        errors: pairs,
                    },
                    2 => Message::Forecast { ids },
                    3 => Message::ForecastOk { results },
                    4 => Message::Health,
                    5 => Message::HealthOk(HealthReport {
                        entities: a,
                        ingested: b,
                        forecasts: c,
                        degraded: a,
                        restarts: b,
                        draining: flag == 1,
                    }),
                    6 => Message::Checkpoint { ids },
                    7 => Message::Seed(SeedSpec {
                        ids,
                        seed,
                        bootstrap_len: blen,
                        window,
                    }),
                    8 => Message::SeedOk {
                        installed: a,
                        already: ids,
                    },
                    9 => Message::Evict { ids },
                    10 => Message::EvictOk { removed: a },
                    11 => Message::RestoreOk {
                        installed: a,
                        errors: pairs,
                    },
                    _ => Message::Error(WireFault { code, message: msg }),
                }
            },
        )
}

/// Round-trip check that works without `PartialEq` on `Message`:
/// encode → decode → re-encode must reproduce the exact bytes.
fn assert_roundtrip(request_id: u64, msg: &Message) {
    let bytes = encode_frame(request_id, msg).expect("encode");
    let (id, decoded, used) = decode_frame(&bytes).expect("decode");
    assert_eq!(id, request_id);
    assert_eq!(used, bytes.len());
    let re = encode_frame(request_id, &decoded).expect("re-encode");
    assert_eq!(re, bytes, "re-encoded bytes differ for {}", msg.kind_name());
    // The streaming reader must agree with the buffered decoder.
    let mut cursor = &bytes[..];
    let (sid, smsg) = read_frame(&mut cursor).expect("streamed read");
    assert_eq!(sid, request_id);
    assert_eq!(encode_frame(sid, &smsg).expect("encode"), bytes);
}

proptest! {
    /// Every frame kind round-trips bit-exactly through encode/decode,
    /// under arbitrary request ids.
    #[test]
    fn frames_roundtrip(msg in message(), request_id in 0u64..u64::MAX) {
        assert_roundtrip(request_id, &msg);
    }

    /// Cutting a valid frame anywhere yields `Truncated`, never a panic
    /// or a bogus decode.
    #[test]
    fn truncation_always_typed(msg in message(), cut_frac in 0.0f64..1.0) {
        let bytes = encode_frame(7, &msg).expect("encode");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("must fail");
            prop_assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}/{}: {err:?}", bytes.len()
            );
        }
    }

    /// Flipping any single byte never panics: the result is either a
    /// typed error or a frame that still re-encodes without panicking.
    #[test]
    fn corruption_never_panics(msg in message(), pos_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let mut bytes = encode_frame(3, &msg).expect("encode");
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len().max(1);
        bytes[pos] ^= xor;
        if let Ok((id, decoded, _)) = decode_frame(&bytes) {
            let _ = encode_frame(id, &decoded);
        }
    }

    /// Trailing garbage after a payload is rejected as malformed.
    #[test]
    fn trailing_bytes_rejected(msg in message(), extra in 1u32..16) {
        let mut bytes = encode_frame(5, &msg).expect("encode");
        // Grow the announced payload length and append zero padding the
        // decoder will not consume.
        let announced = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
        bytes[16..20].copy_from_slice(&(announced + extra).to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, extra as usize));
        let err = decode_frame(&bytes).expect_err("must fail");
        prop_assert!(
            matches!(err, WireError::Malformed(_) | WireError::UnknownKind(_)),
            "{err:?}"
        );
    }

    /// Cross-version headers are refused with the announced version.
    #[test]
    fn foreign_versions_refused(msg in message(), version in 0u16..50) {
        let mut bytes = encode_frame(1, &msg).expect("encode");
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        if version == WIRE_VERSION {
            assert!(decode_frame(&bytes).is_ok());
        } else {
            prop_assert!(matches!(
                decode_frame(&bytes),
                Err(WireError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    /// Non-zero header flags are malformed in protocol version 1.
    #[test]
    fn nonzero_flags_rejected(msg in message(), flags in 1u8..=255) {
        let mut bytes = encode_frame(1, &msg).expect("encode");
        bytes[7] = flags;
        prop_assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    /// An adversarial length field cannot trigger payload allocation:
    /// oversized announcements fail fast on a 20-byte buffer.
    #[test]
    fn oversized_lengths_fail_fast(len in (MAX_PAYLOAD + 1)..u32::MAX) {
        let mut bytes = encode_frame(1, &Message::Health).expect("encode");
        bytes.truncate(HEADER_LEN);
        bytes[16..20].copy_from_slice(&len.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Oversized { len: l, .. }) if l == len
        ));
    }

    /// Unknown message kinds decode to the typed error carrying the kind.
    #[test]
    fn unknown_kinds_typed(kind in 20u8..=255) {
        let mut bytes = encode_frame(1, &Message::Health).expect("encode");
        bytes[6] = kind;
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::UnknownKind(k)) if k == kind
        ));
    }
}

/// Any f32 bit pattern, with NaNs (payload-carrying ones included),
/// infinities and signed zeros drawn often.
fn any_bits() -> impl Strategy<Value = f32> {
    (0usize..10, 0u32..u32::MAX).prop_map(|(kind, raw)| match kind {
        0 => f32::NAN,
        1 => f32::from_bits(0x7fa0_0001),
        2 => f32::from_bits(0xffc0_1234),
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => -0.0,
        _ => f32::from_bits(raw),
    })
}

/// Samples of arity 0–16 with arbitrary bits and either seq form, under
/// empty, ASCII and multi-byte UTF-8 ids.
fn wire_entry() -> impl Strategy<Value = IngestEntry> {
    (
        small_string(),
        (0usize..2, 0u64..u64::MAX),
        proptest::collection::vec(any_bits(), 0..17),
    )
        .prop_map(|(entity, (has_seq, seq), values)| IngestEntry {
            entity,
            seq: (has_seq == 1).then_some(seq),
            values,
        })
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The borrowed encoders write exactly the bytes of the owned message
    /// they stand for, into a buffer whose old contents they replace, and
    /// those bytes decode back to the same bits.
    #[test]
    fn borrowed_encoders_write_the_owned_message_bytes(
        entries in proptest::collection::vec(wire_entry(), 0..6),
        request_id in 0u64..u64::MAX,
    ) {
        let mut out = vec![0xAB; 7];
        let borrowed = entries
            .iter()
            .map(|e| (e.entity.as_str(), e.seq, e.values.as_slice()));
        encode_ingest_frame(&mut out, request_id, borrowed).expect("encode");
        let ingest = Message::Ingest { entries: entries.clone() };
        prop_assert_eq!(&out, &encode_frame(request_id, &ingest).expect("encode"));
        let (id, decoded, _) = decode_frame(&out).expect("decode");
        prop_assert_eq!(id, request_id);
        let Message::Ingest { entries: decoded } = decoded else {
            panic!("ingest decodes as {}", decoded.kind_name());
        };
        for (got, want) in decoded.iter().zip(&entries) {
            prop_assert_eq!(&got.entity, &want.entity);
            prop_assert_eq!(got.seq, want.seq);
            prop_assert_eq!(bits(&got.values), bits(&want.values));
        }

        let ids: Vec<String> = entries.into_iter().map(|e| e.entity).collect();
        encode_forecast_frame(&mut out, request_id, ids.iter().map(String::as_str))
            .expect("encode");
        let forecast = Message::Forecast { ids };
        prop_assert_eq!(&out, &encode_frame(request_id, &forecast).expect("encode"));
    }
}

/// The version-1 bytes of an Ingest and a Forecast frame, written out by
/// hand from the layout in `net::frame`'s docs, so any change to what
/// the router sends fails here whichever encoder made it.
#[test]
fn ingest_and_forecast_frames_keep_their_version_1_bytes() {
    fn frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = b"RPTW".to_vec();
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&[kind, 0]);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }
    let nan = f32::from_bits(0x7fc0_0001);
    let mut ingest = 2u32.to_le_bytes().to_vec();
    ingest.extend_from_slice(&3u32.to_le_bytes());
    ingest.extend_from_slice(b"c-1");
    ingest.push(0);
    ingest.extend_from_slice(&2u32.to_le_bytes());
    ingest.extend_from_slice(&0.5f32.to_le_bytes());
    ingest.extend_from_slice(&nan.to_bits().to_le_bytes());
    // "π-日": 2 + 1 + 3 UTF-8 bytes.
    ingest.extend_from_slice(&6u32.to_le_bytes());
    ingest.extend_from_slice("π-日".as_bytes());
    ingest.push(1);
    ingest.extend_from_slice(&9u64.to_le_bytes());
    ingest.extend_from_slice(&0u32.to_le_bytes());
    let samples = [("c-1", None, &[0.5, nan][..]), ("π-日", Some(9), &[][..])];
    let mut out = Vec::new();
    encode_ingest_frame(&mut out, 1 << 33, samples).expect("encode");
    assert_eq!(out, frame(1, 1 << 33, &ingest));

    let mut forecast = 2u32.to_le_bytes().to_vec();
    forecast.extend_from_slice(&3u32.to_le_bytes());
    forecast.extend_from_slice(b"c-1");
    forecast.extend_from_slice(&0u32.to_le_bytes());
    encode_forecast_frame(&mut out, 42, ["c-1", ""]).expect("encode");
    assert_eq!(out, frame(3, 42, &forecast));
}

fn fitted_state(phase: f32) -> PredictorState {
    let n = 48;
    let cpu: Vec<f32> = (0..n)
        .map(|i| 40.0 + 25.0 * ((i as f32 * 0.2 + phase).sin()))
        .collect();
    let frame = TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu)]).expect("frame");
    let cfg = PipelineConfig {
        scenario: Scenario::Uni,
        window: 8,
        horizon: 1,
        ..Default::default()
    };
    let (predictor, _) =
        ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &frame, cfg).expect("fit");
    predictor.snapshot().expect("snapshot")
}

/// State-bearing frames (Checkpoint/Restore/Drain replies) round-trip
/// real fitted predictor states bit-exactly.
#[test]
fn state_frames_roundtrip() {
    let entities = vec![
        ("c-001".to_string(), fitted_state(0.0)),
        ("c-002".to_string(), fitted_state(1.3)),
    ];
    for msg in [
        Message::CheckpointOk {
            entities: entities.clone(),
        },
        Message::Restore {
            entities: entities.clone(),
        },
        Message::DrainOk { entities },
    ] {
        assert_roundtrip(11, &msg);
    }
}

/// Truncating a state-bearing frame at every byte boundary stays typed.
#[test]
fn state_frame_truncation_typed() {
    let bytes = encode_frame(
        2,
        &Message::CheckpointOk {
            entities: vec![("c-7".to_string(), fitted_state(0.5))],
        },
    )
    .expect("encode");
    for cut in 0..bytes.len() {
        let err = decode_frame(&bytes[..cut]).expect_err("must fail");
        assert!(
            matches!(err, WireError::Truncated { .. }),
            "cut {cut}: {err:?}"
        );
    }
}
