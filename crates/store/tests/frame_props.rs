//! Property coverage for the frame and record codecs: round-trips are
//! exact (bit-for-bit for the `f64` payloads), and any single-bit
//! mutation of a frame is rejected by the checksum rather than decoded
//! into a different record.

use proptest::prelude::*;

use performa_store::frame::{encode_frame, parse_frame, FrameParse, FRAME_HEADER_LEN};
use performa_store::record::{decode_record, encode_record};
use performa_store::{PointKey, PointRecord};

fn build_key(tag: u64, version: u32, x_bits: u64) -> PointKey {
    PointKey {
        fingerprint: format!("n=3;nu=42;model-{tag}"),
        solver_version: version,
        x_bits,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solved_record_round_trips_exactly(
        tag in 0u64..1_000_000,
        version in 1u32..100,
        x in 0.0f64..1.0,
        m in 1usize..6,
        bits in prop::collection::vec(0u64..u64::MAX, 55),
    ) {
        // Interpret raw u64 draws as f64 bit patterns, sanitised away
        // from NaN (NaN != NaN would break the equality assert while
        // still round-tripping bit-exactly).
        let f = |b: u64| {
            let v = f64::from_bits(b);
            // Clearing the exponent turns a NaN into a (sub)normal or
            // zero while keeping the draw's sign/mantissa bits.
            if v.is_nan() { f64::from_bits(b & !0x7FF0_0000_0000_0000) } else { v }
        };
        let take = |lo: usize, n: usize| bits[lo..lo + n].iter().map(|&b| f(b)).collect::<Vec<_>>();
        let key = build_key(tag, version, x.to_bits());
        let rec = PointRecord::Solved {
            m: m as u32,
            pi0: take(0, m),
            pi1: take(m, m),
            r: take(2 * m, m * m),
            s1: take(2 * m + m * m, m),
            s2: take(3 * m + m * m, m),
            s3: take(4 * m + m * m, m),
        };
        let payload = encode_record(&key, &rec);
        let (k2, r2) = decode_record(&payload).unwrap();
        prop_assert_eq!(&k2, &key);
        // Compare by bits so -0.0 / subnormals are checked exactly.
        match (&rec, &r2) {
            (
                PointRecord::Solved { m: m1, pi0: a0, pi1: a1, r: ar, s1: a3, s2: a4, s3: a5 },
                Some(PointRecord::Solved { m: m2, pi0: b0, pi1: b1, r: br, s1: b3, s2: b4, s3: b5 }),
            ) => {
                prop_assert_eq!(m1, m2);
                for (xs, ys) in [(a0, b0), (a1, b1), (ar, br), (a3, b3), (a4, b4), (a5, b5)] {
                    prop_assert_eq!(xs.len(), ys.len());
                    for (x, y) in xs.iter().zip(ys) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
            other => prop_assert!(false, "variant changed: {:?}", other),
        }

        // And the full frame layer round-trips the payload.
        let frame = encode_frame(&payload);
        match parse_frame(&frame, 0) {
            FrameParse::Ok { payload: p, next } => {
                prop_assert_eq!(p, &payload[..]);
                prop_assert_eq!(next, frame.len());
            }
            other => prop_assert!(false, "frame reparse failed: {:?}", other),
        }
    }

    #[test]
    fn failed_record_round_trips(
        tag in 0u64..1_000_000,
        version in 1u32..100,
        kind_len in 0usize..40,
        msg_len in 0usize..200,
    ) {
        let key = build_key(tag, version, 0.5f64.to_bits());
        let rec = PointRecord::Failed {
            kind: "k".repeat(kind_len),
            message: "é".repeat(msg_len), // multi-byte UTF-8 on purpose
        };
        let payload = encode_record(&key, &rec);
        prop_assert_eq!(decode_record(&payload).unwrap(), (key, Some(rec)));
    }

    #[test]
    fn any_single_bit_flip_is_rejected_by_the_checksum(
        tag in 0u64..1_000_000,
        bit_seed in 0usize..10_000,
    ) {
        let key = build_key(tag, 1, 0.25f64.to_bits());
        let rec = PointRecord::Failed {
            kind: "numerical_breakdown".to_string(),
            message: format!("case {tag}"),
        };
        let payload = encode_record(&key, &rec);
        let mut frame = encode_frame(&payload);
        let bit = bit_seed % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        match parse_frame(&frame, 0) {
            // A flip in the length field may make the frame look
            // truncated (Torn) or implausible/ill-checksummed
            // (BadChecksum); both reject the frame. What must never
            // happen is a clean parse.
            FrameParse::Ok { .. } => prop_assert!(
                false,
                "bit {bit} flipped but frame still parsed clean"
            ),
            FrameParse::Torn | FrameParse::BadChecksum { .. } => {}
        }
    }

    #[test]
    fn any_payload_truncation_is_rejected(
        tag in 0u64..1_000_000,
        cut_seed in 0usize..10_000,
    ) {
        let key = build_key(tag, 1, 0.75f64.to_bits());
        let rec = PointRecord::Failed {
            kind: "no_convergence".to_string(),
            message: format!("case {tag}"),
        };
        let payload = encode_record(&key, &rec);
        let cut = cut_seed % payload.len();
        prop_assert!(decode_record(&payload[..cut]).is_err());
        // A truncated *frame* must read as torn, never as Ok.
        let frame = encode_frame(&payload);
        let fcut = FRAME_HEADER_LEN + cut;
        prop_assert_eq!(parse_frame(&frame[..fcut], 0), FrameParse::Torn);
    }
}
