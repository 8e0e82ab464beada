//! Hand-serialized sweep-point records — no serde, no bincode.
//!
//! A record maps a [`PointKey`] — `(model fingerprint, axis point,
//! solver version)` — to a [`PointRecord`]: either what every metric of
//! the point's stationary solution reads (boundary vectors, the `R`
//! matrix and the geometric sums `sⱼ = (I − R)⁻ʲ·ε`, stored as exact
//! `f64` bit patterns so replay is byte-identical) or a typed failure.
//!
//! Encoding is little-endian throughout:
//!
//! ```text
//! payload := tag:u8  key  body
//! key     := str(fingerprint)  solver_version:u32  x_bits:u64
//! body    := m:u32  f64[m] pi0  f64[m] pi1  f64[m*m] r  f64[m] s1  f64[m] s2  f64[m] s3
//!                                                                      (tag 3, solved)
//!          | str(kind)  str(message)                                  (tag 2, failed)
//!          | m:u32  f64[m] pi0  f64[m] pi1  f64[m*m] r  f64[m*m] g    (tag 1, stale)
//! str     := len:u32  utf8[len]
//! ```
//!
//! Tag 1 is the solved layout of earlier builds, which stored `G` and
//! no sums. It still decodes, so such a log opens, verifies and
//! recovers its torn tail, but its records are stale: they are never
//! replayed, and the point re-solves once into a tag-3 record that
//! shadows the old frame.

use std::fmt;

/// The content address of one sweep point.
///
/// Two runs that build the same model at the same grid coordinate with
/// the same solver version share a key — which is exactly the dedupe
/// the resumable/sharded sweep fabric needs. A solver-version bump
/// changes every key, so stale records (including stale *failure*
/// records) are re-attempted rather than replayed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointKey {
    /// Full model fingerprint (includes the arrival rate; see
    /// `performa_core::sweep::store_key`).
    pub fingerprint: String,
    /// Version of the solver stack that produced the record.
    pub solver_version: u32,
    /// Exact bits of the grid coordinate `x`.
    pub x_bits: u64,
}

/// One persisted sweep-point outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum PointRecord {
    /// The point solved; the raw parts of the stationary solution.
    Solved {
        /// Phase dimension `m`.
        m: u32,
        /// Boundary vector `π₀` (`m` entries).
        pi0: Vec<f64>,
        /// Boundary vector `π₁` (`m` entries).
        pi1: Vec<f64>,
        /// Rate matrix `R`, row-major (`m·m` entries).
        r: Vec<f64>,
        /// `s₁ = (I − R)⁻¹·ε` (`m` entries).
        s1: Vec<f64>,
        /// `s₂ = (I − R)⁻²·ε` (`m` entries).
        s2: Vec<f64>,
        /// `s₃ = (I − R)⁻³·ε` (`m` entries).
        s3: Vec<f64>,
    },
    /// The point failed after the sweep pool's retry ladder; replayed
    /// as a typed error unless the caller asks for re-attempts.
    Failed {
        /// Short machine-readable failure class (e.g.
        /// `"numerical_breakdown"`).
        kind: String,
        /// Human-readable message of the original error.
        message: String,
    },
}

/// A record decoding failure (corrupt or truncated payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded when the payload ran out or misparsed.
    pub context: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record decode failed at {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

const TAG_STALE_SOLVED: u8 = 1;
const TAG_FAILED: u8 = 2;
const TAG_SOLVED: u8 = 3;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    for &x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Cursor over a payload slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.bytes.len() - self.pos < n {
            return Err(DecodeError { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    fn string(&mut self, context: &'static str) -> Result<String, DecodeError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError { context })
    }

    fn f64s(&mut self, n: usize, context: &'static str) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.take(n.checked_mul(8).ok_or(DecodeError { context })?, context)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    fn done(&self, context: &'static str) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError { context })
        }
    }
}

/// Encodes a `(key, record)` pair into a frame payload.
pub fn encode_record(key: &PointKey, record: &PointRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        PointRecord::Solved {
            m,
            pi0,
            pi1,
            r,
            s1,
            s2,
            s3,
        } => {
            out.push(TAG_SOLVED);
            put_str(&mut out, &key.fingerprint);
            out.extend_from_slice(&key.solver_version.to_le_bytes());
            out.extend_from_slice(&key.x_bits.to_le_bytes());
            out.extend_from_slice(&m.to_le_bytes());
            for xs in [pi0, pi1, r, s1, s2, s3] {
                put_f64s(&mut out, xs);
            }
        }
        PointRecord::Failed { kind, message } => {
            out.push(TAG_FAILED);
            put_str(&mut out, &key.fingerprint);
            out.extend_from_slice(&key.solver_version.to_le_bytes());
            out.extend_from_slice(&key.x_bits.to_le_bytes());
            put_str(&mut out, kind);
            put_str(&mut out, message);
        }
    }
    out
}

/// Decodes a frame payload back into its key and record. The record is
/// `None` for a well-formed stale tag-1 frame (see the module docs),
/// which callers count and never replay.
///
/// # Errors
///
/// [`DecodeError`] when the payload is truncated, carries an unknown
/// tag, declares inconsistent dimensions, or has trailing bytes.
pub fn decode_record(payload: &[u8]) -> Result<(PointKey, Option<PointRecord>), DecodeError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let tag = r.u8("tag")?;
    let fingerprint = r.string("fingerprint")?;
    let solver_version = r.u32("solver_version")?;
    let x_bits = r.u64("x_bits")?;
    let key = PointKey {
        fingerprint,
        solver_version,
        x_bits,
    };
    let record = match tag {
        TAG_SOLVED => {
            let m = r.u32("phase_dim")?;
            let n = m as usize;
            Some(PointRecord::Solved {
                m,
                pi0: r.f64s(n, "pi0")?,
                pi1: r.f64s(n, "pi1")?,
                r: r.f64s(n * n, "r_matrix")?,
                s1: r.f64s(n, "s1")?,
                s2: r.f64s(n, "s2")?,
                s3: r.f64s(n, "s3")?,
            })
        }
        TAG_STALE_SOLVED => {
            // π₀, π₁, R and G: checked for length, never decoded.
            let n = r.u32("phase_dim")? as usize;
            let context = "stale solution";
            r.take(
                (n + n * n).checked_mul(16).ok_or(DecodeError { context })?,
                context,
            )?;
            None
        }
        TAG_FAILED => {
            let kind = r.string("failure_kind")?;
            let message = r.string("failure_message")?;
            Some(PointRecord::Failed { kind, message })
        }
        _ => return Err(DecodeError { context: "tag" }),
    };
    r.done("trailing bytes")?;
    Ok((key, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved_key() -> PointKey {
        PointKey {
            fingerprint: "n=2;nu=4611686018427387904".to_string(),
            solver_version: 1,
            x_bits: 0.7f64.to_bits(),
        }
    }

    #[test]
    fn solved_round_trip_is_exact() {
        let key = solved_key();
        let rec = PointRecord::Solved {
            m: 2,
            pi0: vec![0.25, f64::MIN_POSITIVE],
            pi1: vec![1.0 / 3.0, 1e-300],
            r: vec![0.1, 0.2, 0.3, 0.4],
            s1: vec![1.5, 2.5],
            s2: vec![-0.0, 7.0],
            s3: vec![1e300, 9.0],
        };
        let payload = encode_record(&key, &rec);
        // m² + 5m floats after the tag, the key and m.
        assert_eq!(
            payload.len(),
            1 + 4 + key.fingerprint.len() + 4 + 8 + 4 + 8 * (4 + 5 * 2)
        );
        let (k2, r2) = decode_record(&payload).unwrap();
        assert_eq!(k2, key);
        assert_eq!(r2, Some(rec));
    }

    /// A tag-1 payload in the layout of earlier builds: π₀, π₁, R, G.
    fn stale_payload(key: &PointKey, m: u32) -> Vec<u8> {
        let mut out = vec![TAG_STALE_SOLVED];
        put_str(&mut out, &key.fingerprint);
        out.extend_from_slice(&key.solver_version.to_le_bytes());
        out.extend_from_slice(&key.x_bits.to_le_bytes());
        out.extend_from_slice(&m.to_le_bytes());
        let n = m as usize;
        put_f64s(&mut out, &vec![0.5; 2 * n + 2 * n * n]);
        out
    }

    #[test]
    fn stale_solved_layout_decodes_to_its_key_only() {
        let key = solved_key();
        let payload = stale_payload(&key, 3);
        assert_eq!(decode_record(&payload).unwrap(), (key.clone(), None));
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut {cut}");
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_record(&long).is_err());
        // A phase dimension whose byte count overflows is malformed.
        let mut huge = stale_payload(&key, 0);
        let at = huge.len() - 4;
        huge[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_record(&huge).is_err());
    }

    #[test]
    fn failed_round_trip() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "numerical_breakdown".to_string(),
            message: "NaN at iteration 7 of logred".to_string(),
        };
        let payload = encode_record(&key, &rec);
        assert_eq!(decode_record(&payload).unwrap(), (key, Some(rec)));
    }

    #[test]
    fn truncated_payload_rejected() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "x".to_string(),
            message: "y".to_string(),
        };
        let payload = encode_record(&key, &rec);
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "x".to_string(),
            message: "y".to_string(),
        };
        let mut payload = encode_record(&key, &rec);
        payload.push(0);
        assert!(decode_record(&payload).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "x".to_string(),
            message: "y".to_string(),
        };
        let mut payload = encode_record(&key, &rec);
        payload[0] = 77;
        assert!(decode_record(&payload).is_err());
    }
}
