//! The on-disk frame layer: length-prefixed, CRC-checksummed records.
//!
//! A store file is a fixed 8-byte header followed by frames:
//!
//! ```text
//! file  := magic[8] frame*
//! frame := len:u32le  crc:u32le  payload[len]
//! ```
//!
//! `crc` is the CRC-32 (IEEE 802.3 polynomial, the zlib convention) of
//! the payload bytes. `len` is capped at [`MAX_FRAME_LEN`] so a
//! corrupted length field cannot drive a multi-gigabyte read. The frame
//! layer knows nothing about the payload; record encoding lives in
//! [`crate::record`].

/// File magic: identifies a performa store log, version 1.
pub const MAGIC: [u8; 8] = *b"PERFSTR\x01";

/// Size of the per-frame header (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Sanity cap on a single frame's payload (64 MiB). A solved point at
/// the largest paper-scale phase dimension (m = 561) is ~2.4 MiB, so real
/// frames sit far below this; a length beyond the cap is treated as
/// corruption, not as an allocation request.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Slicing-by-8 CRC-32 (IEEE) tables, built at first use: `T[0]` is
/// the classic byte table, and `T[k][b]` advances `T[0][b]` through `k`
/// further zero bytes, so eight table lookups fold eight input bytes at
/// once (Kounavis & Berry's slicing-by-8).
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 (IEEE 802.3) of `bytes` — the zlib `crc32` convention.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encodes `payload` into a complete frame (header + payload).
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — record encoding
/// never produces frames near the cap.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of parsing one frame at an offset of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameParse<'a> {
    /// A well-formed frame; `next` is the offset just past it.
    Ok {
        /// The checksum-verified payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// The bytes end before a complete frame: a torn append.
    Torn,
    /// The frame is complete but its checksum (or length sanity cap)
    /// rejects it.
    BadChecksum {
        /// Offset of the byte after the (complete) frame.
        next: usize,
    },
}

/// Parses the frame starting at `offset` of `bytes`.
///
/// A length field that is implausible ([`MAX_FRAME_LEN`]) but for which
/// the remaining bytes *could not* hold the claimed payload is reported
/// as [`FrameParse::Torn`]; an implausible length with enough trailing
/// bytes is reported as a checksum failure at the smallest complete
/// frame, so the caller's corruption logic can decide.
pub fn parse_frame(bytes: &[u8], offset: usize) -> FrameParse<'_> {
    let remaining = bytes.len().saturating_sub(offset);
    if remaining < FRAME_HEADER_LEN {
        return FrameParse::Torn;
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        // The length field itself is garbage; there is no meaningful
        // "complete frame" to skip over. Treat as a checksum failure of
        // a zero-payload frame so interior-corruption detection still
        // probes the following bytes.
        return FrameParse::BadChecksum {
            next: offset + FRAME_HEADER_LEN,
        };
    }
    if remaining - FRAME_HEADER_LEN < len {
        return FrameParse::Torn;
    }
    let payload = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
    if crc32(payload) != crc {
        return FrameParse::BadChecksum {
            next: offset + FRAME_HEADER_LEN + len,
        };
    }
    FrameParse::Ok {
        payload,
        next: offset + FRAME_HEADER_LEN + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop `crc32` replaced; kept as the
    /// oracle the sliced version must match on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let t0 = &crc_tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = t0[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_crc32_matches_bytewise_on_random_slices() {
        // xorshift64 bytes; every start offset 0..8 and every length
        // remainder 0..8 mod 8, so both the 8-byte body and the bytewise
        // tail run from misaligned starts.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in (0..64).chain([255, 1000, 1001, 4087, 4088 - offset]) {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset} len {len}");
            }
        }
        for _ in 0..200 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let offset = (s % 8) as usize;
            let len = ((s >> 8) % 4000) as usize;
            let bytes = &data[offset..offset + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset} len {len}");
        }
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello frames";
        let frame = encode_frame(payload);
        assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
        match parse_frame(&frame, 0) {
            FrameParse::Ok { payload: p, next } => {
                assert_eq!(p, payload);
                assert_eq!(next, frame.len());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_torn() {
        let frame = encode_frame(b"0123456789");
        for cut in 0..frame.len() {
            assert_eq!(
                parse_frame(&frame[..cut], 0),
                FrameParse::Torn,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn flipped_bit_is_bad_checksum() {
        let mut frame = encode_frame(b"0123456789");
        let payload_start = FRAME_HEADER_LEN;
        frame[payload_start + 3] ^= 0x40;
        assert!(matches!(parse_frame(&frame, 0), FrameParse::BadChecksum { .. }));
    }

    #[test]
    fn absurd_length_is_bad_checksum_not_allocation() {
        let mut frame = encode_frame(b"abc");
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_frame(&frame, 0), FrameParse::BadChecksum { .. }));
    }
}
