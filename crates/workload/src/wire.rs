//! Low-level binary wire primitives: LEB128 varints, zigzag signed
//! integers, length-prefixed strings and a slicing-by-8 CRC-32.
//!
//! These are the byte-level building blocks shared by the binary event
//! frame (`isel-service`) and the binary trace stream (`isel-core`).
//! They live here because this crate sits at the bottom of the workspace
//! dependency graph, mirroring how the id/interning vocabulary does.
//!
//! Every decoder is bounds-checked and total: malformed input yields
//! `None`, never a panic — the service-side contract that corrupt bytes
//! surface as counted invalid events depends on it.

/// Maximum encoded length of one varint (64 bits / 7 bits per byte).
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an LEB128 varint at `*pos`, advancing it past the encoding.
/// Returns `None` on truncation or an encoding longer than
/// [`MAX_VARINT_LEN`] bytes (which cannot come from [`put_varint`]).
pub fn get_varint(b: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT_LEN {
        let byte = *b.get(*pos + i)?;
        // The 10th byte may only carry the final bit of a 64-bit value.
        if i == MAX_VARINT_LEN - 1 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Some(v);
        }
        shift += 7;
    }
    None
}

/// Zigzag-encode a signed integer so small magnitudes stay short.
pub fn put_signed(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Decode a zigzag varint written by [`put_signed`].
pub fn get_signed(b: &[u8], pos: &mut usize) -> Option<i64> {
    let z = get_varint(b, pos)?;
    Some(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string written by [`put_str`],
/// rejecting lengths past the end of the buffer or invalid UTF-8.
pub fn get_str(b: &[u8], pos: &mut usize) -> Option<String> {
    let len = usize::try_from(get_varint(b, pos)?).ok()?;
    let bytes = b.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Append an `f64` as its raw little-endian bit pattern — bit-exact, so
/// replayed traces compare with `to_bits` equality.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Decode an `f64` written by [`put_f64`].
pub fn get_f64(b: &[u8], pos: &mut usize) -> Option<f64> {
    let bytes: [u8; 8] = b.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(f64::from_bits(u64::from_le_bytes(bytes)))
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) slicing-by-8 tables,
/// generated at compile time — no dependency, no runtime init. Table 0
/// is the classic byte-at-a-time table; table `k` advances a byte's
/// contribution past `k` more zero bytes, so eight bytes fold in with
/// eight independent lookups instead of a chain of eight.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 checksum of `bytes` (IEEE, as in gzip/zlib), eight bytes per
/// step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "decoder consumes the whole encoding");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlength() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(get_varint(&buf[..cut], &mut pos), None, "cut at {cut}");
        }
        // Eleven continuation bytes can never be a valid 64-bit varint.
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80u8; 11], &mut pos), None);
        // A 10th byte carrying more than the final bit overflows 64 bits.
        let mut over = vec![0x80u8; 9];
        over.push(0x02);
        let mut pos = 0;
        assert_eq!(get_varint(&over, &mut pos), None);
    }

    #[test]
    fn signed_round_trips_both_signs() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_signed(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_signed(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn strings_round_trip_and_reject_bad_input() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo");
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).as_deref(), Some("héllo"));
        // Length running past the end of the buffer.
        let mut bad = Vec::new();
        put_varint(&mut bad, 100);
        bad.push(b'x');
        let mut pos = 0;
        assert_eq!(get_str(&bad, &mut pos), None);
        // Invalid UTF-8 payload.
        let mut bad = Vec::new();
        put_varint(&mut bad, 2);
        bad.extend_from_slice(&[0xFF, 0xFE]);
        let mut pos = 0;
        assert_eq!(get_str(&bad, &mut pos), None);
    }

    #[test]
    fn f64_round_trips_bit_exact() {
        for v in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut pos = 0;
            let back = get_f64(&buf, &mut pos).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let mut pos = 0;
        assert_eq!(get_f64(&[0u8; 7], &mut pos), None, "truncated");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"), "detects a one-byte change");
    }

    /// The textbook bit-at-a-time CRC-32, sharing nothing with the
    /// tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_a_bitwise_reference_at_every_length_and_offset() {
        let buf: Vec<u8> =
            (0..308u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "offset {start}, length {len}");
            }
        }
    }
}
