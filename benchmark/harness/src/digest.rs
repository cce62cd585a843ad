//! FNV-1a digests of fixtures and outputs.

/// 64-bit FNV-1a, fed piece by piece: fixtures are digested as they are
/// streamed, never held whole.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Mix `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.update(bytes);
    h.finish()
}

/// [`fnv64`] as 16 lower-case hex digits.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv64_hex(b"a"), "af63dc4c8601ec8c");
        let mut pieces = Fnv64::default();
        pieces.update(b"foo");
        pieces.update(b"");
        pieces.update(b"bar");
        assert_eq!(pieces.finish(), fnv64(b"foobar"));
    }
}
