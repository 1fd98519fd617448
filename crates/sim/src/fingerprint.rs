//! Streaming trace fingerprints.
//!
//! A [`Fingerprint`] reduces an entire simulation run to one 64-bit digest
//! by folding every popped event — its virtual time, queue sequence number
//! and (via [`FingerprintEvent`]) its actor/kind payload — into an
//! incremental FNV-1a hash. Two runs with the same digest executed the
//! same schedule; a digest mismatch between two same-seed runs is a
//! determinism leak (wall-clock reads, `HashMap` iteration order, …).
//! The [`crate::Engine`] maintains one automatically; see
//! [`crate::Engine::fingerprint`].

/// Incremental 64-bit FNV-1a hasher with convenience writers.
///
/// FNV-1a is used deliberately: it is stable across platforms and Rust
/// versions (unlike `DefaultHasher`, which documents no stability), so
/// fingerprints can be compared across processes and recorded in CI logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// `PRIME^k` for `k` in `0..=8` (wrapping): what `k` zero bytes fold to.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(Fingerprint::PRIME);
        k += 1;
    }
    pow
};

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    /// The one fold routine: the `width` little-endian bytes of `v` (which
    /// must fit them), byte-wise FNV-1a. Event fields are mostly small
    /// numbers in wide words, and a zero byte folds as `(h ^ 0) * P == h *
    /// P`: so the bytes below the highest non-zero one fold one by one, and
    /// that byte together with the `k` zero bytes above it in a single
    /// multiplication by `P^(k + 1)`.
    #[inline]
    fn fold_le(&mut self, v: u64, width: u32) {
        debug_assert!(
            width == 8 || v >> (8 * width) == 0,
            "{v:#x} wider than {width} bytes"
        );
        let mut h = self.0;
        let mut rest = v;
        let mut left = width;
        while rest > 0xff {
            h = (h ^ (rest & 0xff)).wrapping_mul(Self::PRIME);
            rest >>= 8;
            left -= 1;
        }
        self.0 = (h ^ rest).wrapping_mul(PRIME_POW[left as usize]);
    }

    /// Folds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold_le(u64::from_le_bytes(word), chunk.len() as u32);
        }
    }

    /// Folds one 64-bit word (little-endian byte fold).
    pub fn write_u64(&mut self, v: u64) {
        self.fold_le(v, 8);
    }

    /// Folds one 32-bit word.
    pub fn write_u32(&mut self, v: u32) {
        self.fold_le(u64::from(v), 4);
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.fold_le(u64::from(v), 1);
    }

    /// Folds a string's bytes (plus a length separator, so `("ab","c")`
    /// and `("a","bc")` fold differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current digest.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Event payloads that contribute structure (actor, kind, arguments) to a
/// run fingerprint.
///
/// Implementations must be *pure*: fold only values that are themselves
/// deterministic functions of the simulation state. Folding addresses,
/// capacities or other allocator-dependent values would make the
/// fingerprint flap on identical schedules.
pub trait FingerprintEvent {
    /// Folds this event's identity into `fp`.
    fn fold(&self, fp: &mut Fingerprint);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // FNV-1a 64 of "a" is a published test vector.
        let mut fp = Fingerprint::new();
        fp.write_bytes(b"a");
        assert_eq!(fp.value(), 0xaf63dc4c8601ec8c);
    }

    /// Byte-at-a-time FNV-1a from an arbitrary state: the definition the
    /// zero-byte-aware fold must equal.
    fn bytewise(start: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(start, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(Fingerprint::PRIME)
        })
    }

    proptest::proptest! {
        #[test]
        fn word_writers_equal_the_bytewise_fold(start: u64, v: u64, byte in 0u32..8) {
            for v in [v, v >> (8 * byte), 0, 1 << (8 * byte), u64::MAX] {
                let mut fp = Fingerprint(start);
                fp.write_u64(v);
                proptest::prop_assert_eq!(fp.value(), bytewise(start, &v.to_le_bytes()), "u64 {:#x}", v);
                let w = v as u32;
                let mut fp = Fingerprint(start);
                fp.write_u32(w);
                proptest::prop_assert_eq!(fp.value(), bytewise(start, &w.to_le_bytes()), "u32 {:#x}", w);
                let b = v as u8;
                let mut fp = Fingerprint(start);
                fp.write_u8(b);
                proptest::prop_assert_eq!(fp.value(), bytewise(start, &[b]), "u8 {:#x}", b);
            }
        }

        #[test]
        fn write_bytes_equals_the_bytewise_fold(
            start: u64,
            bytes in proptest::collection::vec(0u8..4, 0..40),
        ) {
            let mut fp = Fingerprint(start);
            fp.write_bytes(&bytes);
            proptest::prop_assert_eq!(fp.value(), bytewise(start, &bytes));
        }
    }

    #[test]
    fn order_sensitivity() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn str_framing_disambiguates() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.value(), b.value());
    }
}
