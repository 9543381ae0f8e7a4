//! Keyed message authentication codes.
//!
//! The paper defines the FBS MAC as `HMAC(K_f | confounder | timestamp |
//! payload)` where `HMAC` is "some one-way cryptographic hash function"
//! (§5.2) — i.e. a *prefix-keyed hash*, the 1997 idiom (keyed MD5, §7.2).
//! This module provides:
//!
//! * [`keyed_digest`] — the paper's exact prefix-key construction;
//! * [`MacAlgorithm`] — the two MACs the cipher suites use: keyed MD5 and
//!   the Poly1305 one-time authenticator. Which one a datagram carries
//!   follows from its [`CipherSuite`](crate::CipherSuite).

use crate::chacha::Poly1305;
use crate::md5::Md5;

/// Maximum MAC output size across supported algorithms.
pub const MAX_MAC_SIZE: usize = 16;

/// A MAC algorithm, fixed by the cipher suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MacAlgorithm {
    /// Prefix-keyed MD5 (the paper's implementation choice): 16 bytes.
    KeyedMd5,
    /// Poly1305 one-time authenticator (RFC 8439): 16 bytes. The key is a
    /// 32-byte *one-time* `r || s` pair — the AEAD suite derives a fresh one
    /// per datagram from ChaCha20 keystream block 0; it is never keyed with
    /// the long-lived flow key directly.
    Poly1305,
}

impl MacAlgorithm {
    /// Output length in bytes before truncation.
    pub fn output_len(self) -> usize {
        16
    }

    /// Begin an incremental MAC computation keyed by `key`.
    pub fn begin(self, key: &[u8]) -> MacContext {
        match self {
            MacAlgorithm::KeyedMd5 => {
                let mut ctx = Md5::new();
                ctx.update(key);
                MacContext::KeyedMd5(ctx)
            }
            MacAlgorithm::Poly1305 => {
                // The one-time key is exactly 32 bytes; shorter keys are
                // zero-padded (deterministic, but callers always pass the
                // full `r || s` pair), longer keys are truncated.
                let mut otk = [0u8; 32];
                let n = key.len().min(32);
                otk[..n].copy_from_slice(&key[..n]);
                MacContext::Poly1305(Poly1305::new(&otk))
            }
        }
    }
}

/// An incremental MAC computation.
///
/// §5.3 observes that MAC computation "requires touching all the data in
/// the datagram" and that an efficient implementation should combine all
/// data-touching operations — MAC + encryption — into a single pass. The
/// streaming context makes that single-pass loop possible: the protocol
/// layer interleaves `update` calls with cipher-block processing.
///
/// `Clone` lets a flow key cache a context that has already absorbed the
/// key prefix: sealing a datagram then clones the cached state instead of
/// re-absorbing the key.
#[derive(Clone)]
pub enum MacContext {
    /// Prefix-keyed MD5 state.
    KeyedMd5(Md5),
    /// Poly1305 one-time authenticator state.
    Poly1305(Poly1305),
}

impl MacContext {
    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        match self {
            MacContext::KeyedMd5(ctx) => ctx.update(data),
            MacContext::Poly1305(ctx) => ctx.update(data),
        }
    }

    /// Finish and return the MAC bytes.
    pub fn finalize(self) -> Vec<u8> {
        let mut out = [0u8; MAX_MAC_SIZE];
        let len = self.finalize_into(&mut out);
        out[..len].to_vec()
    }

    /// Finish, writing the MAC into `out` and returning its length — the
    /// zero-copy fast path: no digest temporary is heap-allocated.
    pub fn finalize_into(self, out: &mut [u8; MAX_MAC_SIZE]) -> usize {
        *out = match self {
            MacContext::KeyedMd5(ctx) => ctx.finalize(),
            MacContext::Poly1305(ctx) => ctx.finalize(),
        };
        MAX_MAC_SIZE
    }
}

/// The paper's MAC: prefix-keyed hash of `key | parts...` using MD5.
pub fn keyed_digest(key: &[u8], parts: &[&[u8]]) -> [u8; 16] {
    let mut ctx = Md5::new();
    ctx.update(key);
    for p in parts {
        ctx.update(p);
    }
    ctx.finalize()
}

/// Constant-time MAC comparison: prevents a receiver-side timing oracle on
/// MAC verification (R8 of Fig. 4).
pub fn mac_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_digest_matches_manual_concat() {
        let key = b"flowkey";
        let got = keyed_digest(key, &[b"conf", b"ts", b"payload"]);
        let manual = crate::md5::md5(b"flowkeyconftspayload");
        assert_eq!(got, manual);
    }

    #[test]
    fn parts_split_is_irrelevant() {
        let a = keyed_digest(b"k", &[b"ab", b"cd"]);
        assert_eq!(a, keyed_digest(b"k", &[b"abcd"]));
        assert_eq!(a, keyed_digest(b"k", &[b"a", b"b", b"c", b"d"]));
    }

    #[test]
    fn key_separates_macs() {
        let m1 = keyed_digest(b"key1", &[b"data"]);
        let m2 = keyed_digest(b"key2", &[b"data"]);
        assert_ne!(m1, m2);
    }

    #[test]
    fn streaming_context_matches_oneshot() {
        let mut ctx = MacAlgorithm::KeyedMd5.begin(b"the key");
        ctx.update(b"hel");
        ctx.update(b"lo world");
        assert_eq!(
            ctx.finalize(),
            keyed_digest(b"the key", &[b"hello world"]).to_vec()
        );
        let otk = [0x5au8; 32];
        let mut ctx = MacAlgorithm::Poly1305.begin(&otk);
        ctx.update(b"hel");
        ctx.update(b"lo world");
        assert_eq!(
            ctx.finalize(),
            crate::chacha::poly1305(&otk, &[b"hello world"]).to_vec()
        );
    }

    /// The cached key-prefix pattern: cloning a context that has absorbed
    /// only the key, then feeding each message into the clone, matches a
    /// fresh `begin` per message.
    #[test]
    fn cloned_prefix_context_matches_fresh() {
        let cached = MacAlgorithm::KeyedMd5.begin(b"flow key");
        for msg in [&b"first datagram"[..], b"second", b""] {
            let mut from_clone = cached.clone();
            from_clone.update(msg);
            let mut fresh = MacAlgorithm::KeyedMd5.begin(b"flow key");
            fresh.update(msg);
            assert_eq!(from_clone.finalize(), fresh.finalize());
        }
    }

    #[test]
    fn mac_eq_behaviour() {
        assert!(mac_eq(b"same", b"same"));
        assert!(!mac_eq(b"same", b"Same"));
        assert!(!mac_eq(b"short", b"longer"));
        assert!(mac_eq(b"", b""));
    }
}
