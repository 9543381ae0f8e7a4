//! Zero-message keying: flow key derivation (§5.1-5.2).
//!
//! `K_f = H(sfl | K_{S,D} | S | D)` where `H` is a one-way cryptographic
//! hash. Knowing `K_{S,D}` and the *sfl* makes derivation cheap; knowing a
//! flow key reveals neither the master key nor any sibling flow key (the
//! §6.1 containment property). `S` and `D` are included to explicitly tie
//! the flow key to the principal pair, which also serves multi-homed
//! principals.

use crate::principal::Principal;
use fbs_crypto::{md5::Md5, sha1::Sha1, CipherSuite, Des, MacAlgorithm, MacContext};
use std::sync::OnceLock;

/// Hash used for flow-key derivation (the paper names MD5, SHS, even DES as
/// candidates for `H`; we provide the two real hashes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum KeyDerivation {
    /// MD5: 16-byte flow keys (the implementation's choice).
    #[default]
    Md5,
    /// SHA-1: 20-byte flow keys.
    Sha1,
}

/// A derived per-flow key. Soft state: safe to discard and recompute.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FlowKey(pub Vec<u8>);

impl FlowKey {
    /// Key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// First 8 bytes as a DES key (DES uses 56 effective bits of an 8-byte
    /// key; the flow key is long enough for either hash choice).
    pub fn des_key(&self) -> [u8; 8] {
        let mut k = [0u8; 8];
        k.copy_from_slice(&self.0[..8]);
        k
    }
}

impl std::fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material in logs.
        write!(f, "FlowKey(<{} bytes>)", self.0.len())
    }
}

/// A [`FlowKey`] with its cipher schedules pre-expanded and its
/// [`CipherSuite`] sealed in, so per-flow setup runs once at key-derivation
/// time rather than inside the per-datagram fast path. The flow-key caches
/// store these (behind `Arc`, making cache hits a refcount bump).
///
/// Carrying the suite here is what lets workers dispatch crypto per *key*
/// instead of per *config*: a config change mid-batch cannot change how
/// already-resolved flows seal or open.
pub struct SealedFlowKey {
    key: FlowKey,
    des: Des,
    suite: CipherSuite,
    /// Keyed-MD5 context with the flow-key prefix already absorbed, cloned
    /// per datagram instead of re-absorbing the key. The AEAD suite never
    /// uses it: its Poly1305 key is one-time per datagram.
    mac_prefix: MacContext,
    /// 256-bit ChaCha20 key expanded from the flow key (AEAD suite).
    chacha: OnceLock<[u8; 32]>,
}

impl SealedFlowKey {
    /// Seal `key` for `suite`, building every schedule the suite needs at
    /// derivation time: the DES schedule, the keyed-MD5 prefix context, and
    /// the ChaCha20 key for the AEAD suite.
    /// After this, the per-datagram path performs no schedule construction.
    pub fn seal(key: FlowKey, suite: CipherSuite) -> Self {
        let sealed = SealedFlowKey {
            des: Des::new(&key.des_key()),
            mac_prefix: MacAlgorithm::KeyedMd5.begin(key.as_bytes()),
            key,
            suite,
            chacha: OnceLock::new(),
        };
        if suite == CipherSuite::AeadChaPoly {
            let _ = sealed.chacha_key();
        }
        sealed
    }

    /// The profile this key was sealed for.
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// The underlying flow key.
    pub fn key(&self) -> &FlowKey {
        &self.key
    }

    /// Key bytes (MAC keying material).
    pub fn as_bytes(&self) -> &[u8] {
        self.key.as_bytes()
    }

    /// The cached single-DES schedule.
    pub fn des(&self) -> &Des {
        &self.des
    }

    /// The 256-bit ChaCha20 key: the flow key expanded through two
    /// domain-separated MD5 invocations (the flow key itself is only 16 or
    /// 20 bytes). Pre-built by [`seal`](Self::seal) for the AEAD suite.
    pub fn chacha_key(&self) -> &[u8; 32] {
        self.chacha.get_or_init(|| {
            let mut out = [0u8; 32];
            let mut h = Md5::new();
            h.update(self.key.as_bytes());
            h.update(b"\x00fbs-chacha");
            out[..16].copy_from_slice(&h.finalize());
            let mut h = Md5::new();
            h.update(self.key.as_bytes());
            h.update(b"\x01fbs-chacha");
            out[16..].copy_from_slice(&h.finalize());
            out
        })
    }

    /// Begin a keyed-MD5 computation under this flow key by cloning the
    /// cached key-prefix context.
    pub fn mac_begin(&self) -> MacContext {
        self.mac_prefix.clone()
    }
}

impl std::fmt::Debug for SealedFlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Cached subkeys are key material too: redact like FlowKey.
        write!(f, "SealedFlowKey({:?})", self.key)
    }
}

/// Derive `K_f = H(sfl | K_{S,D} | S | D)`.
///
/// Principal encodings are length-prefixed inside the hash input so that
/// distinct `(S, D)` pairs can never collide by boundary-shifting (e.g.
/// S="ab", D="c" vs S="a", D="bc").
pub fn derive_flow_key(
    derivation: KeyDerivation,
    sfl: u64,
    master_key: &[u8],
    source: &Principal,
    destination: &Principal,
) -> FlowKey {
    let s_len = (source.len() as u32).to_be_bytes();
    let d_len = (destination.len() as u32).to_be_bytes();
    match derivation {
        KeyDerivation::Md5 => {
            let mut h = Md5::new();
            h.update(&sfl.to_be_bytes());
            h.update(master_key);
            h.update(&s_len);
            h.update(source.as_bytes());
            h.update(&d_len);
            h.update(destination.as_bytes());
            FlowKey(h.finalize().to_vec())
        }
        KeyDerivation::Sha1 => {
            let mut h = Sha1::new();
            h.update(&sfl.to_be_bytes());
            h.update(master_key);
            h.update(&s_len);
            h.update(source.as_bytes());
            h.update(&d_len);
            h.update(destination.as_bytes());
            FlowKey(h.finalize().to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Principal {
        Principal::named(name)
    }

    #[test]
    fn deterministic() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 7, b"master", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 7, b"master", &p("S"), &p("D"));
        assert_eq!(k1, k2);
        assert_eq!(k1.as_bytes().len(), 16);
    }

    #[test]
    fn sha1_variant_is_20_bytes() {
        let k = derive_flow_key(KeyDerivation::Sha1, 7, b"master", &p("S"), &p("D"));
        assert_eq!(k.as_bytes().len(), 20);
    }

    #[test]
    fn sfl_separates_flows() {
        // Breaking one flow key must not compromise sibling flows (§6.1).
        let k1 = derive_flow_key(KeyDerivation::Md5, 1, b"master", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 2, b"master", &p("S"), &p("D"));
        assert_ne!(k1, k2);
    }

    #[test]
    fn direction_matters() {
        // Flows are unidirectional (§5.2 observations): S→D and D→S with the
        // same sfl yield different keys.
        let k_sd = derive_flow_key(KeyDerivation::Md5, 9, b"master", &p("S"), &p("D"));
        let k_ds = derive_flow_key(KeyDerivation::Md5, 9, b"master", &p("D"), &p("S"));
        assert_ne!(k_sd, k_ds);
    }

    #[test]
    fn master_key_matters() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 9, b"master-1", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 9, b"master-2", &p("S"), &p("D"));
        assert_ne!(k1, k2);
    }

    #[test]
    fn principal_boundary_shifting_cannot_collide() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("ab"), &p("c"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("a"), &p("bc"));
        assert_ne!(k1, k2);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        assert_eq!(format!("{k:?}"), "FlowKey(<16 bytes>)");
    }

    #[test]
    fn des_key_is_prefix() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        assert_eq!(&k.des_key()[..], &k.as_bytes()[..8]);
    }

    #[test]
    fn mac_begin_cached_prefix_matches_fresh() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        let bytes = k.as_bytes().to_vec();
        for suite in CipherSuite::ALL {
            let sealed = SealedFlowKey::seal(k.clone(), suite);
            for msg in [&b"datagram one"[..], b"two", b""] {
                let mut cached = sealed.mac_begin();
                cached.update(msg);
                let mut fresh = MacAlgorithm::KeyedMd5.begin(&bytes);
                fresh.update(msg);
                assert_eq!(cached.finalize(), fresh.finalize(), "{suite:?}");
            }
        }
    }

    #[test]
    fn chacha_key_is_deterministic_and_key_separated() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 1, b"m", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 2, b"m", &p("S"), &p("D"));
        let s1a = SealedFlowKey::seal(k1.clone(), CipherSuite::AeadChaPoly);
        let s1b = SealedFlowKey::seal(k1, CipherSuite::Paper);
        let s2 = SealedFlowKey::seal(k2, CipherSuite::AeadChaPoly);
        assert_eq!(s1a.chacha_key(), s1b.chacha_key());
        assert_ne!(s1a.chacha_key(), s2.chacha_key());
    }

    #[test]
    fn seal_records_the_suite() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        for suite in CipherSuite::ALL {
            assert_eq!(SealedFlowKey::seal(k.clone(), suite).suite(), suite);
        }
    }
}
