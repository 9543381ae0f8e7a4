//! Cipher-suite selector for the profile-driven crypto plane.
//!
//! The paper's security flow header carries an "algorithm identification
//! field" (§5.2) precisely so that endpoints can move to stronger or faster
//! algorithms than the DES+MD5 baseline measured in fig08. A
//! [`CipherSuite`] is the one selector for that decision: it fixes the MAC,
//! the cipher and the MAC-input layout, and it is sealed into the flow's
//! key schedule at derivation time — so the per-datagram fast path
//! dispatches on the key, never on mutable config, and a worker never
//! changes crypto behaviour mid-batch. The per-datagram `secret` flag only
//! chooses between the suite's cipher and none.
//!
//! The suite also owns the header's algorithm-ID word (bytes 16–19, see
//! [`CipherSuite::alg_word`]): bytes 16 and 17 follow from byte 19 and the
//! `secret` flag, and a word that names anything else does not parse.

use crate::mac::MacAlgorithm;

/// A crypto-plane profile, carried in the flow key schedule and in the
/// (formerly reserved) header byte 19. Each suite fixes its MAC and cipher:
///
/// | suite | MAC (byte 16) | cipher (byte 17 when secret) | byte 19 |
/// |---|---|---|---|
/// | `Paper` | keyed MD5 (0) | DES-CBC (1) | 0 |
/// | `FastDes` | keyed MD5 (0) | DES-CTR (6) | 1 |
/// | `AeadChaPoly` | Poly1305 (4) | ChaCha20 (7) | 2 |
///
/// Cleartext datagrams carry 0 in byte 17. These ids keep paper-suite
/// frames bit-identical to the pre-suite wire format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// Paper-faithful profile: prefix-keyed MD5 + DES-CBC, MAC over the
    /// plaintext, byte-identical to the pre-suite wire format (byte 19
    /// stays zero, exactly as the seed wrote it).
    #[default]
    Paper,
    /// Fast classical profile: word-sliced (8-wide interleaved) DES in
    /// counter mode + prefix-keyed MD5 with a cached key-prefix context.
    /// Same primitives as the paper, restructured for ILP.
    FastDes,
    /// Modern AEAD-style profile: ChaCha20 encryption + Poly1305 one-time
    /// tag over the ciphertext (encrypt-then-MAC, RFC 8439 layout).
    AeadChaPoly,
}

impl CipherSuite {
    /// All suites, for grids and exhaustive tests.
    pub const ALL: [CipherSuite; 3] = [
        CipherSuite::Paper,
        CipherSuite::FastDes,
        CipherSuite::AeadChaPoly,
    ];

    /// Wire identifier carried in header byte 19. `Paper` is 0 so
    /// paper-profile frames remain bit-identical to the pre-suite format.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherSuite::Paper => 0,
            CipherSuite::FastDes => 1,
            CipherSuite::AeadChaPoly => 2,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => CipherSuite::Paper,
            1 => CipherSuite::FastDes,
            2 => CipherSuite::AeadChaPoly,
            _ => return None,
        })
    }

    /// Stable label used in counters, bench reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            CipherSuite::Paper => "paper",
            CipherSuite::FastDes => "fast_des",
            CipherSuite::AeadChaPoly => "aead_chacha_poly",
        }
    }

    /// The suite's MAC.
    pub fn mac(self) -> MacAlgorithm {
        match self {
            CipherSuite::Paper | CipherSuite::FastDes => MacAlgorithm::KeyedMd5,
            CipherSuite::AeadChaPoly => MacAlgorithm::Poly1305,
        }
    }

    /// Header byte 16: the suite's MAC id.
    fn mac_id(self) -> u8 {
        match self.mac() {
            MacAlgorithm::KeyedMd5 => 0,
            MacAlgorithm::Poly1305 => 4,
        }
    }

    /// Header byte 17 of a secret datagram: the suite's cipher id.
    fn cipher_id(self) -> u8 {
        match self {
            CipherSuite::Paper => 1,
            CipherSuite::FastDes => 6,
            CipherSuite::AeadChaPoly => 7,
        }
    }

    /// Header bytes 16–19, the algorithm-ID word: MAC id, cipher id (0 when
    /// the body travels in the clear), shipped MAC length, suite id.
    pub fn alg_word(self, secret: bool, mac_len: u8) -> [u8; 4] {
        let cipher = if secret { self.cipher_id() } else { 0 };
        [self.mac_id(), cipher, mac_len, self.wire_id()]
    }

    /// Inverse of [`alg_word`](Self::alg_word): the suite and `secret`
    /// flag an algorithm-ID word names. Bytes 16 and 17 must be exactly
    /// what `alg_word` writes for byte 19's suite; `Err` carries the first
    /// byte that is not. Byte 18 (the MAC length) is the caller's to check.
    pub fn from_alg_word(word: [u8; 4]) -> Result<(Self, bool), u8> {
        let suite = Self::from_wire_id(word[3]).ok_or(word[3])?;
        if word[0] != suite.mac_id() {
            return Err(word[0]);
        }
        let secret = match word[1] {
            0 => false,
            id if id == suite.cipher_id() => true,
            id => return Err(id),
        };
        Ok((suite, secret))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_id_roundtrip() {
        for suite in CipherSuite::ALL {
            assert_eq!(CipherSuite::from_wire_id(suite.wire_id()), Some(suite));
        }
        assert_eq!(CipherSuite::from_wire_id(3), None);
        assert_eq!(CipherSuite::from_wire_id(255), None);
    }

    #[test]
    fn paper_is_wire_zero_and_default() {
        // Bit-identical compatibility hinges on Paper == 0 == the old
        // reserved byte.
        assert_eq!(CipherSuite::Paper.wire_id(), 0);
        assert_eq!(CipherSuite::default(), CipherSuite::Paper);
    }

    #[test]
    fn alg_word_roundtrips_and_keeps_the_old_ids() {
        assert_eq!(CipherSuite::Paper.alg_word(true, 16), [0, 1, 16, 0]);
        assert_eq!(CipherSuite::FastDes.alg_word(true, 16), [0, 6, 16, 1]);
        assert_eq!(CipherSuite::AeadChaPoly.alg_word(false, 8), [4, 0, 8, 2]);
        for suite in CipherSuite::ALL {
            for secret in [false, true] {
                let word = suite.alg_word(secret, 16);
                assert_eq!(CipherSuite::from_alg_word(word), Ok((suite, secret)));
            }
        }
    }

    #[test]
    fn alg_word_rejects_bytes_the_suite_does_not_name() {
        for suite in CipherSuite::ALL {
            let word = suite.alg_word(true, 16);
            for b in 0..=255u8 {
                if b != word[0] {
                    let bad = [b, word[1], word[2], word[3]];
                    assert_eq!(CipherSuite::from_alg_word(bad), Err(b));
                }
                if b != word[1] && b != 0 {
                    let bad = [word[0], b, word[2], word[3]];
                    assert_eq!(CipherSuite::from_alg_word(bad), Err(b));
                }
            }
        }
        assert_eq!(CipherSuite::from_alg_word([0, 0, 16, 3]), Err(3));
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = CipherSuite::ALL.iter().map(|s| s.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
