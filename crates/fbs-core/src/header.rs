//! The security flow header (paper §5.2, Fig. 2).
//!
//! Fields and sizes follow the paper's IP-mapping choices (§7.2):
//! 64-bit *sfl*, 32-bit confounder, 32-bit minute timestamp, 128-bit MAC
//! (for MD5). On top of the four core fields, the paper says "for
//! generality, the security flow header should also include an algorithm
//! identification field" — we include one (the algorithm-ID word) plus an
//! explicit plaintext length so block-cipher zero padding can be trimmed
//! without consulting higher layers.
//!
//! ```text
//!  0               8               16              24            31
//! +---------------------------------------------------------------+
//! |                security flow label (sfl), 64 bits             |
//! +---------------------------------------------------------------+
//! |                     confounder, 32 bits                       |
//! +---------------------------------------------------------------+
//! |            timestamp (minutes since FBS epoch), 32 bits       |
//! +---------------+---------------+---------------+---------------+
//! |  suite's MAC  | suite's cipher|    mac len    |   suite id    |
//! |      id       | id, 0 = clear |               |               |
//! +---------------+---------------+---------------+---------------+
//! |                  plaintext length, 32 bits                    |
//! +---------------------------------------------------------------+
//! |                    MAC (mac len bytes)  ...                   |
//! +---------------------------------------------------------------+
//! ```
//!
//! Byte 19 (formerly reserved-zero) carries the [`CipherSuite`] id, and
//! bytes 16 and 17 follow from it and the datagram's `secret` flag (see
//! [`CipherSuite::alg_word`]): a header whose bytes 16/17 name anything
//! else does not parse. The paper-faithful suite is id 0 with MAC id 0 and
//! cipher id 1, so paper-profile frames are bit-identical to the
//! pre-suite wire format.

use crate::error::{FbsError, Result};
use fbs_crypto::CipherSuite;

/// Fixed-size prefix length (everything before the variable-length MAC).
pub const FIXED_PREFIX_LEN: usize = 24;

/// Header length with the paper's MD5 MAC (24 + 16).
pub const HEADER_LEN_MD5: usize = FIXED_PREFIX_LEN + 16;

/// The FBS security flow header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecurityFlowHeader {
    /// Security flow label: the opaque per-flow identifier produced by the
    /// flow association mechanism.
    pub sfl: u64,
    /// Per-datagram statistically-random confounder; duplicated to 64 bits
    /// to form the DES IV (§7.2).
    pub confounder: u32,
    /// Minutes since the FBS epoch; replay freshness check input.
    pub timestamp: u32,
    /// The `secret` flag of Fig. 4: the body is encrypted under the
    /// suite's cipher (header byte 17 non-zero).
    pub secret: bool,
    /// Crypto-plane profile (header byte 19; 0 = paper-faithful).
    pub suite: CipherSuite,
    /// Plaintext body length before padding (equal to body length when
    /// the body travels in the clear).
    pub plaintext_len: u32,
    /// The keyed MAC over confounder | timestamp | payload (§5.2). Possibly
    /// truncated (§5.3 allows truncation to save header bytes).
    pub mac: Vec<u8>,
}

impl SecurityFlowHeader {
    /// Total encoded length of this header.
    pub fn encoded_len(&self) -> usize {
        FIXED_PREFIX_LEN + self.mac.len()
    }

    /// The 64-bit DES IV: the 32-bit confounder duplicated (§7.2).
    pub fn iv64(&self) -> u64 {
        ((self.confounder as u64) << 32) | self.confounder as u64
    }

    /// Serialise to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.sfl.to_be_bytes());
        out.extend_from_slice(&self.confounder.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&self.view().alg_word());
        out.extend_from_slice(&self.plaintext_len.to_be_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Borrow this header as the allocation-free [`HeaderView`] the open
    /// core consumes, so owned headers and wire parses feed the same path.
    pub fn view(&self) -> HeaderView<'_> {
        HeaderView {
            sfl: self.sfl,
            confounder: self.confounder,
            timestamp: self.timestamp,
            secret: self.secret,
            suite: self.suite,
            plaintext_len: self.plaintext_len,
            mac: &self.mac,
        }
    }

    /// Parse a header from the front of `buf`, returning the header and the
    /// number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        let (view, used) = HeaderView::parse(buf)?;
        Ok((
            SecurityFlowHeader {
                sfl: view.sfl,
                confounder: view.confounder,
                timestamp: view.timestamp,
                secret: view.secret,
                suite: view.suite,
                plaintext_len: view.plaintext_len,
                mac: view.mac.to_vec(),
            },
            used,
        ))
    }
}

/// A borrowed, allocation-free view of a decoded security flow header: the
/// fixed fields plus the MAC as a slice into the original buffer. The open
/// fast path parses with this; [`SecurityFlowHeader::decode`] is built on
/// it, so both share one set of validation rules.
#[derive(Clone, Copy, Debug)]
pub struct HeaderView<'a> {
    /// Security flow label.
    pub sfl: u64,
    /// Per-datagram confounder.
    pub confounder: u32,
    /// Minutes since the FBS epoch.
    pub timestamp: u32,
    /// The body is encrypted under the suite's cipher.
    pub secret: bool,
    /// Crypto-plane profile (header byte 19; 0 = paper-faithful).
    pub suite: CipherSuite,
    /// Plaintext body length before padding.
    pub plaintext_len: u32,
    /// The (possibly truncated) MAC bytes, borrowed from the wire buffer.
    pub mac: &'a [u8],
}

impl<'a> HeaderView<'a> {
    /// Parse a header from the front of `buf`, returning the view and the
    /// number of bytes consumed.
    pub fn parse(buf: &'a [u8]) -> Result<(Self, usize)> {
        if buf.len() < FIXED_PREFIX_LEN {
            return Err(FbsError::MalformedHeader("shorter than fixed prefix"));
        }
        let sfl = u64::from_be_bytes(buf[0..8].try_into().unwrap());
        let confounder = u32::from_be_bytes(buf[8..12].try_into().unwrap());
        let timestamp = u32::from_be_bytes(buf[12..16].try_into().unwrap());
        let (suite, secret) = CipherSuite::from_alg_word(buf[16..20].try_into().unwrap())
            .map_err(FbsError::UnknownAlgorithm)?;
        let mac_len = buf[18] as usize;
        if mac_len == 0 || mac_len > suite.mac().output_len() {
            return Err(FbsError::MalformedHeader("bad MAC length"));
        }
        let plaintext_len = u32::from_be_bytes(buf[20..24].try_into().unwrap());
        if buf.len() < FIXED_PREFIX_LEN + mac_len {
            return Err(FbsError::MalformedHeader("truncated MAC"));
        }
        let mac = &buf[FIXED_PREFIX_LEN..FIXED_PREFIX_LEN + mac_len];
        Ok((
            HeaderView {
                sfl,
                confounder,
                timestamp,
                secret,
                suite,
                plaintext_len,
                mac,
            },
            FIXED_PREFIX_LEN + mac_len,
        ))
    }

    /// The 64-bit DES IV: the 32-bit confounder duplicated (§7.2).
    pub fn iv64(&self) -> u64 {
        ((self.confounder as u64) << 32) | self.confounder as u64
    }

    /// Header bytes 16–19 as this view names them — also what the fast and
    /// AEAD suites absorb into their MAC, binding the `secret` flag.
    pub fn alg_word(&self) -> [u8; 4] {
        self.suite.alg_word(self.secret, self.mac.len() as u8)
    }

    /// Serialise this header into `out[..FIXED_PREFIX_LEN + mac.len()]` —
    /// the in-place counterpart of [`SecurityFlowHeader::encode`], used by
    /// the seal fast path to write straight into a pooled wire buffer.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the encoded header.
    pub fn encode_into(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.sfl.to_be_bytes());
        out[8..12].copy_from_slice(&self.confounder.to_be_bytes());
        out[12..16].copy_from_slice(&self.timestamp.to_be_bytes());
        out[16..20].copy_from_slice(&self.alg_word());
        out[20..24].copy_from_slice(&self.plaintext_len.to_be_bytes());
        out[FIXED_PREFIX_LEN..FIXED_PREFIX_LEN + self.mac.len()].copy_from_slice(self.mac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SecurityFlowHeader {
        SecurityFlowHeader {
            sfl: 0x0102030405060708,
            confounder: 0xDEADBEEF,
            timestamp: 123_456,
            secret: true,
            suite: CipherSuite::Paper,
            plaintext_len: 1000,
            mac: vec![0xAB; 16],
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN_MD5);
        let (parsed, used) = SecurityFlowHeader::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed, h);
    }

    #[test]
    fn decode_with_trailing_payload() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(b"payload follows");
        let (parsed, used) = SecurityFlowHeader::decode(&bytes).unwrap();
        assert_eq!(used, HEADER_LEN_MD5);
        assert_eq!(parsed.sfl, 0x0102030405060708);
    }

    #[test]
    fn truncated_mac_detected() {
        let bytes = sample().encode();
        assert!(matches!(
            SecurityFlowHeader::decode(&bytes[..30]),
            Err(FbsError::MalformedHeader("truncated MAC"))
        ));
    }

    #[test]
    fn too_short_prefix_detected() {
        assert!(SecurityFlowHeader::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn unknown_algorithms_detected() {
        let mut bytes = sample().encode();
        bytes[16] = 250;
        assert!(matches!(
            SecurityFlowHeader::decode(&bytes),
            Err(FbsError::UnknownAlgorithm(250))
        ));
        let mut bytes = sample().encode();
        bytes[17] = 99;
        assert!(matches!(
            SecurityFlowHeader::decode(&bytes),
            Err(FbsError::UnknownAlgorithm(99))
        ));
    }

    #[test]
    fn zero_or_oversize_mac_len_rejected() {
        let mut bytes = sample().encode();
        bytes[18] = 0;
        assert!(SecurityFlowHeader::decode(&bytes).is_err());
        let mut bytes = sample().encode();
        bytes[18] = 17; // > MD5 output
        assert!(SecurityFlowHeader::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_mac_supported() {
        // §5.3: "it is possible though, with reduced security, to use only
        // part of these hashes as the MAC".
        let mut h = sample();
        h.mac = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let bytes = h.encode();
        assert_eq!(bytes.len(), FIXED_PREFIX_LEN + 8);
        let (parsed, _) = SecurityFlowHeader::decode(&bytes).unwrap();
        assert_eq!(parsed.mac.len(), 8);
    }

    #[test]
    fn iv_duplicates_confounder() {
        assert_eq!(sample().iv64(), 0xDEADBEEF_DEADBEEF);
    }

    #[test]
    fn view_encode_into_matches_encode() {
        let h = sample();
        let wire = h.encode();
        let (view, used) = HeaderView::parse(&wire).unwrap();
        let mut buf = vec![0u8; used];
        view.encode_into(&mut buf);
        assert_eq!(buf, h.encode());
        assert_eq!(view.iv64(), h.iv64());
    }

    #[test]
    fn suite_byte_roundtrips() {
        for suite in CipherSuite::ALL {
            let mut h = sample();
            h.suite = suite;
            let bytes = h.encode();
            assert_eq!(bytes[19], suite.wire_id());
            let (parsed, _) = SecurityFlowHeader::decode(&bytes).unwrap();
            assert_eq!(parsed.suite, suite);
        }
    }

    #[test]
    fn paper_suite_keeps_byte19_zero() {
        // Pre-suite frames wrote a reserved zero at byte 19; the paper
        // suite must keep that byte zero for bit-identical output.
        assert_eq!(sample().encode()[19], 0);
    }

    #[test]
    fn unknown_suite_byte_rejected() {
        let mut bytes = sample().encode();
        bytes[19] = 9;
        assert!(matches!(
            SecurityFlowHeader::decode(&bytes),
            Err(FbsError::UnknownAlgorithm(9))
        ));
    }

    #[test]
    fn paper_core_fields_are_32_bytes() {
        // The paper's core header (sfl 8 + confounder 4 + ts 4 + MD5 MAC 16)
        // is 32 bytes; our algorithm-ID extension adds 8.
        assert_eq!(HEADER_LEN_MD5, 32 + 8);
    }
}
