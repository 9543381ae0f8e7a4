//! Tier-1 guard for the paper suite's DES-CBC and keyed-MD5 kernels at
//! the sizes the datagram path really carries. The suite goldens in
//! `crypto_suites.rs` seal a 21-byte body, which never reaches the
//! eight-lane CBC decrypt or the 64-byte MAC/cipher chunks; these tests do:
//!
//! * an 8,200-byte secret paper frame is pinned by its SHA-1 digest (an
//!   independent hash, so the MD5 under test is not its own oracle);
//! * every body length 0..=1100 is sealed under seeded keys and
//!   confounders, with both `single_pass` settings, and checked against
//!   the bit-at-a-time FIPS 46 reference cipher and a one-call keyed MD5,
//!   then opened, then rejected after a one-bit ciphertext flip.

use fbs::core::{FbsConfig, FlowCodec, FlowKey, HeaderView, ManualClock, Principal};
use fbs::crypto::des::{self, BLOCK_SIZE};
use fbs::crypto::{keyed_digest, sha1, CipherSuite, Lcg64};
use std::sync::Arc;

fn codec(single_pass: bool, seed: u64) -> FlowCodec {
    let cfg = FbsConfig {
        suite: CipherSuite::Paper,
        single_pass,
        ..FbsConfig::default()
    };
    let clock = ManualClock::starting_at(44_000);
    FlowCodec::new(Principal::named("alice"), cfg, Arc::new(clock), seed)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-1 of the 8,200-byte golden frame (header + DES-CBC body), captured
/// before the eight-lane and IP-domain CBC kernels replaced the per-block
/// code.
const GOLDEN_8K_SHA1: &str = "078446d833466844580ea63cd3734ebac799d427";

#[test]
fn paper_8k_frame_is_pinned() {
    let body: Vec<u8> = (0..8200u32)
        .map(|i| (i.wrapping_mul(131) + 7) as u8)
        .collect();
    let cfg = FbsConfig::default();
    let key = cfg.seal_key(FlowKey(b"paper-8k-golden!".to_vec()));
    for single_pass in [true, false] {
        let mut tx = codec(single_pass, 5);
        let mut wire = Vec::new();
        tx.seal_with_key_into(7, &key, &body, true, &mut wire)
            .unwrap();
        assert_eq!(
            hex(&sha1(&wire)),
            GOLDEN_8K_SHA1,
            "single_pass={single_pass}: 8 KB paper wire drifted"
        );
        let (h, used) = HeaderView::parse(&wire).unwrap();
        let mut out = Vec::new();
        codec(true, 6)
            .open_with_key_into(&h, &key, &wire[used..], &mut out)
            .unwrap();
        assert_eq!(out, body);
    }
}

/// CBC under the duplicated-confounder IV, straight from the bit-at-a-time
/// FIPS 46 block function.
fn reference_cbc(key: &[u8; 8], iv: u64, padded: &[u8]) -> Vec<u8> {
    let mut prev = iv;
    let mut out = Vec::with_capacity(padded.len());
    for block in padded.chunks_exact(BLOCK_SIZE) {
        let p = u64::from_be_bytes(block.try_into().unwrap());
        prev = des::fips_reference_block(key, p ^ prev, false);
        out.extend_from_slice(&prev.to_be_bytes());
    }
    out
}

/// Every body length from empty through 1,100 bytes — across the 8-byte
/// block, the 64-byte lane/chunk boundary and every short tail — under a
/// fresh seeded flow key and confounder, with and without the single-pass
/// loop: the wire body is the reference DES-CBC of the zero-padded
/// payload, the MAC is keyed MD5 over confounder | timestamp | payload
/// (never the padding), the frame opens to the payload, and a one-bit
/// ciphertext flip is rejected.
#[test]
fn paper_seal_and_open_match_fips_reference_at_every_length() {
    let mut rng = Lcg64::new(0x5EED_8BAD_F00D);
    for single_pass in [true, false] {
        let mut tx = codec(single_pass, rng.next_u64());
        let rx = codec(single_pass, rng.next_u64());
        let mut wire = Vec::new();
        let mut out = Vec::new();
        for len in 0..=1100usize {
            let mut key_bytes = vec![0u8; 16];
            rng.fill(&mut key_bytes);
            let key = FbsConfig::default().seal_key(FlowKey(key_bytes.clone()));
            let mut body = vec![0u8; len];
            rng.fill(&mut body);
            let case = format!("single_pass={single_pass} len={len}");

            tx.seal_with_key_into(3, &key, &body, true, &mut wire)
                .unwrap();
            let (h, used) = HeaderView::parse(&wire).unwrap();
            assert_eq!(h.plaintext_len as usize, len, "{case}");
            let mut padded = body.clone();
            padded.resize(des::padded_len(len), 0);
            let des_key: [u8; 8] = key_bytes[..8].try_into().unwrap();
            assert_eq!(
                wire[used..],
                reference_cbc(&des_key, h.iv64(), &padded)[..],
                "{case}: ciphertext"
            );
            let mac = keyed_digest(
                &key_bytes,
                &[
                    &h.confounder.to_be_bytes(),
                    &h.timestamp.to_be_bytes(),
                    &body,
                ],
            );
            assert_eq!(h.mac, &mac[..], "{case}: MAC");

            rx.open_with_key_into(&h, &key, &wire[used..], &mut out)
                .unwrap();
            assert_eq!(out, body, "{case}: open");

            if len > 0 {
                let mut forged = wire.clone();
                let bit = rng.next_u64() as usize % ((forged.len() - used) * 8);
                forged[used + bit / 8] ^= 1 << (bit % 8);
                let (h, used) = HeaderView::parse(&forged).unwrap();
                assert!(
                    rx.open_with_key_into(&h, &key, &forged[used..], &mut out)
                        .is_err(),
                    "{case}: flipped ciphertext bit {bit} opened"
                );
            }
        }
    }
}
