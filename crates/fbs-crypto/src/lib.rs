//! # fbs-crypto — cryptographic substrate for the FBS reproduction
//!
//! From-scratch implementations of every primitive the paper's CryptoLib
//! dependency supplied (Mittra & Woo, SIGCOMM '97, §7.2):
//!
//! * [`des`] — DES (FIPS 46): CBC (FIPS 81) for the paper suite and
//!   counter mode for the fast one;
//! * [`mod@md5`] — MD5 (RFC 1321);
//! * [`mod@sha1`] — SHA-1 / "SHS" (FIPS 180);
//! * [`mac`] — the paper's prefix-keyed MAC and the Poly1305 wrapper;
//! * [`chacha`] — ChaCha20 and Poly1305 (RFC 8439) for the AEAD suite;
//! * [`suite`] — the cipher suites and their header algorithm-ID word;
//! * [`bignum`] + [`dh`] — Diffie-Hellman over the Oakley MODP groups;
//! * [`rsa`] — RSA key generation (Miller-Rabin) and signatures for the
//!   certificate authority;
//! * [`rng`] — the LCG confounder source and the Blum-Blum-Shub generator;
//! * [`mod@crc32`] — the randomising cache hash of §5.3.
//!
//! ## ⚠ Security disclaimer
//!
//! DES, MD5, SHA-1 and prefix-keyed MACs are **broken by modern standards**.
//! They are reimplemented here solely to reproduce a 1997 paper with
//! fidelity. Do not use this crate to protect real traffic.
//!
//! All implementations are validated against published test vectors (FIPS
//! worked examples, RFC 1321 appendix, RFC 8439, CRC-32 check value) in
//! their module tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bignum;
pub mod chacha;
pub mod crc32;
pub mod des;
pub mod dh;
pub mod mac;
pub mod md5;
pub mod rng;
pub mod rsa;
pub mod sha1;
pub mod suite;

pub use bignum::BigUint;
pub use chacha::{poly1305, ChaCha20, Poly1305};
pub use crc32::crc32;
pub use des::{Des, Mode as DesMode};
pub use dh::{DhGroup, PrivateValue, PublicValue};
pub use mac::{keyed_digest, mac_eq, MacAlgorithm, MacContext};
pub use md5::md5;
pub use rng::{Bbs, Lcg64};
pub use rsa::{RsaPrivateKey, RsaPublicKey};
pub use sha1::sha1;
pub use suite::CipherSuite;
