//! The algorithm matrix: every cipher suite × `secret` flag ×
//! key-derivation hash must round trip, and the header must name exactly
//! the suite's algorithms (§5.2's algorithm-identification field, with the
//! suite as its one selector).

use fbs::core::{
    Datagram, FbsConfig, FbsEndpoint, KeyDerivation, ManualClock, MasterKeyDaemon, PinnedDirectory,
    Principal,
};
use fbs::crypto::dh::{DhGroup, PrivateValue};
use fbs::crypto::CipherSuite;
use std::sync::Arc;

fn pair(tx_cfg: FbsConfig, rx_cfg: FbsConfig) -> (FbsEndpoint, FbsEndpoint) {
    let clock = ManualClock::starting_at(44_000);
    let group = DhGroup::test_group();
    let a_priv = PrivateValue::from_entropy(group.clone(), b"matrix-alice-entropy");
    let b_priv = PrivateValue::from_entropy(group, b"matrix-bob-entropy!!");
    let alice = Principal::named("alice");
    let bob = Principal::named("bob");
    let mut da = PinnedDirectory::new();
    da.pin(bob.clone(), b_priv.public_value());
    let mut db = PinnedDirectory::new();
    db.pin(alice.clone(), a_priv.public_value());
    (
        FbsEndpoint::new(
            alice,
            tx_cfg,
            Arc::new(clock.clone()),
            5,
            MasterKeyDaemon::new(a_priv, Box::new(da)),
        ),
        FbsEndpoint::new(
            bob,
            rx_cfg,
            Arc::new(clock),
            6,
            MasterKeyDaemon::new(b_priv, Box::new(db)),
        ),
    )
}

const DERIVATIONS: [KeyDerivation; 2] = [KeyDerivation::Md5, KeyDerivation::Sha1];

fn dgram(body: &[u8]) -> Datagram {
    Datagram::new(
        Principal::named("alice"),
        Principal::named("bob"),
        body.to_vec(),
    )
}

#[test]
fn every_suite_secret_and_derivation_roundtrips() {
    for kd in DERIVATIONS {
        for suite in CipherSuite::ALL {
            for secret in [false, true] {
                let cfg = FbsConfig {
                    key_derivation: kd,
                    suite,
                    ..FbsConfig::default()
                };
                let (mut tx, mut rx) = pair(cfg.clone(), cfg);
                let body = format!("combo {suite:?}/{secret}/{kd:?}").into_bytes();
                let pd = tx.send(1, dgram(&body), secret).unwrap();
                assert_eq!(pd.header.suite, suite);
                assert_eq!(pd.header.secret, secret);
                let wire = pd.encode_payload();
                assert_eq!(
                    wire[16..20],
                    suite.alg_word(secret, 16),
                    "bytes 16-19 follow from the suite and the secret flag"
                );
                assert_eq!(secret, pd.body != body, "{suite:?}/{secret}/{kd:?}");
                let got = rx.receive(pd).unwrap();
                assert_eq!(got.body, body, "{suite:?}/{secret}/{kd:?}");
            }
        }
    }
}

#[test]
fn mismatched_key_derivation_fails_closed() {
    // Besides the suite, the one parameter that MUST match: K_f
    // derivation. A sender deriving with SHA-1 against a receiver deriving
    // with MD5 produces different flow keys, so the MAC fails — fail
    // closed, never fail open — under every suite, secret or not.
    for suite in CipherSuite::ALL {
        for secret in [false, true] {
            let tx_cfg = FbsConfig {
                key_derivation: KeyDerivation::Sha1,
                suite,
                ..FbsConfig::default()
            };
            let rx_cfg = FbsConfig {
                key_derivation: KeyDerivation::Md5,
                suite,
                ..FbsConfig::default()
            };
            let (mut tx, mut rx) = pair(tx_cfg, rx_cfg);
            let pd = tx.send(1, dgram(b"must not verify"), secret).unwrap();
            assert!(rx.receive(pd).is_err(), "{suite:?}/{secret}");
        }
    }
}

#[test]
fn truncated_macs_roundtrip_at_every_length() {
    for suite in CipherSuite::ALL {
        for n in [4usize, 8, 12, 16] {
            let cfg = FbsConfig {
                mac_truncate: Some(n),
                suite,
                ..FbsConfig::default()
            };
            let (mut tx, mut rx) = pair(cfg.clone(), cfg);
            let pd = tx.send(1, dgram(&[7u8; 100]), true).unwrap();
            assert_eq!(pd.header.mac.len(), n);
            assert!(rx.receive(pd).is_ok(), "{suite:?} truncate {n}");
        }
    }
}
