//! Property tests for the batch-first hook pipeline: pushing a batch of
//! datagrams through [`Host::ip_output_batch`] / [`Host::deliver_frames`]
//! (one `process_batch` hook call) is bit-identical to pushing the same
//! datagrams one at a time through the scalar `ip_output` /
//! `deliver_frame` wrappers — across padding edges, every cipher suite
//! with and without encryption, both key-derivation hashes, MAC truncation, and batches mixing covered (UDP) and uncovered
//! (bypass) protocols.

// Property tests are opt-in: run with `cargo test --features props`.
#![cfg(feature = "props")]

use fbs_cert::{CertificateAuthority, Directory};
use fbs_core::{KeyDerivation, ManualClock};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_ip::hooks::IpMappingConfig;
use fbs_ip::host::build_secure_host;
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::Host;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const A: [u8; 4] = [10, 7, 0, 1];
const B: [u8; 4] = [10, 7, 0, 2];
const NOW_US: u64 = 5_000_000;

/// One item heading into a batch: a UDP datagram (covered by the hooks)
/// or a bypass datagram (never touched by them).
#[derive(Clone, Debug)]
struct Item {
    covered: bool,
    fill: u8,
    data_len: usize,
}

impl Item {
    /// The transport payload handed to `ip_output`.
    fn payload(&self) -> Vec<u8> {
        let body = vec![self.fill; self.data_len];
        if self.covered {
            fbs_net::udp::encode(A, B, 4000, 53, &body)
        } else {
            body
        }
    }

    fn header(&self, payload_len: usize) -> Ipv4Header {
        let proto = if self.covered {
            Proto::Udp
        } else {
            Proto::Bypass
        };
        Ipv4Header::new(A, B, proto, payload_len)
    }
}

/// Build a deterministic sender/receiver pair sharing one CA, directory,
/// and clock. Called twice with the same config it yields bit-identical
/// twins (all key material derives from the fixed seeds).
fn world(cfg: &IpMappingConfig) -> (Host, Host) {
    let clock = ManualClock::starting_at(3);
    let ca = CertificateAuthority::new("props-ca", [0x5A; 16]);
    let directory = Arc::new(Directory::new(Duration::ZERO));
    let group = DhGroup::test_group();
    let (sender, _) = build_secure_host(
        A,
        1500,
        cfg.clone(),
        clock.clone(),
        &group,
        &ca,
        &directory,
        7,
    );
    let (mut receiver, _) = build_secure_host(
        B,
        1500,
        cfg.clone(),
        clock.clone(),
        &group,
        &ca,
        &directory,
        8,
    );
    receiver.udp.bind(53).unwrap();
    (sender, receiver)
}

fn cfg_for(suite: CipherSuite, sha1: bool, encrypt: bool, truncate: bool) -> IpMappingConfig {
    let mut cfg = IpMappingConfig::default();
    cfg.encrypt = encrypt;
    cfg.fbs.suite = suite;
    if sha1 {
        cfg.fbs.key_derivation = KeyDerivation::Sha1;
    }
    cfg.fbs.mac_truncate = truncate.then_some(8);
    cfg
}

/// Padding edges: empty, sub-block, one-off-block, exact block, and a
/// multi-fragment datagram that is 7 bytes past an 8 KiB block boundary.
fn item_strategy() -> impl Strategy<Value = Item> {
    const LENS: [usize; 5] = [0, 1, 7, 8, 8 * 1024 + 7];
    (any::<bool>(), any::<u8>(), 0usize..LENS.len()).prop_map(|(covered, fill, i)| Item {
        covered,
        fill,
        data_len: LENS[i],
    })
}

/// The pipeline equivalence law: batch and scalar submission produce
/// byte-identical wire frames, and batch and scalar delivery produce
/// byte-identical plaintexts in the same order.
fn check_equivalence(items: &[Item], cfg: &IpMappingConfig) -> Result<(), TestCaseError> {
    let (mut tx_scalar, mut rx_scalar) = world(cfg);
    let (mut tx_batch, mut rx_batch) = world(cfg);

    // ---- output: scalar loop vs one batch call ----
    let mut scalar_results = Vec::new();
    for item in items {
        let payload = item.payload();
        let header = item.header(payload.len());
        scalar_results.push(tx_scalar.ip_output(header, payload, NOW_US).is_ok());
    }
    let batch_items: Vec<_> = items
        .iter()
        .map(|item| {
            let payload = item.payload();
            let header = item.header(payload.len());
            (header, payload)
        })
        .collect();
    let batch_results: Vec<bool> = tx_batch
        .ip_output_batch(batch_items, NOW_US)
        .into_iter()
        .map(|r| r.is_ok())
        .collect();
    prop_assert_eq!(&scalar_results, &batch_results, "per-datagram verdicts");

    let scalar_frames = tx_scalar.take_frames();
    let batch_frames = tx_batch.take_frames();
    prop_assert_eq!(&scalar_frames, &batch_frames, "wire frames bit-identical");

    // ---- input: scalar loop vs one batch call ----
    for f in &scalar_frames {
        rx_scalar.deliver_frame(f, NOW_US);
    }
    rx_batch.deliver_frames(&batch_frames, NOW_US);

    // Every covered datagram decrypts back to the original body, in
    // submission order, on both receivers; bypass datagrams arrive
    // untouched.
    for item in items {
        if item.covered {
            let s = rx_scalar.udp.recv(53).expect("scalar delivery");
            let b = rx_batch.udp.recv(53).expect("batch delivery");
            prop_assert_eq!(&s.data, &b.data, "plaintexts bit-identical");
            prop_assert_eq!(&s.data, &vec![item.fill; item.data_len]);
        } else {
            let (_, s) = rx_scalar.bypass_recv().expect("scalar bypass");
            let (_, b) = rx_batch.bypass_recv().expect("batch bypass");
            prop_assert_eq!(&s, &b);
            prop_assert_eq!(&s, &vec![item.fill; item.data_len]);
        }
    }
    prop_assert!(rx_scalar.udp.recv(53).is_none(), "no extra datagrams");
    prop_assert!(rx_batch.udp.recv(53).is_none());
    prop_assert_eq!(
        rx_scalar.stats().hook_input_rejects,
        rx_batch.stats().hook_input_rejects
    );
    prop_assert_eq!(rx_scalar.stats().dispatched, rx_batch.stats().dispatched);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_pipeline_is_bit_identical_to_scalar(
        items in proptest::collection::vec(item_strategy(), 1..5),
        suite in 0usize..CipherSuite::ALL.len(),
        sha1 in any::<bool>(),
        encrypt in any::<bool>(),
        truncate in any::<bool>(),
    ) {
        let cfg = cfg_for(CipherSuite::ALL[suite], sha1, encrypt, truncate);
        check_equivalence(&items, &cfg)?;
    }
}
