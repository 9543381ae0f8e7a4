//! Property-based tests for the cryptographic substrate.

// Property tests are opt-in: run with `cargo test --features props`.
#![cfg(feature = "props")]
use fbs_crypto::bignum::BigUint;
use fbs_crypto::{des, Des, DesMode, MacAlgorithm};
use proptest::prelude::*;

fn biguint_strategy() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..40).prop_map(|v| BigUint::from_bytes_be(&v))
}

proptest! {
    // ---------------- bignum algebra ----------------

    #[test]
    fn addition_commutes(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn addition_associates(
        a in biguint_strategy(),
        b in biguint_strategy(),
        c in biguint_strategy(),
    ) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn add_then_sub_roundtrips(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn multiplication_commutes(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn multiplication_distributes(
        a in biguint_strategy(),
        b in biguint_strategy(),
        c in biguint_strategy(),
    ) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn division_identity(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        // a = q*b + r with r < b — Knuth Algorithm D's contract.
        prop_assert_eq!(q.mul(&b).add(&r), a.clone());
        prop_assert!(r < b);
    }

    #[test]
    fn shifts_invert(a in biguint_strategy(), s in 0usize..130) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn bytes_roundtrip(a in biguint_strategy()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..24, modulus in 2u64..1000) {
        let got = BigUint::from_u64(base)
            .modpow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
        let mut naive = 1u128;
        for _ in 0..exp {
            naive = naive * base as u128 % modulus as u128;
        }
        prop_assert_eq!(got, BigUint::from_u64(naive as u64));
    }

    // ---------------- DES ----------------

    #[test]
    fn des_cbc_roundtrips(
        key in any::<[u8; 8]>(),
        iv in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let des = Des::new(&key);
        let ct = des::encrypt(&des, iv, DesMode::Cbc, &payload);
        prop_assert_eq!(ct.len() % 8, 0);
        prop_assert!(ct.len() >= payload.len());
        let pt = des::decrypt(&des, iv, DesMode::Cbc, &ct, payload.len());
        prop_assert_eq!(pt, payload);
    }

    #[test]
    fn des_cbc_matches_fips_reference(
        key in any::<[u8; 8]>(),
        iv in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let des = Des::new(&key);
        let ct = des::encrypt(&des, iv, DesMode::Cbc, &payload);
        let mut prev = iv;
        for (p, c) in des::zero_pad(&payload).chunks_exact(8).zip(ct.chunks_exact(8)) {
            let p = u64::from_be_bytes(p.try_into().unwrap());
            prev = des::fips_reference_block(&key, p ^ prev, false);
            prop_assert_eq!(prev.to_be_bytes(), c);
        }
    }

    #[test]
    fn des_block_is_a_permutation(key in any::<[u8; 8]>(), block in any::<[u8; 8]>()) {
        let des = Des::new(&key);
        let mut b = block;
        des.encrypt_block(&mut b);
        des.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn des_ciphertext_differs_from_plaintext(
        key in any::<[u8; 8]>(),
        payload in proptest::collection::vec(any::<u8>(), 16..64),
    ) {
        // Not a security proof — just catches identity-function bugs.
        let des = Des::new(&key);
        let ct = des::encrypt(&des, 0, DesMode::Cbc, &payload);
        prop_assert_ne!(&ct[..payload.len()], &payload[..]);
    }

    // ---------------- digests and MACs ----------------

    #[test]
    fn md5_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500,
    ) {
        let split = split.min(data.len());
        let mut ctx = fbs_crypto::md5::Md5::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), fbs_crypto::md5(&data));
    }

    #[test]
    fn sha1_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500,
    ) {
        let split = split.min(data.len());
        let mut ctx = fbs_crypto::sha1::Sha1::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), fbs_crypto::sha1(&data));
    }

    #[test]
    fn keyed_md5_context_equals_keyed_digest(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let mut ctx = MacAlgorithm::KeyedMd5.begin(&key);
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), fbs_crypto::keyed_digest(&key, &[&data]).to_vec());
    }

    #[test]
    fn crc32_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let split = split.min(data.len());
        let mut c = fbs_crypto::crc32::Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), fbs_crypto::crc32(&data));
    }
}
