//! Criterion microbenches for the cryptographic substrate — the modern
//! analogue of the paper's CryptoLib calibration (§7.2: DES-CBC 549 kB/s,
//! MD5 7060 kB/s on a Pentium 133).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fbs_crypto::dh::{DhGroup, PrivateValue};
use fbs_crypto::{crc32, des, keyed_digest, md5, sha1, Bbs, Des, DesMode, Lcg64};

fn bench_ciphers(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    let key = Des::new(b"benchkey");
    // 8 KB is the nfs_bulk datagram; 64 KB the long-buffer rate.
    for size in [8 * 1024, 64 * 1024] {
        let buf = vec![0xA5u8; size];
        let kb = size / 1024;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("cbc-encrypt-{kb}k"), |b| {
            let mut data = buf.clone();
            b.iter(|| des::encrypt_in_place(&key, 0xDEAD_BEEF, DesMode::Cbc, black_box(&mut data)))
        });
        g.bench_function(format!("cbc-decrypt-{kb}k"), |b| {
            let mut data = buf.clone();
            b.iter(|| des::decrypt_in_place(&key, 0xDEAD_BEEF, DesMode::Cbc, black_box(&mut data)))
        });
    }
    g.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    let small = vec![0xA5u8; 8 * 1024];
    g.throughput(Throughput::Bytes(small.len() as u64));
    g.bench_function("md5-8k", |b| b.iter(|| md5::md5(black_box(&small))));
    let buf = vec![0xA5u8; 64 * 1024];
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("md5-64k", |b| b.iter(|| md5::md5(black_box(&buf))));
    g.bench_function("sha1-64k", |b| b.iter(|| sha1::sha1(black_box(&buf))));
    g.bench_function("keyed-md5-64k", |b| {
        b.iter(|| keyed_digest(b"flow-key", &[black_box(&buf)]))
    });
    g.bench_function("crc32-64k", |b| b.iter(|| crc32(black_box(&buf))));
    g.finish();
}

fn bench_keying(c: &mut Criterion) {
    let mut g = c.benchmark_group("keying");
    // The expensive once-per-pair operation: 768-bit modexp.
    let group = DhGroup::oakley1();
    let a = PrivateValue::from_entropy(group.clone(), b"bench-a-entropy-bytes");
    let b_pub = PrivateValue::from_entropy(group, b"bench-b-entropy-bytes").public_value();
    g.sample_size(10);
    g.bench_function("dh-master-key-oakley1", |bch| {
        bch.iter(|| a.master_key(black_box(&b_pub)))
    });
    // The cheap per-flow operation.
    let master = a.master_key(&b_pub);
    g.bench_function("flow-key-derivation", |bch| {
        bch.iter(|| {
            fbs_core::derive_flow_key(
                fbs_core::KeyDerivation::Md5,
                black_box(42),
                &master,
                &fbs_core::Principal::named("S"),
                &fbs_core::Principal::named("D"),
            )
        })
    });
    g.finish();
}

fn bench_rngs(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    // Statistical (confounder) vs cryptographic (per-datagram key)
    // randomness: the §2.2 bottleneck, quantified.
    let mut lcg = Lcg64::new(7);
    g.bench_function("lcg-8-bytes", |b| {
        let mut buf = [0u8; 8];
        b.iter(|| {
            lcg.fill(&mut buf);
            black_box(buf)
        })
    });
    let mut bbs = Bbs::with_default_modulus(b"bench-bbs-seed");
    g.sample_size(20);
    g.bench_function("bbs-8-bytes", |b| {
        let mut buf = [0u8; 8];
        b.iter(|| {
            bbs.fill(&mut buf);
            black_box(buf)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ciphers,
    bench_hashes,
    bench_keying,
    bench_rngs
);
criterion_main!(benches);
