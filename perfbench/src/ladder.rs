//! The lower rungs of the ladder, timed by calling each rung's public
//! functions directly on the workload's own datagrams and suite:
//! primitives, seal/open, keying, the MKD, and the hooks with and without
//! a metrics registry.

use crate::measure::median;
use crate::workload::{self, Spec, Workload, A, B};
use fbs_core::{
    derive_flow_key, BufferPool, FbsConfig, FbsEndpoint, ManualClock, MasterKeyDaemon,
    PinnedDirectory, Principal,
};
use fbs_crypto::mac::MAX_MAC_SIZE;
use fbs_crypto::{
    crc32, des, ChaCha20, CipherSuite, Des, DesMode, DhGroup, MacAlgorithm, Poly1305, PrivateValue,
};
use fbs_ip::host::SecureNet;
use fbs_ip::{FbsIpHooks, FiveTuple};
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::segment::Impairments;
use fbs_net::{Datagram, HookOutcome, SecurityHooks};
use fbs_obs::{Direction, MetricsRegistry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Datagrams in the rung sample.
const SAMPLE: usize = 256;
/// Flows the seal/open and hooks rungs spread the sample over (all keys
/// stay cached: keying has a rung of its own).
const RUNG_FLOWS: u32 = 64;
/// Repeats per rung; the median is reported.
const REPEATS: usize = 5;
/// Minimum wall time of one repeat.
const REPEAT_TIME: Duration = Duration::from_millis(40);

/// ns per datagram of every lower rung.
#[derive(Clone, Debug, Default)]
pub struct Rungs {
    /// The suite's cipher over the datagram.
    pub cipher_ns: f64,
    /// The suite's MAC over the datagram.
    pub mac_ns: f64,
    /// CRC-32 of the datagram's 5-tuple (the cache set index).
    pub crc32_ns: f64,
    /// `FbsEndpoint::seal_into`.
    pub seal_ns: f64,
    /// `FbsEndpoint::open_into`.
    pub open_ns: f64,
    /// `derive_flow_key` plus the suite's key schedule.
    pub derive_ns: f64,
    /// `MasterKeyDaemon::master_key`, in ms.
    pub master_key_ms: f64,
    /// Hooks rung (output + input) with a registry over without.
    pub obs_overhead_ratio: f64,
}

/// The workload's own sample: specs and their UDP segments (what the
/// hooks seal), spread over [`RUNG_FLOWS`] flows.
fn sample(w: Workload, seed: u64, max_data: usize) -> (Vec<Spec>, Vec<Vec<u8>>) {
    let mut gen = w.generator(seed ^ 0x5A3D1E, max_data);
    let mut scratch = Vec::new();
    let specs: Vec<Spec> = (0..SAMPLE)
        .map(|_| {
            let mut s = gen.next_spec();
            s.flow %= RUNG_FLOWS;
            s
        })
        .collect();
    let segs = specs
        .iter()
        .map(|s| {
            workload::fill_payload(seed, s, &mut scratch);
            fbs_net::udp::encode(A, B, s.sport, s.dport, &scratch)
        })
        .collect();
    (specs, segs)
}

/// Median over [`REPEATS`] of the ns per item `f` takes, each repeat
/// cycling through `n` items for at least [`REPEAT_TIME`].
fn time_per_item(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n {
        f(i);
    }
    let reps: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut done = 0usize;
            while start.elapsed() < REPEAT_TIME {
                for i in 0..n {
                    f(i);
                }
                done += n;
            }
            start.elapsed().as_nanos() as f64 / done as f64
        })
        .collect();
    median(&reps)
}

/// Time every rung for `w`; `max_data` caps datagram sizes as the
/// driver's generator does.
pub fn measure(w: Workload, seed: u64, max_data: usize) -> Rungs {
    let (specs, segs) = sample(w, seed, max_data);
    let (cipher_ns, mac_ns) = crypto_rungs(w.suite(), &segs);
    let crc32_ns = time_per_item(specs.len(), |i| {
        let s = &specs[i];
        let t = FiveTuple {
            proto: Proto::Udp.number(),
            saddr: A,
            sport: s.sport,
            daddr: B,
            dport: s.dport,
        };
        black_box(crc32(&t.canonical_array()));
    });
    let cfg = w.mapping_config().fbs;
    let (seal_ns, open_ns) = endpoint_rungs(&cfg, &specs, &segs);
    let (derive_ns, master_key_ms) = keying_rungs(&cfg);
    Rungs {
        cipher_ns,
        mac_ns,
        crc32_ns,
        seal_ns,
        open_ns,
        derive_ns,
        master_key_ms,
        obs_overhead_ratio: obs_rung(w, seed, &segs),
    }
}

/// The suite's cipher and MAC, each over every sampled datagram.
fn crypto_rungs(suite: CipherSuite, segs: &[Vec<u8>]) -> (f64, f64) {
    let key16 = *b"perfbench-flowk!";
    let des_key = Des::new(key16[..8].try_into().expect("8 bytes"));
    let chacha_key = [0x42u8; 32];
    let nonce = [7u8; 12];
    let mut buf = Vec::new();
    let mut cipher = |i: usize| {
        buf.clear();
        buf.extend_from_slice(&segs[i]);
        match suite {
            CipherSuite::Paper => {
                buf.resize(des::padded_len(buf.len()), 0);
                des::encrypt_in_place(&des_key, 0x0123_4567_89AB_CDEF, DesMode::Cbc, &mut buf);
            }
            CipherSuite::FastDes => des::ctr_xor_at(&des_key, 0x0123_4567_89AB_CDEF, 0, &mut buf),
            CipherSuite::AeadChaPoly => {
                ChaCha20::new(&chacha_key, &nonce).xor_keystream(1, &mut buf)
            }
        }
        black_box(&buf);
    };
    let cipher_ns = time_per_item(segs.len(), &mut cipher);
    let prefix = MacAlgorithm::KeyedMd5.begin(&key16);
    let mut out = [0u8; MAX_MAC_SIZE];
    let mac_ns = time_per_item(segs.len(), |i| match suite {
        CipherSuite::Paper => {
            let mut ctx = MacAlgorithm::KeyedMd5.begin(&key16);
            ctx.update(&segs[i]);
            black_box(ctx.finalize_into(&mut out));
        }
        CipherSuite::FastDes => {
            let mut ctx = prefix.clone();
            ctx.update(&segs[i]);
            black_box(ctx.finalize_into(&mut out));
        }
        CipherSuite::AeadChaPoly => {
            let otk = ChaCha20::new(&chacha_key, &nonce).poly1305_key();
            let mut p = Poly1305::new(&otk);
            p.update(&segs[i]);
            black_box(p.finalize());
        }
    });
    (cipher_ns, mac_ns)
}

/// A's and B's principals and oakley1 private values.
struct Principals {
    a: Principal,
    b: Principal,
    priv_a: PrivateValue,
    priv_b: PrivateValue,
}

impl Principals {
    fn new() -> Self {
        let group = DhGroup::oakley1();
        Principals {
            a: Principal::from_ipv4(A),
            b: Principal::from_ipv4(B),
            priv_a: PrivateValue::from_entropy(group.clone(), b"perfbench-ladder-sender"),
            priv_b: PrivateValue::from_entropy(group, b"perfbench-ladder-receiver"),
        }
    }
}

/// An MKD for `own` that has `peer`'s public value pinned.
fn pinned_mkd(own: &PrivateValue, peer: &Principal, peer_value: &PrivateValue) -> MasterKeyDaemon {
    let mut dir = PinnedDirectory::new();
    dir.pin(peer.clone(), peer_value.public_value());
    MasterKeyDaemon::new(own.clone(), Box::new(dir))
}

/// A sender/receiver endpoint pair with pinned public values.
fn endpoint_pair(cfg: &FbsConfig, p: &Principals) -> (FbsEndpoint, FbsEndpoint) {
    let clock = Arc::new(ManualClock::starting_at(1_000));
    let tx = FbsEndpoint::new(
        p.a.clone(),
        cfg.clone(),
        clock.clone(),
        0xA11CE,
        pinned_mkd(&p.priv_a, &p.b, &p.priv_b),
    );
    let rx = FbsEndpoint::new(
        p.b.clone(),
        cfg.clone(),
        clock,
        0xB0B,
        pinned_mkd(&p.priv_b, &p.a, &p.priv_a),
    );
    (tx, rx)
}

/// `seal_into` and `open_into` over the sample, keys cached.
fn endpoint_rungs(cfg: &FbsConfig, specs: &[Spec], segs: &[Vec<u8>]) -> (f64, f64) {
    let p = Principals::new();
    let (mut tx, mut rx) = endpoint_pair(cfg, &p);
    let (pa, pb) = (&p.a, &p.b);
    let sfl = |i: usize| 1 + specs[i].flow as u64;
    let mut out = Vec::new();
    let seal_ns = time_per_item(segs.len(), |i| {
        tx.seal_into(sfl(i), pb, &segs[i], true, &mut out)
            .expect("seal");
        black_box(&out);
    });
    let wires: Vec<Vec<u8>> = (0..segs.len())
        .map(|i| {
            let mut w = Vec::new();
            tx.seal_into(sfl(i), pb, &segs[i], true, &mut w)
                .expect("seal");
            w
        })
        .collect();
    let open_ns = time_per_item(wires.len(), |i| {
        rx.open_into(pa, &wires[i], &mut out).expect("open");
        debug_assert_eq!(out, segs[i]);
    });
    (seal_ns, open_ns)
}

/// Flow-key derivation with the suite's key schedule, and the MKD's
/// master-key computation.
fn keying_rungs(cfg: &FbsConfig) -> (f64, f64) {
    let p = Principals::new();
    let mkd = || pinned_mkd(&p.priv_a, &p.b, &p.priv_b);
    let master_ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut d = mkd();
            let start = Instant::now();
            black_box(d.master_key(&p.b).expect("master key"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let master = mkd().master_key(&p.b).expect("master key");
    let mut sfl = 0u64;
    let derive_ns = time_per_item(SAMPLE, |_| {
        sfl += 1;
        let key = derive_flow_key(cfg.key_derivation, sfl, &master, &p.a, &p.b);
        black_box(cfg.seal_key(key));
    });
    (derive_ns, median(&master_ms))
}

/// One pair of stand-alone hooks (A's and B's) for the workload's suite,
/// with small tables: the rung measures per-datagram cost, not churn.
fn hooks_pair(w: Workload, seed: u64, registry: bool) -> (SecureNet, FbsIpHooks, FbsIpHooks) {
    let mut cfg = Workload::LanSmall.mapping_config();
    cfg.fbs.suite = w.suite();
    let mut net = SecureNet::new(seed, Impairments::ideal(), cfg, DhGroup::oakley1());
    let a = net.add_host(A);
    let b = net.add_host(B);
    if registry {
        a.attach_obs(Arc::new(MetricsRegistry::new()))
            .expect("worker runtime alive");
        b.attach_obs(Arc::new(MetricsRegistry::new()))
            .expect("worker runtime alive");
    }
    (net, a, b)
}

/// `process_batch` out at A then in at B over the sample in workload-size
/// batches, with and without a registry attached, interleaved; the
/// median ratio of their ns per datagram.
fn obs_rung(w: Workload, seed: u64, segs: &[Vec<u8>]) -> f64 {
    let batch = w.batch().min(segs.len());
    let mut pairs = [hooks_pair(w, seed, true), hooks_pair(w, seed, false)];
    let mut pools = [BufferPool::new(), BufferPool::new()];
    let round =
        |pair: &mut (SecureNet, FbsIpHooks, FbsIpHooks), pool: &mut BufferPool, first: usize| {
            let items: Vec<Datagram> = (first..first + batch)
                .map(|i| {
                    let i = i % segs.len();
                    let mut payload = pool.take();
                    payload.extend_from_slice(&segs[i]);
                    let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                    Datagram { header, payload }
                })
                .collect();
            let sealed: Vec<Datagram> = pair
                .1
                .process_batch(Direction::Output, items, pool, 1_000)
                .into_iter()
                .map(|(header, o)| match o {
                    HookOutcome::Pass(payload) => Datagram { header, payload },
                    other => panic!("hooks rung seal failed: {other:?}"),
                })
                .collect();
            for (_, o) in pair.2.process_batch(Direction::Input, sealed, pool, 1_000) {
                match o {
                    HookOutcome::Pass(plain) => pool.put(plain),
                    other => panic!("hooks rung open failed: {other:?}"),
                }
            }
        };
    let mut per_dgram = |p: usize| {
        let mut first = 0;
        time_per_item(1, |_| {
            round(&mut pairs[p], &mut pools[p], first);
            first += batch;
        }) / batch as f64
    };
    let ratios: Vec<f64> = (0..REPEATS).map(|_| per_dgram(0) / per_dgram(1)).collect();
    median(&ratios)
}
