//! Per-flow FIFO through the `fbs-ip` worker runtime.
//!
//! A seeded mix of flows goes out through host A's hooks and in through
//! host B's, each side running three shard-owning workers. The runtime
//! partitions every batch across its workers, so datagrams of different
//! flows may be processed in any order; datagrams of one flow must not
//! be. Between the hosts the wires of different flows are re-interleaved
//! and re-batched (each flow's own order is kept, as on one path), so a
//! reordering on one side cannot be undone by the same one on the other.
//! For every seed the test asserts that each flow delivers exactly
//! its submitted payloads, in order, with nothing lost or duplicated,
//! and that every buffer-pool ledger balances once the runtime is
//! drained. Nothing here sleeps or reads a wall clock, so the outcome
//! does not depend on how the workers are scheduled.

use fbs::cert::{CertificateAuthority, Directory};
use fbs::core::{BufferPool, ManualClock};
use fbs::crypto::dh::DhGroup;
use fbs::crypto::rng::Lcg64;
use fbs::ip::hooks::{FbsIpHooks, IpMappingConfig};
use fbs::ip::host::build_secure_host;
use fbs::net::ip::{Ipv4Header, Proto};
use fbs::net::{Datagram, HookOutcome, SecurityHooks};
use fbs::obs::Direction;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

const A: [u8; 4] = [10, 9, 0, 1];
const B: [u8; 4] = [10, 9, 0, 2];
const WORKERS: usize = 3;
const NOW_US: u64 = 1_000_000;
const SEEDS: [u64; 6] = [1, 2, 7, 42, 0x5EED, 0xF1F0];

fn build_pair(seed: u64) -> (FbsIpHooks, FbsIpHooks) {
    let clock = ManualClock::starting_at(0);
    let ca = CertificateAuthority::new("runtime-fifo-ca", [0x5F; 16]);
    let directory = Arc::new(Directory::new(Duration::ZERO));
    let group = DhGroup::test_group();
    let cfg = IpMappingConfig {
        encrypt: true,
        workers: WORKERS,
        ..IpMappingConfig::default()
    };
    let (_ha, a) = build_secure_host(
        A,
        1500,
        cfg.clone(),
        clock.clone(),
        &group,
        &ca,
        &directory,
        2 * seed,
    );
    let (_hb, b) = build_secure_host(B, 1500, cfg, clock, &group, &ca, &directory, 2 * seed + 1);
    (a, b)
}

/// The UDP payload of datagram `seq` of flow `flow`: ports first (the
/// runtime classifies on them), then the sequence number, then a body
/// whose length and bytes vary with both, so a swapped, truncated or
/// cross-flow delivery cannot compare equal.
fn payload_for(flow: usize, seq: u32, out: &mut Vec<u8>) {
    let sport = 7000 + flow as u16;
    out.extend_from_slice(&sport.to_be_bytes());
    out.extend_from_slice(&53u16.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    let len = (flow * 13 + seq as usize * 7) % 61;
    out.extend((0..len).map(|i| (i as u8) ^ (flow as u8) ^ (seq as u8)));
}

fn run_seed(seed: u64) {
    let (mut a, mut b) = build_pair(seed);
    assert_eq!(a.num_workers(), WORKERS, "test requires the worker runtime");
    assert_eq!(b.num_workers(), WORKERS, "test requires the worker runtime");

    let mut rng = Lcg64::new(seed);
    let flows = 2 + (rng.next_u32() % 11) as usize;
    let total = 200 + (rng.next_u32() % 200) as usize;
    let mix: Vec<usize> = (0..total)
        .map(|_| (rng.next_u32() as usize) % flows)
        .collect();

    // One pool per side. A draws its payloads and wire supplies from
    // `pool_a`; B draws its plaintext supplies from `pool_b` and recycles
    // the spent wires there; delivered plaintexts ride home to `pool_a`
    // as the next payloads. Every buffer taken is therefore returned to
    // the pool it came from, and each ledger must balance.
    let mut pool_a = BufferPool::new();
    let mut pool_b = BufferPool::new();
    let mut next_seq = vec![0u32; flows];
    let mut submitted: Vec<Vec<Vec<u8>>> = vec![Vec::new(); flows];
    let mut delivered: Vec<Vec<Vec<u8>>> = vec![Vec::new(); flows];
    let mut in_flight: Vec<VecDeque<Datagram>> = (0..flows).map(|_| VecDeque::new()).collect();
    let mut queued = 0;

    let mut at = 0;
    while at < total || queued > 0 {
        let n = (1 + (rng.next_u32() % 32) as usize).min(total - at);
        let batch: Vec<Datagram> = mix[at..at + n]
            .iter()
            .map(|&flow| {
                let mut payload = pool_a.take();
                payload_for(flow, next_seq[flow], &mut payload);
                next_seq[flow] += 1;
                submitted[flow].push(payload.clone());
                let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                Datagram { header, payload }
            })
            .collect();
        at += n;

        let sealed = a.process_batch(Direction::Output, batch, &mut pool_a, NOW_US);
        for (&flow, (header, outcome)) in mix[at - n..at].iter().zip(sealed) {
            match outcome {
                HookOutcome::Pass(payload) => {
                    in_flight[flow].push_back(Datagram { header, payload });
                    queued += 1;
                }
                other => panic!("seed {seed}: seal failed: {other:?}"),
            }
        }

        // B's batch: a different size, drawn flow by flow from whatever
        // is in flight; once A is done, B drains everything.
        let mut m = 1 + (rng.next_u32() % 32) as usize;
        if at == total {
            m = queued;
        }
        let mut wires = Vec::with_capacity(m);
        while wires.len() < m && queued > 0 {
            let flow = (rng.next_u32() as usize) % flows;
            if let Some(wire) = in_flight[flow].pop_front() {
                wires.push(wire);
                queued -= 1;
            }
        }
        for (_, outcome) in b.process_batch(Direction::Input, wires, &mut pool_b, NOW_US) {
            match outcome {
                HookOutcome::Pass(body) => {
                    let sport = u16::from_be_bytes([body[0], body[1]]);
                    let flow = usize::from(sport - 7000);
                    delivered[flow].push(body.clone());
                    pool_a.put(body);
                }
                other => panic!("seed {seed}: open failed: {other:?}"),
            }
        }
    }

    for (flow, (sent, got)) in submitted.iter().zip(&delivered).enumerate() {
        assert_eq!(
            got, sent,
            "seed {seed}: flow {flow} lost, duplicated or reordered a datagram"
        );
    }
    assert_eq!(delivered.iter().map(Vec::len).sum::<usize>(), total);

    a.drain().expect("sender runtime drains");
    b.drain().expect("receiver runtime drains");
    for (side, pool) in [("A", &pool_a), ("B", &pool_b)] {
        let s = pool.stats();
        assert_eq!(
            s.hits + s.misses,
            s.returns + s.discards,
            "seed {seed}: pool {side} ledger unbalanced: {s:?}"
        );
    }
}

#[test]
fn runtime_keeps_per_flow_fifo_for_every_seed() {
    for seed in SEEDS {
        run_seed(seed);
    }
}
