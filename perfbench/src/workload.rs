//! The three traffic mixes and their seeded datagram generator.
//!
//! A datagram is identified by its global sequence number: the first
//! [`TAG_LEN`] bytes of its UDP data carry `(seq, flow, len)`, the rest
//! is a fill stream derived from `(seed, seq)`. The receiver can therefore
//! rebuild the exact bytes it should have got from the tag alone, and the
//! generator keeps no per-datagram state beyond the batch in flight.

use fbs_crypto::CipherSuite;
use fbs_ip::IpMappingConfig;
use fbs_net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs_trace::{ScaleConfig, ScaleTrace};

/// Sender address.
pub const A: Ipv4Addr = [10, 70, 0, 1];
/// Receiver address.
pub const B: Ipv4Addr = [10, 70, 0, 2];
/// Link MTU of both hosts.
pub const MTU: usize = 1500;
/// Bytes of identifying tag at the head of every payload.
pub const TAG_LEN: usize = 16;
/// UDP header length.
const UDP_HEADER: usize = 8;
/// IPv4 header length.
const IP_HEADER: usize = 20;

/// Flows the churn workload spreads over B's bound ports.
const CHURN_DPORTS: u16 = 64;
/// First bound port of the churn workload.
const CHURN_DPORT_BASE: u16 = 9000;
/// Total flow-table capacity per host on the churn workload (TFKC, RFKC
/// and FST), split evenly across the shards.
pub const CHURN_TABLE_FLOWS: usize = 1 << 20;
/// Flows that must be resident at A before the churn workload measures.
pub const CHURN_RESIDENT_FLOWS: usize = 1 << 18;

/// One named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 16 long-lived flows of 8 KB datagrams, paper suite (DES-CBC +
    /// keyed MD5): per-byte crypto plus fragmentation and reassembly.
    NfsBulk,
    /// 64 long-lived flows of 64–512 B datagrams, ChaCha20 + Poly1305:
    /// per-packet overheads.
    LanSmall,
    /// A streamed server mix with heavy-tailed flow sizes and port
    /// reuse, fast DES suite: soft-state writes at scale.
    WwwChurn,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::NfsBulk, Workload::LanSmall, Workload::WwwChurn];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NfsBulk => "nfs_bulk",
            Workload::LanSmall => "lan_small",
            Workload::WwwChurn => "www_churn",
        }
    }

    /// The cipher suite both hosts run.
    pub fn suite(self) -> CipherSuite {
        match self {
            Workload::NfsBulk => CipherSuite::Paper,
            Workload::LanSmall => CipherSuite::AeadChaPoly,
            Workload::WwwChurn => CipherSuite::FastDes,
        }
    }

    /// Datagrams per submitted batch.
    pub fn batch(self) -> usize {
        match self {
            Workload::NfsBulk => 16,
            Workload::LanSmall => 8,
            Workload::WwwChurn => 256,
        }
    }

    /// Flows of the long-lived mixes (0 for the churn mix).
    pub fn long_lived_flows(self) -> usize {
        match self {
            Workload::NfsBulk => 16,
            Workload::LanSmall => 64,
            Workload::WwwChurn => 0,
        }
    }

    /// B's ports the workload sends to (bound before traffic starts).
    pub fn dports(self) -> Vec<u16> {
        match self {
            Workload::NfsBulk => vec![2049],
            Workload::LanSmall => vec![7000],
            Workload::WwwChurn => (0..CHURN_DPORTS).map(|i| CHURN_DPORT_BASE + i).collect(),
        }
    }

    /// The IP-mapping configuration both hosts are built with: one
    /// worker per host, encryption on, the workload's suite, and flow
    /// tables large enough that the long-lived mixes only ever hit.
    pub fn mapping_config(self) -> IpMappingConfig {
        let base = IpMappingConfig {
            workers: 1,
            encrypt: true,
            ..IpMappingConfig::default()
        };
        let shards = base.shards.max(1).next_power_of_two();
        let (fst_size, kc_sets, kc_assoc) = match self {
            // A few hundred slots per shard keep 16 or 64 flows free of
            // direct-mapped collisions.
            Workload::NfsBulk | Workload::LanSmall => (4096, 1024, 4),
            Workload::WwwChurn => {
                let per_shard = CHURN_TABLE_FLOWS / shards;
                (per_shard, per_shard / 4, 4)
            }
        };
        let mut cfg = IpMappingConfig { fst_size, ..base };
        cfg.fbs.suite = self.suite();
        cfg.fbs.tfkc_sets = kc_sets;
        cfg.fbs.tfkc_assoc = kc_assoc;
        cfg.fbs.rfkc_sets = kc_sets;
        cfg.fbs.rfkc_assoc = kc_assoc;
        cfg
    }

    /// A fresh generator for this workload. `max_data` is the largest
    /// UDP data length that crosses the link unfragmented once the FBS
    /// header is added; the churn mix keeps its trace lengths below it.
    pub fn generator(self, seed: u64, max_data: usize) -> Generator {
        let source = match self {
            Workload::NfsBulk | Workload::LanSmall => Source::Fixed,
            Workload::WwwChurn => Source::Churn(Box::new(ScaleTrace::new(churn_trace(seed)))),
        };
        Generator {
            workload: self,
            seed,
            rng: SplitMix::new(seed ^ 0x0062_656e_6368),
            next_seq: 0,
            max_data,
            source,
            tag_only: false,
        }
    }
}

/// The streamed server mix behind `www_churn`: the workload of the
/// scale bench's capacity curve (`curve_trace` in `fbs-bench`'s
/// `scale.rs`, behind `BENCH_scale.json`) with the run's seed. Its
/// Pareto(1.2) flow sizes, capped at 2^20 datagrams, keep the elephant
/// tail; its 4M-client population keeps distinct tuples far above the
/// tables' capacity.
fn churn_trace(seed: u64) -> ScaleConfig {
    ScaleConfig {
        seed,
        clients: 4_000_000,
        client_skew: 1.5,
        active_flows: 16_384,
        port_reuse_span: 16,
        ..ScaleConfig::default()
    }
}

/// Largest UDP data length that leaves A unfragmented when the hooks add
/// at most `overhead` bytes.
pub fn max_unfragmented_data(overhead: usize) -> usize {
    MTU - IP_HEADER - UDP_HEADER - overhead
}

/// Where a datagram comes from and goes to, and what it must contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Global sequence number (unique within a run).
    pub seq: u64,
    /// Flow identifier (the workload's own numbering).
    pub flow: u32,
    /// A's source port.
    pub sport: u16,
    /// B's destination port.
    pub dport: u16,
    /// UDP data length in bytes.
    pub len: usize,
}

enum Source {
    /// Long-lived flows drawn from a fixed set.
    Fixed,
    /// The streamed churn trace.
    Churn(Box<ScaleTrace>),
}

/// Seeded, streamed datagram generator: O(batch + active window) memory.
pub struct Generator {
    workload: Workload,
    seed: u64,
    rng: SplitMix,
    next_seq: u64,
    max_data: usize,
    source: Source,
    /// Send only the tag: the churn warm-up fills flow tables, it does
    /// not need to move bytes.
    pub tag_only: bool,
}

impl Generator {
    /// The next datagram's specification.
    pub fn next_spec(&mut self) -> Spec {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The long-lived mixes open every flow in order, then pick flows
        // at random.
        let flows = self.workload.long_lived_flows() as u64;
        let pick_flow = |rng: &mut SplitMix| {
            if seq < flows {
                seq as u32
            } else {
                rng.below(flows) as u32
            }
        };
        let (flow, sport, dport, len) = match (&mut self.source, self.workload) {
            (Source::Fixed, Workload::NfsBulk) => {
                let flow = pick_flow(&mut self.rng);
                (flow, 800 + flow as u16, 2049, 8192)
            }
            (Source::Fixed, _) => {
                let flow = pick_flow(&mut self.rng);
                let len = if self.rng.below(2) == 0 {
                    64
                } else {
                    64 + self.rng.below(449) as usize
                };
                (flow, 5000 + flow as u16, 7000, len)
            }
            (Source::Churn(trace), _) => {
                let rec = trace.next().expect("the scale trace is infinite");
                // A deterministic map of the trace's 5-tuple onto the
                // A→B (source port × bound destination port) space.
                let h = tuple_hash(self.seed, &rec.tuple.canonical_array());
                let sport = 1024 + (h % 64_512) as u16;
                let dport = CHURN_DPORT_BASE + ((h >> 32) % CHURN_DPORTS as u64) as u16;
                (
                    h as u32,
                    sport,
                    dport,
                    (rec.len as usize).min(self.max_data),
                )
            }
        };
        Spec {
            seq,
            flow,
            sport,
            dport,
            len: if self.tag_only {
                TAG_LEN
            } else {
                len.max(TAG_LEN)
            },
        }
    }

    /// The next batch: specifications plus ready-to-send `(header, UDP
    /// segment)` items for `Host::ip_output_batch`.
    pub fn next_batch(
        &mut self,
        n: usize,
        scratch: &mut Vec<u8>,
    ) -> (Vec<Spec>, Vec<(Ipv4Header, Vec<u8>)>) {
        let mut specs = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let spec = self.next_spec();
            fill_payload(self.seed, &spec, scratch);
            let seg = fbs_net::udp::encode(A, B, spec.sport, spec.dport, scratch);
            items.push((Ipv4Header::new(A, B, Proto::Udp, seg.len()), seg));
            specs.push(spec);
        }
        (specs, items)
    }
}

/// Seeded 64-bit hash of a canonical 5-tuple.
fn tuple_hash(seed: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(seed, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        SplitMix::new(h ^ u64::from_le_bytes(word)).next()
    })
}

/// Write the exact UDP data `spec` carries into `out`: the tag, then the
/// fill stream of `(seed, seq)`.
pub fn fill_payload(seed: u64, spec: &Spec, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&spec.seq.to_be_bytes());
    out.extend_from_slice(&spec.flow.to_be_bytes());
    out.extend_from_slice(&(spec.len as u32).to_be_bytes());
    let mut rng = SplitMix::new(seed.rotate_left(32) ^ spec.seq);
    while out.len() < spec.len {
        let word = rng.next().to_le_bytes();
        let take = (spec.len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
}

/// The tag at the head of a payload: `(seq, flow, len)`.
pub fn read_tag(data: &[u8]) -> Option<(u64, u32, usize)> {
    let tag = data.get(..TAG_LEN)?;
    let seq = u64::from_be_bytes(tag[..8].try_into().ok()?);
    let flow = u32::from_be_bytes(tag[8..12].try_into().ok()?);
    let len = u32::from_be_bytes(tag[12..16].try_into().ok()?) as usize;
    Some((seq, flow, len))
}

/// SplitMix64: a tiny, seedable, well-mixed generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator positioned at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut g = w.generator(seed, max_unfragmented_data(40));
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for _ in 0..n / w.batch() + 1 {
            let (_, items) = g.next_batch(w.batch(), &mut scratch);
            for (h, seg) in items {
                out.extend_from_slice(&h.encode());
                out.extend_from_slice(&seg);
            }
        }
        out
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = stream(w, 7, 600);
            let b = stream(w, 7, 600);
            let c = stream(w, 8, 600);
            assert_eq!(a, b, "{}: same seed must give identical bytes", w.name());
            assert_ne!(a, c, "{}: different seeds must differ", w.name());
        }
    }

    #[test]
    fn payload_roundtrips_through_its_tag() {
        let spec = Spec {
            seq: 41,
            flow: 3,
            sport: 1,
            dport: 2,
            len: 100,
        };
        let mut buf = Vec::new();
        fill_payload(9, &spec, &mut buf);
        assert_eq!(buf.len(), 100);
        assert_eq!(read_tag(&buf), Some((41, 3, 100)));
    }

    #[test]
    fn churn_stays_below_the_mtu_and_lan_small_favours_64_bytes() {
        let max = max_unfragmented_data(40);
        let mut g = Workload::WwwChurn.generator(1, max);
        assert!((0..10_000).all(|_| g.next_spec().len <= max));
        let mut g = Workload::LanSmall.generator(1, max);
        let lens: Vec<usize> = (0..10_000).map(|_| g.next_spec().len).collect();
        let small = lens.iter().filter(|&&l| l == 64).count();
        assert!(small > 4_000 && lens.iter().all(|&l| (64..=512).contains(&l)));
    }
}
