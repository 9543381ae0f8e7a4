//! The two-host secure datagram path and its closed-loop driver.
//!
//! Two hosts built by `build_secure_host` (through `SecureNet`) share an
//! ideal segment. A single driver thread generates a batch, submits it
//! at A with `Host::ip_output_batch`, moves it with `SecureNet::step`,
//! and reads and byte-checks it from B's bound UDP ports before the next
//! batch: `process_batch` is synchronous, so the driver waits (parked)
//! while a host's worker runs, and no more threads are runnable than
//! there are CPUs.

use crate::measure;
use crate::span::{TracedHooks, Tracer};
use crate::workload::{self, Generator, Spec, Workload, A, B};
use fbs_crypto::DhGroup;
use fbs_ip::host::SecureNet;
use fbs_ip::FbsIpHooks;
use fbs_net::segment::Impairments;
use fbs_net::SecurityHooks;
use fbs_obs::MetricsRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time one step advances the segment and the FBS clocks.
const STEP_US: u64 = 1_000;

/// Flows the churn warm-up adds beyond the residency target, so the
/// measured window starts with margin.
const CHURN_WARM_MARGIN: usize = 1 << 12;

/// Consecutive batches without a new pool miss that end the long-lived
/// warm-up (once every flow has been keyed).
const WARM_QUIET_BATCHES: usize = 2;

/// The two hosts, the hook handles that read their counters, and the
/// registry attached to each (metrics stay on, as deployed).
pub struct TwoHosts {
    /// The segment, both hosts and the shared virtual clock.
    pub net: SecureNet,
    /// Handle onto A's hooks.
    pub hooks_a: FbsIpHooks,
    /// Handle onto B's hooks.
    pub hooks_b: FbsIpHooks,
}

impl TwoHosts {
    /// Build A and B for `w`, attach one registry to each host and its
    /// hooks, and bind B's ports.
    pub fn build(w: Workload, seed: u64, group: DhGroup) -> Self {
        let mut net = SecureNet::new(seed, Impairments::ideal(), w.mapping_config(), group);
        let hooks_a = net.add_host(A);
        let hooks_b = net.add_host(B);
        for (addr, hooks) in [(A, &hooks_a), (B, &hooks_b)] {
            let registry = Arc::new(MetricsRegistry::new());
            net.host_mut(addr).attach_obs(Arc::clone(&registry));
            hooks.attach_obs(registry).expect("worker runtime alive");
        }
        for port in w.dports() {
            net.host_mut(B).udp.bind(port).expect("port free");
        }
        TwoHosts {
            net,
            hooks_a,
            hooks_b,
        }
    }

    /// Virtual time in whole seconds (the FBS clocks' unit).
    pub fn now_secs(&self) -> u64 {
        self.net.now_us() / 1_000_000
    }
}

/// Outcome of one batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutcome {
    /// Submit at A to the last datagram verified at B.
    pub latency_ns: u64,
    /// Datagrams submitted.
    pub sent: u64,
    /// Datagrams delivered byte-exact.
    pub verified: u64,
    /// UDP data bytes delivered byte-exact.
    pub bytes: u64,
}

/// Run-long correctness ledger.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// Datagrams submitted at A (warm-up included).
    pub sent: u64,
    /// Datagrams delivered byte-exact.
    pub verified: u64,
    /// Delivered datagrams whose bytes, ports or tag did not match.
    pub mismatched: u64,
    /// Submissions `ip_output_batch` refused.
    pub send_errors: u64,
    /// Heap allocations made by the driver's own generation and
    /// verification. The workers are idle then (the loop is closed), so
    /// every allocation in those spans is the driver's.
    pub driver_allocs: u64,
}

/// End-of-run checks of both hosts.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Each pool's `hits + misses (+ payloads handed in) == returns +
    /// discards`, per host.
    pub pools_balanced: [bool; 2],
    /// Frames dropped for bad IP headers, both hosts.
    pub header_drops: u64,
    /// Datagrams a hook rejected, both hosts and directions.
    pub hook_rejects: u64,
    /// Both hooks drained within their deadline.
    pub drained: bool,
}

impl Checks {
    /// Everything the run promises held.
    pub fn ok(&self) -> bool {
        self.pools_balanced.iter().all(|&b| b)
            && self.header_drops == 0
            && self.hook_rejects == 0
            && self.drained
    }
}

/// The closed-loop driver over one pair of hosts.
pub struct Driver {
    /// The workload driven.
    pub workload: Workload,
    seed: u64,
    /// The hosts.
    pub hosts: TwoHosts,
    gen: Generator,
    scratch: Vec<u8>,
    expect: Vec<u8>,
    seen: Vec<bool>,
    ports: Vec<u16>,
    batch_id: u64,
    /// Correctness ledger.
    pub ledger: Ledger,
    tracer: Option<Tracer>,
}

impl Driver {
    /// Build the hosts and a generator positioned at the first datagram.
    pub fn new(w: Workload, seed: u64, group: DhGroup) -> Self {
        let hosts = TwoHosts::build(w, seed, group);
        let max_data = workload::max_unfragmented_data(hosts.hooks_a.max_overhead());
        Driver {
            workload: w,
            seed,
            hosts,
            gen: w.generator(seed, max_data),
            scratch: Vec::new(),
            expect: Vec::new(),
            seen: Vec::new(),
            ports: Vec::new(),
            batch_id: 0,
            ledger: Ledger::default(),
            tracer: None,
        }
    }

    /// Warm the path: on the long-lived mixes, run until every flow has
    /// been keyed (the generator opens each in turn) and the pools have
    /// stopped missing; on the churn mix, stream until enough flows are
    /// resident at A.
    pub fn warm_up(&mut self) {
        match self.workload {
            Workload::WwwChurn => {
                // The same stream of flows, with tag-only payloads: the
                // warm-up makes flows resident, it does not move bytes.
                let target = workload::CHURN_RESIDENT_FLOWS + CHURN_WARM_MARGIN;
                self.gen.tag_only = true;
                let mut rounds = 0;
                while self.active_flows() < target {
                    rounds += 1;
                    assert!(
                        rounds <= 4096,
                        "churn never reached {target} resident flows"
                    );
                    for _ in 0..64 {
                        self.run_batch();
                    }
                }
                self.gen.tag_only = false;
            }
            _ => {
                let flows = self.workload.long_lived_flows() as u64;
                let mut misses = self.pool_misses();
                let mut quiet = 0;
                while quiet < WARM_QUIET_BATCHES || self.ledger.sent < flows {
                    assert!(
                        self.ledger.sent < 1 << 20,
                        "the long-lived warm-up never settled"
                    );
                    self.run_batch();
                    let now = self.pool_misses();
                    quiet = if now == misses { quiet + 1 } else { 0 };
                    misses = now;
                }
            }
        }
    }

    /// Pool misses of both hosts so far.
    fn pool_misses(&mut self) -> u64 {
        [A, B]
            .iter()
            .map(|&addr| self.hosts.net.host_mut(addr).pool_stats().misses)
            .sum()
    }

    /// Flows resident at A now.
    pub fn active_flows(&self) -> usize {
        self.hosts
            .hooks_a
            .active_flows(self.hosts.now_secs())
            .expect("worker runtime alive")
    }

    /// Put both hosts' hooks inside spans from now on.
    pub fn trace(&mut self, tracer: Tracer) {
        for (addr, hooks) in [(A, &self.hosts.hooks_a), (B, &self.hosts.hooks_b)] {
            let traced = TracedHooks::new(hooks.clone(), tracer.clone());
            self.hosts
                .net
                .host_mut(addr)
                .install_hooks(Box::new(traced));
        }
        self.tracer = Some(tracer);
    }

    /// Generate, send, move and verify one batch.
    pub fn run_batch(&mut self) -> BatchOutcome {
        let tracer = self.tracer.clone();
        let tr = tracer.as_ref();
        if let Some(t) = tr {
            t.set_batch(self.batch_id);
        }
        self.batch_id += 1;
        let root = tr.map(|t| t.open("batch"));
        let n = self.workload.batch();

        let (specs, items) = span(tr, "gen", || {
            let a0 = measure::allocs();
            let batch = self.gen.next_batch(n, &mut self.scratch);
            self.ledger.driver_allocs += measure::allocs() - a0;
            (batch, n as u64)
        });
        let t0 = Instant::now();
        let now_us = self.hosts.net.now_us();
        let results = span(tr, "ip_output_batch", || {
            let r = self.hosts.net.host_mut(A).ip_output_batch(items, now_us);
            (r, n as u64)
        });
        self.ledger.sent += n as u64;
        self.ledger.send_errors += results.iter().filter(|r| r.is_err()).count() as u64;
        span(tr, "step", || {
            self.hosts.net.step(STEP_US);
            ((), n as u64)
        });
        let (verified, bytes) = span(tr, "verify", || {
            let a0 = measure::allocs();
            let r = self.verify(&specs);
            self.ledger.driver_allocs += measure::allocs() - a0;
            (r, n as u64)
        });
        let latency_ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(root)) = (tr, root) {
            t.close(root, n as u64);
        }
        self.ledger.verified += verified;
        BatchOutcome {
            latency_ns,
            sent: n as u64,
            verified,
            bytes,
        }
    }

    /// Read every datagram waiting on the batch's ports and compare it
    /// byte for byte with what its tag says was sent. Returns (verified
    /// datagrams, verified bytes).
    fn verify(&mut self, specs: &[Spec]) -> (u64, u64) {
        let base = specs[0].seq;
        self.seen.clear();
        self.seen.resize(specs.len(), false);
        self.ports.clear();
        self.ports.extend(specs.iter().map(|s| s.dport));
        self.ports.sort_unstable();
        self.ports.dedup();
        let (mut verified, mut bytes) = (0, 0);
        let b = self.hosts.net.host_mut(B);
        for &port in &self.ports {
            while let Some(d) = b.udp.recv(port) {
                let matched = workload::read_tag(&d.data).and_then(|(seq, flow, len)| {
                    let i = seq.checked_sub(base)? as usize;
                    let spec = specs.get(i)?;
                    let ok = !self.seen[i]
                        && spec.flow == flow
                        && spec.len == len
                        && spec.sport == d.src_port
                        && spec.dport == port
                        && d.src == A;
                    ok.then_some((i, spec))
                });
                let Some((i, spec)) = matched else {
                    self.ledger.mismatched += 1;
                    continue;
                };
                workload::fill_payload(self.seed, spec, &mut self.expect);
                if d.data == self.expect {
                    self.seen[i] = true;
                    verified += 1;
                    bytes += spec.len as u64;
                } else {
                    self.ledger.mismatched += 1;
                }
            }
        }
        (verified, bytes)
    }

    /// Drain both hooks and check the pool ledgers and drop counters.
    pub fn checks(&mut self) -> Checks {
        let drain = Duration::from_secs(10);
        let drained = self.hosts.hooks_a.drain_with_deadline(drain).is_ok()
            && self.hosts.hooks_b.drain_with_deadline(drain).is_ok();
        let mut checks = Checks {
            drained,
            ..Checks::default()
        };
        // A's pool also takes back the payload buffers the driver handed
        // to `ip_output_batch`: one return per datagram sent, with no take.
        for (i, (addr, handed_in)) in [(A, self.ledger.sent), (B, 0)].into_iter().enumerate() {
            let host = self.hosts.net.host_mut(addr);
            let p = host.pool_stats();
            checks.pools_balanced[i] = p.hits + p.misses + handed_in == p.returns + p.discards;
            let s = host.stats();
            checks.header_drops += s.header_drops;
            checks.hook_rejects += s.hook_output_rejects + s.hook_input_rejects;
        }
        checks
    }
}

/// Run `f` inside a span when tracing; `f` reports its datagrams.
fn span<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
    match tr {
        Some(t) => t.in_span(name, f),
        None => f().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{HOOKS_INPUT, HOOKS_OUTPUT};

    #[test]
    fn every_hooks_span_sits_under_an_output_or_step_span() {
        let mut d = Driver::new(Workload::LanSmall, 3, DhGroup::test_group());
        d.warm_up();
        assert_eq!(d.active_flows(), 64, "the warm-up keys every flow");
        let own = d.ledger.driver_allocs;
        d.run_batch();
        assert!(
            d.ledger.driver_allocs - own >= 8,
            "the generator's per-datagram buffers count as the driver's"
        );
        let tracer = Tracer::default();
        d.trace(tracer.clone());
        for _ in 0..20 {
            d.run_batch();
        }
        let spans = tracer.take();
        let hooks: Vec<_> = spans
            .iter()
            .filter(|s| s.name == HOOKS_OUTPUT || s.name == HOOKS_INPUT)
            .collect();
        assert_eq!(hooks.len(), 40, "one output and one input call per batch");
        for h in hooks {
            let parent = &spans[h.parent.expect("a hooks span has a parent")];
            let expected = if h.name == HOOKS_OUTPUT {
                "ip_output_batch"
            } else {
                "step"
            };
            assert_eq!(parent.name, expected);
            assert_eq!(parent.batch, h.batch);
        }
        assert_eq!(d.ledger.verified, d.ledger.sent);
        assert!(d.checks().ok());
    }

    #[test]
    fn nfs_datagrams_cross_the_link_as_six_fragments() {
        let mut d = Driver::new(Workload::NfsBulk, 1, DhGroup::test_group());
        for _ in 0..4 {
            d.run_batch();
        }
        assert_eq!(d.ledger.verified, d.ledger.sent);
        assert_eq!(
            d.hosts.net.host_mut(A).stats().frames_sent,
            6 * d.ledger.sent
        );
        assert!(d.checks().ok());
    }
}
