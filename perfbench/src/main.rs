//! End-to-end FBS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nfs_bulk|lan_small|www_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer ladder (and writes its spans as JSON lines, to `--spans
//! <path>` or `perfbench/out/`). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! process exits non-zero when a payload, pool ledger, drop counter or
//! drain check fails. See `perfbench/README.md`.

mod driver;
mod ladder;
mod measure;
mod span;
mod workload;

use driver::{Checks, Driver};
use fbs_crypto::DhGroup;
use measure::{median, Chunker, CountingAlloc, MIN_BATCHES_FOR_P99};
use span::{self_times, totals, Tracer, HOOKS_INPUT, HOOKS_OUTPUT};
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Complete set-ups per run. Each is measured for its share of the run's
/// seconds, so a run samples several thread placements; `setup_s` and
/// every window total are medians over set-ups. The churn mix fills a
/// quarter-million flows per set-up, so it repeats fewer.
fn setups(w: Workload) -> usize {
    match w {
        Workload::WwwChurn => 2,
        _ => 9,
    }
}

/// The traced window stops after this many batches, bounding the span
/// record's memory.
const MAX_TRACED_BATCHES: usize = 20_000;
/// Name prefix of the hooks' worker threads.
const WORKER_THREAD: &str = "fbs-worker";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let num = |name: &str, default: &str| -> Result<f64, String> {
        flag(name)
            .unwrap_or_else(|| default.into())
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    Ok(Args {
        workload,
        seed: num("--seed", "1")? as u64,
        seconds: num("--seconds", "10")?.max(0.1),
        trace: num("--trace", "0")? != 0.0,
        spans: flag("--spans"),
    })
}

/// One measured window over one pair of hosts.
#[derive(Default)]
struct Window {
    wall_ns: u64,
    sent: u64,
    verified: u64,
    bytes: u64,
    cpu_ns: u64,
    allocs: u64,
    worker_cpu_ns: u64,
    driver_cpu_ns: u64,
    batches: usize,
    threads: usize,
}

impl Window {
    fn dgrams_per_s(&self) -> f64 {
        self.verified as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn goodput_mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / (self.wall_ns as f64 / 1e9)
    }
}

/// Drive batches for `seconds`, stopping early after `max_batches` and
/// running on until `min_batches` ran; every batch also goes to `chunks`.
/// Allocations exclude the driver's own.
fn measure_window(
    d: &mut Driver,
    seconds: f64,
    min_batches: usize,
    max_batches: usize,
    chunks: &mut Chunker,
) -> Window {
    let len_ns = Duration::from_secs_f64(seconds).as_nanos() as u64;
    let mut w = Window::default();
    let allocs0 = measure::allocs() - d.ledger.driver_allocs;
    let worker0 = measure::named_threads_cpu_ns(WORKER_THREAD);
    let driver0 = measure::thread_cpu_ns();
    let cpu0 = measure::process_cpu_ns();
    let start = Instant::now();
    loop {
        let o = d.run_batch();
        let now_ns = start.elapsed().as_nanos() as u64;
        chunks.push(
            now_ns - w.wall_ns,
            o.latency_ns as f64 / 1e3,
            o.verified,
            o.bytes,
        );
        w.wall_ns = now_ns;
        w.sent += o.sent;
        w.verified += o.verified;
        w.bytes += o.bytes;
        w.batches += 1;
        let n = w.batches;
        if n >= max_batches || (n >= min_batches && w.wall_ns >= len_ns) {
            break;
        }
    }
    w.cpu_ns = measure::process_cpu_ns() - cpu0;
    w.allocs = measure::allocs() - d.ledger.driver_allocs - allocs0;
    w.worker_cpu_ns = measure::named_threads_cpu_ns(WORKER_THREAD) - worker0;
    w.driver_cpu_ns = measure::thread_cpu_ns() - driver0;
    w.threads = std::fs::read_dir("/proc/self/task").map_or(0, |t| t.count());
    w
}

/// What the run's drivers promised, summed over every pair of hosts it
/// built: datagrams attempted and delivered in measured windows, and
/// every end-of-run check.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    verified: u64,
    mismatched: u64,
    send_errors: u64,
    checks: Vec<Checks>,
    threads: usize,
}

impl Verdict {
    /// Count `windows` and run `d`'s end-of-run checks.
    fn record(&mut self, d: &mut Driver, windows: &[&Window]) {
        for w in windows {
            self.attempted += w.sent;
            self.verified += w.verified;
            self.threads = self.threads.max(w.threads);
        }
        self.mismatched += d.ledger.mismatched;
        self.send_errors += d.ledger.send_errors;
        self.checks.push(d.checks());
    }

    fn correct(&self) -> bool {
        self.mismatched == 0 && self.send_errors == 0 && self.checks.iter().all(Checks::ok)
    }
}

/// Ordered `(name, value, unit)` metrics.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A run's result: the metrics in the JSON result, metrics printed
/// beside them only, and what the run's checks found.
struct Report {
    metrics: Metrics,
    printed: Metrics,
    verdict: Verdict,
}

/// Build the hosts and warm them.
fn set_up(w: Workload, seed: u64) -> Driver {
    let mut d = Driver::new(w, seed, DhGroup::oakley1());
    d.warm_up();
    d
}

fn end_to_end(args: &Args, process_start: Instant) -> Report {
    let k = setups(args.workload);
    let mut verdict = Verdict::default();
    let mut setup_s = Vec::with_capacity(k);
    let mut windows: Vec<Window> = Vec::with_capacity(k);
    let mut chunks = Chunker::default();
    for i in 0..k {
        // The first set-up counts from process start.
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut d = set_up(args.workload, args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        let min = if i + 1 == k {
            MIN_BATCHES_FOR_P99.saturating_sub(chunks.batches())
        } else {
            0
        };
        let win = measure_window(
            &mut d,
            args.seconds / k as f64,
            min,
            usize::MAX,
            &mut chunks,
        );
        verdict.record(&mut d, &[&win]);
        windows.push(win);
        // Tear this pair down before the next: only one is ever resident.
        drop(d);
    }
    let batches = chunks.batches();
    let sum = chunks.finish();
    // CPU time is a whole window's total, taken as the median over
    // set-ups, so a stall that burns CPU counts.
    let per_setup = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let cpu = per_setup(|w| w.cpu_ns as f64 / w.verified.max(1) as f64);
    let (allocs, verified) = windows
        .iter()
        .fold((0, 0), |(a, v), w| (a + w.allocs, v + w.verified));
    let metrics = vec![
        ("goodput_MBps", sum.goodput_mbps, "MB/s"),
        ("dgrams_per_s", sum.dgrams_per_s, "1/s"),
        ("latency_p50_us", sum.p50_us, "us"),
        ("cpu_ns_per_dgram", cpu, "ns"),
        (
            "allocs_per_dgram",
            allocs as f64 / verified.max(1) as f64,
            "count",
        ),
        ("rss_peak_MB", measure::rss_peak_mb(), "MB"),
        ("setup_s", median(&setup_s), "s"),
    ];
    // The tail, and the window rates that include it, move with the
    // machine's scheduling noise far more than any bound could absorb, so
    // they are printed but not part of the result.
    let printed = vec![
        (
            "window_goodput_MBps",
            per_setup(Window::goodput_mbps),
            "MB/s",
        ),
        (
            "window_dgrams_per_s",
            per_setup(Window::dgrams_per_s),
            "1/s",
        ),
        ("latency_p99_us", sum.p99_us, "us"),
        ("latency_samples", batches as f64, "count"),
    ];
    Report {
        metrics,
        printed,
        verdict,
    }
}

/// Counters read from the always-on stats accessors, for deltas over the
/// traced window.
#[derive(Default)]
struct Counters {
    tx_lookups: u64,
    tx_misses: u64,
    tx_evictions: u64,
    rx_lookups: u64,
    rx_misses: u64,
    rx_evictions: u64,
    upcalls: u64,
    ring_stalls: u64,
    shed: u64,
    rejects: u64,
    frames_a: u64,
    pool_hits: u64,
    pool_takes: u64,
}

impl Counters {
    fn read(d: &mut Driver) -> Self {
        let (a, b) = (&d.hosts.hooks_a, &d.hosts.hooks_b);
        let tfkc = a.tfkc_stats();
        // On the combined FST/TFKC send path (the deployed default) the
        // TFKC is bypassed: the combined table is the transmit key cache.
        let (tx_lookups, tx_misses, tx_evictions) = match a.combined_stats() {
            Some(c) if tfkc.hits + tfkc.misses() == 0 => {
                (c.hits + c.new_flows, c.new_flows, c.collisions)
            }
            _ => (tfkc.hits + tfkc.misses(), tfkc.misses(), tfkc.evictions),
        };
        let rfkc = b.rfkc_stats();
        let (sa, sb) = (a.stats(), b.stats());
        let mut c = Counters {
            tx_lookups,
            tx_misses,
            tx_evictions,
            rx_lookups: rfkc.hits + rfkc.misses(),
            rx_misses: rfkc.misses(),
            rx_evictions: rfkc.evictions,
            upcalls: a.mkd_stats().upcalls + b.mkd_stats().upcalls,
            ring_stalls: a.ring_stalls() + b.ring_stalls(),
            shed: a.shed_counts().0 + b.shed_counts().0,
            rejects: sa.output_errors + sa.input_errors + sb.output_errors + sb.input_errors,
            ..Counters::default()
        };
        for addr in [workload::A, workload::B] {
            let host = d.hosts.net.host_mut(addr);
            let (s, p) = (host.stats(), host.pool_stats());
            c.rejects += s.hook_output_rejects + s.hook_input_rejects;
            c.pool_hits += p.hits;
            c.pool_takes += p.hits + p.misses;
            if addr == workload::A {
                c.frames_a = s.frames_sent;
            }
        }
        c
    }

    fn since(&self, e: &Counters) -> Counters {
        Counters {
            tx_lookups: self.tx_lookups - e.tx_lookups,
            tx_misses: self.tx_misses - e.tx_misses,
            tx_evictions: self.tx_evictions - e.tx_evictions,
            rx_lookups: self.rx_lookups - e.rx_lookups,
            rx_misses: self.rx_misses - e.rx_misses,
            rx_evictions: self.rx_evictions - e.rx_evictions,
            upcalls: self.upcalls - e.upcalls,
            ring_stalls: self.ring_stalls - e.ring_stalls,
            shed: self.shed - e.shed,
            rejects: self.rejects - e.rejects,
            frames_a: self.frames_a - e.frames_a,
            pool_hits: self.pool_hits - e.pool_hits,
            pool_takes: self.pool_takes - e.pool_takes,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn traced(args: &Args) -> Report {
    let w = args.workload;
    let mut d = set_up(w, args.seed);
    // Untraced first: the baseline for the tracing overhead and the
    // busy/waiting split.
    let plain = measure_window(
        &mut d,
        args.seconds / 2.0,
        0,
        usize::MAX,
        &mut Chunker::default(),
    );
    let before = Counters::read(&mut d);
    let tracer = Tracer::default();
    d.trace(tracer.clone());
    let win = measure_window(
        &mut d,
        args.seconds / 2.0,
        0,
        MAX_TRACED_BATCHES,
        &mut Chunker::default(),
    );
    let delta = Counters::read(&mut d).since(&before);
    let spans = tracer.take();
    let active = d.active_flows();
    let mem: u64 = [&d.hosts.hooks_a, &d.hosts.hooks_b]
        .iter()
        .flat_map(|h| h.shard_budgets())
        .map(|b| b.used_bytes())
        .sum();
    let path = args
        .spans
        .clone()
        .unwrap_or_else(|| format!("perfbench/out/spans-{}-{}.jsonl", w.name(), args.seed));
    if let Err(e) = span::write_jsonl(std::path::Path::new(&path), &spans) {
        eprintln!("perfbench: could not write spans to {path}: {e}");
    } else {
        eprintln!("perfbench: {} spans written to {path}", spans.len());
    }
    let max_data =
        workload::max_unfragmented_data(fbs_net::SecurityHooks::max_overhead(&d.hosts.hooks_a));
    let r = ladder::measure(w, args.seed, max_data);

    let own = self_times(&spans);
    let sent = win.sent as f64;
    let per = |name: &str| totals(&spans, &own, name).total_ns as f64 / sent;
    let (out, inp) = (
        totals(&spans, &own, HOOKS_OUTPUT),
        totals(&spans, &own, HOOKS_INPUT),
    );
    let hooks_out = ratio(out.total_ns as f64, out.dgrams as f64);
    let hooks_in = ratio(inp.total_ns as f64, inp.dgrams as f64);
    let crypto = r.cipher_ns + r.mac_ns;
    let per_k = |n: u64| n as f64 * 1e3 / sent;
    let plain_wall = plain.wall_ns as f64;
    let metrics = vec![
        ("crypto.cipher.ns_per_dgram", r.cipher_ns, "ns"),
        ("crypto.mac.ns_per_dgram", r.mac_ns, "ns"),
        ("crypto.crc32.ns_per_dgram", r.crc32_ns, "ns"),
        ("core.seal.ns_per_dgram", r.seal_ns, "ns"),
        ("core.open.ns_per_dgram", r.open_ns, "ns"),
        ("core.seal.over_crypto_ns", r.seal_ns - crypto, "ns"),
        ("core.open.over_crypto_ns", r.open_ns - crypto, "ns"),
        ("core.keying.derive_ns", r.derive_ns, "ns"),
        ("core.mkd.master_key_ms", r.master_key_ms, "ms"),
        (
            "core.tfkc.miss_ratio",
            ratio(delta.tx_misses as f64, delta.tx_lookups as f64),
            "ratio",
        ),
        (
            "core.rfkc.miss_ratio",
            ratio(delta.rx_misses as f64, delta.rx_lookups as f64),
            "ratio",
        ),
        (
            "core.tfkc.evictions_per_kdgram",
            per_k(delta.tx_evictions),
            "count",
        ),
        (
            "core.rfkc.evictions_per_kdgram",
            per_k(delta.rx_evictions),
            "count",
        ),
        (
            "core.derivations_per_kdgram",
            per_k(delta.tx_misses + delta.rx_misses),
            "count",
        ),
        ("core.mkd.upcalls", delta.upcalls as f64, "count"),
        ("ip.hooks.output.ns_per_dgram", hooks_out, "ns"),
        ("ip.hooks.input.ns_per_dgram", hooks_in, "ns"),
        ("ip.hooks.output.over_core_ns", hooks_out - r.seal_ns, "ns"),
        ("ip.hooks.input.over_core_ns", hooks_in - r.open_ns, "ns"),
        (
            "ip.hooks.dgrams_per_call",
            ratio(
                (out.dgrams + inp.dgrams) as f64,
                (out.count + inp.count) as f64,
            ),
            "count",
        ),
        (
            "ip.hooks.ring_stalls_per_kdgram",
            per_k(delta.ring_stalls),
            "count",
        ),
        ("ip.hooks.shed", delta.shed as f64, "count"),
        ("ip.hooks.rejects", delta.rejects as f64, "count"),
        ("ip.active_flows", active as f64, "count"),
        (
            "ip.mem_bytes_per_flow",
            ratio(mem as f64, active as f64),
            "B",
        ),
        (
            "ip.worker_cpu_share",
            plain.worker_cpu_ns as f64 / plain_wall,
            "ratio",
        ),
        (
            "driver.cpu_share",
            plain.driver_cpu_ns as f64 / plain_wall,
            "ratio",
        ),
        (
            "net.output.self_ns",
            totals(&spans, &own, "ip_output_batch").self_ns as f64 / sent,
            "ns",
        ),
        (
            "net.input.self_ns",
            totals(&spans, &own, "step").self_ns as f64 / sent,
            "ns",
        ),
        (
            "net.frames_per_dgram",
            delta.frames_a as f64 / sent,
            "count",
        ),
        (
            "net.pool.hit_ratio",
            ratio(delta.pool_hits as f64, delta.pool_takes as f64),
            "ratio",
        ),
        ("obs.overhead_ratio", r.obs_overhead_ratio, "ratio"),
        ("e2e.ns_per_dgram", per("batch"), "ns"),
        (
            "e2e.residual_ns",
            totals(&spans, &own, "batch").self_ns as f64 / sent,
            "ns",
        ),
        ("bench.gen.ns_per_dgram", per("gen"), "ns"),
        ("bench.verify.ns_per_dgram", per("verify"), "ns"),
        (
            "trace.overhead_ratio",
            win.dgrams_per_s() / plain.dgrams_per_s(),
            "ratio",
        ),
    ];
    let mut verdict = Verdict::default();
    verdict.record(&mut d, &[&plain, &win]);
    Report {
        metrics,
        printed: Vec::new(),
        verdict,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <nfs_bulk|lan_small|www_churn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Report {
        metrics,
        printed,
        verdict,
    } = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args, process_start)
    };
    let correct = verdict.correct();
    let failed = verdict.attempted - verdict.verified;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env {{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"profile\":{},\"workload\":{},\"seed\":{},\"threads\":{},\"trace\":{}}}",
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(args.workload.name()),
        args.seed,
        verdict.threads,
        args.trace as u8,
    );
    for c in &verdict.checks {
        println!(
            "checks pools_balanced={:?} header_drops={} hook_rejects={} drained={}",
            c.pools_balanced, c.header_drops, c.hook_rejects, c.drained
        );
    }
    println!(
        "ledger mismatched={} send_errors={}",
        verdict.mismatched, verdict.send_errors
    );
    println!(
        "fail_ratio = {} ratio",
        ratio(failed as f64, verdict.attempted as f64)
    );
    for (name, value, unit) in printed.iter().chain(&metrics) {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
