//! Measuring instruments: percentiles, process and thread CPU time from
//! `/proc`, peak RSS, and a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (including reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation the process makes, then defers to the system
/// allocator.
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Linux reports `utime`/`stime` in USER_HZ ticks, 100 per second on
/// every mainstream architecture.
const NS_PER_TICK: u64 = 10_000_000;

/// `utime + stime` in ns from a `/proc/.../stat` line. Fields are counted
/// after the parenthesised command name, which may itself hold spaces.
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * NS_PER_TICK)
}

fn read_cpu_ns(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| stat_cpu_ns(&s))
        .unwrap_or(0)
}

/// CPU time of the whole process, all threads.
pub fn process_cpu_ns() -> u64 {
    read_cpu_ns("/proc/self/stat")
}

/// CPU time of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    read_cpu_ns("/proc/thread-self/stat")
}

/// Summed CPU time of this process's threads whose name starts with
/// `prefix` (the hooks' workers are named `fbs-worker-<n>`).
pub fn named_threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("stat")).ok())
        .filter(|stat| {
            stat.find('(')
                .is_some_and(|i| stat[i + 1..].starts_with(prefix))
        })
        .filter_map(|stat| stat_cpu_ns(&stat))
        .sum()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[quantile_rank(sorted.len(), q)]
}

fn quantile_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples the p99 must leave above it to be reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Batches a latency chunk must hold for its p99 to leave at least
/// [`TAIL_SAMPLES_BEYOND`] samples strictly beyond its rank.
pub const MIN_BATCHES_FOR_P99: usize = 100 * TAIL_SAMPLES_BEYOND;

/// The p99 of an ascending slice of at least [`MIN_BATCHES_FOR_P99`]
/// samples.
pub fn p99(sorted: &[f64]) -> f64 {
    assert!(
        sorted.len() >= MIN_BATCHES_FOR_P99,
        "a p99 needs {MIN_BATCHES_FOR_P99} samples, got {}",
        sorted.len()
    );
    quantile(sorted, 0.99)
}

/// Median of unsorted samples (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Batches per rate chunk. Rates are the median over chunks of this
/// many consecutive batches, so a stall that hits fewer than half of the
/// chunks is left out of them.
pub const RATE_CHUNK: usize = 64;

/// The run's medians: rates over [`RATE_CHUNK`]-batch chunks, latency
/// percentiles over chunks of at least [`MIN_BATCHES_FOR_P99`] batches.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median chunk rate of verified datagrams per second.
    pub dgrams_per_s: f64,
    /// Median chunk rate of verified payload MB per second.
    pub goodput_mbps: f64,
    /// Median chunk p50 latency.
    pub p50_us: f64,
    /// Median chunk p99 latency.
    pub p99_us: f64,
}

/// Streams per-batch results into chunk statistics in O(chunk) memory,
/// so the benchmark's own footprint does not grow with the run.
#[derive(Default)]
pub struct Chunker {
    /// The rate chunk being filled: wall ns, datagrams, bytes, batches.
    acc: (u64, u64, u64, usize),
    rates: Vec<(f64, f64)>,
    /// The latency chunk being filled.
    cur: Vec<f64>,
    /// The last full latency chunk, held back so a short remainder can
    /// join it.
    last: Vec<f64>,
    tails: Vec<(f64, f64)>,
    batches: usize,
}

impl Chunker {
    /// Record one batch: wall time since the previous one ended, its
    /// latency, and what it verified.
    pub fn push(&mut self, wall_ns: u64, latency_us: f64, dgrams: u64, bytes: u64) {
        self.batches += 1;
        self.acc.0 += wall_ns;
        self.acc.1 += dgrams;
        self.acc.2 += bytes;
        self.acc.3 += 1;
        if self.acc.3 == RATE_CHUNK {
            self.close_rate();
        }
        self.cur.push(latency_us);
        if self.cur.len() == MIN_BATCHES_FOR_P99 {
            if !self.last.is_empty() {
                self.tails.push(Self::percentiles(&mut self.last));
            }
            self.last = std::mem::take(&mut self.cur);
        }
    }

    /// Batches recorded so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    fn close_rate(&mut self) {
        let (ns, dgrams, bytes, _) = std::mem::take(&mut self.acc);
        let secs = ns as f64 / 1e9;
        self.rates
            .push((dgrams as f64 / secs, bytes as f64 / 1e6 / secs));
    }

    fn percentiles(lat: &mut [f64]) -> (f64, f64) {
        lat.sort_by(f64::total_cmp);
        (quantile(lat, 0.5), p99(lat))
    }

    /// Close the last chunks and take the medians. At least
    /// [`MIN_BATCHES_FOR_P99`] batches must have been recorded.
    pub fn finish(mut self) -> Summary {
        self.last.append(&mut self.cur);
        self.tails.push(Self::percentiles(&mut self.last));
        let med = |v: Vec<f64>| median(&v);
        Summary {
            dgrams_per_s: med(self.rates.iter().map(|r| r.0).collect()),
            goodput_mbps: med(self.rates.iter().map(|r| r.1).collect()),
            p50_us: med(self.tails.iter().map(|t| t.0).collect()),
            p99_us: med(self.tails.iter().map(|t| t.1).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_leaves_ten_samples_beyond_it() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(MIN_BATCHES_FOR_P99, 1000);
        // 1000 samples: rank 989 leaves exactly 10 above it.
        assert_eq!(p99(&samples(1000)), 989.0);
        // One fewer and the p99 rank would leave only 9.
        let s = samples(999);
        assert_eq!(s.iter().filter(|&&x| x > quantile(&s, 0.99)).count(), 9);
        for n in MIN_BATCHES_FOR_P99..3000 {
            let s = samples(n);
            let v = p99(&s);
            let beyond = s.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_SAMPLES_BEYOND, "n={n} beyond={beyond}");
        }
    }

    #[test]
    #[should_panic(expected = "a p99 needs")]
    fn p99_refuses_a_short_chunk() {
        p99(&[1.0; 999]);
    }

    #[test]
    fn stat_parsing_skips_names_with_spaces() {
        let line = "123 (fbs worker) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(stat_cpu_ns(line), Some(300 * NS_PER_TICK));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn chunker_merges_a_short_remainder_into_the_last_chunk() {
        let mut c = Chunker::default();
        // 2500 batches of 1 ms each carrying 8 datagrams of 10 bytes;
        // latency 10 us except for one 1000 us outlier per 100 batches.
        for i in 0..2500 {
            let lat = if i % 100 == 99 { 1000.0 } else { 10.0 };
            c.push(1_000_000, lat, 8, 80);
        }
        assert_eq!(c.batches(), 2500);
        let s = c.finish();
        assert!((s.dgrams_per_s - 8000.0).abs() < 1e-6);
        assert!((s.goodput_mbps - 0.08).abs() < 1e-9);
        assert_eq!(s.p50_us, 10.0);
        // Chunks of 1000 and 1500 batches: 10 and 15 outliers, so each
        // p99 leaves the outliers strictly beyond it.
        assert_eq!(s.p99_us, 10.0);
    }
}
