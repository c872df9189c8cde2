//! Measurement plumbing every workload shares: quantiles that carry
//! their sample counts, the fixed-count closed-loop runner, the
//! process's peak resident memory, a host fingerprint, and the small
//! seeded generator and hash the workloads build on.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One quantile of a sample and what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The value at the chosen rank.
    pub value: f64,
    /// Samples the estimate was taken from.
    pub n: usize,
    /// Samples ranked above the chosen one.
    pub beyond: usize,
}

impl Quantile {
    /// Whether at least ten samples lie beyond this quantile, the least
    /// a reported percentile may rest on.
    pub fn reportable(&self) -> bool {
        self.beyond >= 10
    }
}

/// The sample whose 1-based rank is nearest `p·n` (clamped to
/// `1..=n`) in an ascending, non-empty slice. Unlike the ceiling rank,
/// this never hands back the maximum as a high percentile of a small
/// sample, and [`Quantile::beyond`] says how far out the estimate is.
pub fn quantile(sorted: &[f64], p: f64) -> Quantile {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = ((p * n as f64).round() as usize).clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// The median of a non-empty sample (mean of the middle pair when the
/// count is even), as Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (its default "exclusive" method), for at least two
/// values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let len = s.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One request's outcome in a closed loop.
#[derive(Debug)]
pub struct Sample<R> {
    /// The client that issued the request.
    pub client: usize,
    /// When the issuing call began.
    pub start: Instant,
    /// Wall time of the issuing call alone.
    pub latency: Duration,
    /// What the settle step made of the reply.
    pub value: R,
}

/// A finished closed-loop pass.
#[derive(Debug)]
pub struct Pass<R> {
    /// One sample per request, in request order.
    pub samples: Vec<Sample<R>>,
}

/// Requests per second over a run of samples: each client's count over
/// its own span from first request to last reply, summed over clients.
/// Clients drift apart in request index over a pass, so one span over
/// all of them would stretch with the drift.
pub fn throughput<R>(samples: &[Sample<R>]) -> f64 {
    let mut spans: BTreeMap<usize, (usize, Instant, Instant)> = BTreeMap::new();
    for s in samples {
        let end = s.start + s.latency;
        let span = spans.entry(s.client).or_insert((0, s.start, end));
        *span = (span.0 + 1, span.1.min(s.start), span.2.max(end));
    }
    spans
        .values()
        .map(|&(count, first, last)| count as f64 / (last - first).as_secs_f64())
        .sum()
}

/// Durations in ascending order, in milliseconds.
pub fn sorted_ms(durations: impl IntoIterator<Item = Duration>) -> Vec<f64> {
    let mut ms: Vec<f64> = durations
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Issues requests `0..n` from one thread per client in a closed loop:
/// client `c` owns requests `c, c+k, c+2k, …` (`k` clients) and sends
/// each only after the previous reply is back. `issue` is the timed
/// call; `settle` digests its output outside the timed span. All
/// clients start together.
pub fn closed_loop<C, T, R>(
    clients: &mut [C],
    n: usize,
    issue: impl Fn(&mut C, usize) -> T + Sync,
    settle: impl Fn(usize, T) -> R + Sync,
) -> Pass<R>
where
    C: Send,
    R: Send,
{
    let k = clients.len();
    assert!(k > 0, "a closed loop needs a client");
    let start = Barrier::new(k);
    let (issue, settle, start) = (&issue, &settle, &start);
    let per_client: Vec<Vec<Sample<R>>> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n / k + 1);
                    start.wait();
                    for i in (c..n).step_by(k) {
                        let start = Instant::now();
                        let raw = issue(client, i);
                        let latency = start.elapsed();
                        out.push(Sample {
                            client: c,
                            start,
                            latency,
                            value: settle(i, raw),
                        });
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut iters: Vec<_> = per_client.into_iter().map(Vec::into_iter).collect();
    let samples = (0..n)
        .map(|i| iters[i % k].next().expect("every client issued its share"))
        .collect();
    Pass { samples }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed line `{line}`"))?;
    Ok(kb as f64 / 1024.0)
}

/// What the numbers were measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Threads the OS lets this process run at once.
    pub nproc: usize,
    /// `git rev-parse HEAD` of the working directory, or `unknown`
    /// outside a git checkout.
    pub git_rev: String,
}

/// The host fingerprint. Git is asked only when the working directory
/// holds a `.git`, so nothing above it is read.
pub fn host() -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    Host { nproc, git_rev }
}

/// The splitmix64 generator every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x0BE1_C4A5_5E1D_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a, the hash replies are folded with.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a number.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.write(bytes);
        h.finish()
    }
}

/// Folds per-request hashes, in request order, into a run's
/// `result_digest`.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> String {
    let mut h = Fnv::default();
    for v in hashes {
        h.write_u64(v);
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p50_and_p90_at_pinned_sizes() {
        for (n, p50, p90, beyond90) in [
            (10, 5.0, 9.0, 1),
            (100, 50.0, 90.0, 10),
            (1000, 500.0, 900.0, 100),
        ] {
            let s = ramp(n);
            let q50 = quantile(&s, 0.5);
            let q90 = quantile(&s, 0.9);
            assert_eq!((q50.value, q50.n), (p50, n), "p50 at n={n}");
            assert_eq!((q90.value, q90.beyond), (p90, beyond90), "p90 at n={n}");
            assert_eq!(q90.reportable(), n >= 100, "ten beyond p90 at n={n}");
        }
    }

    #[test]
    fn p99_of_56_samples_is_not_the_maximum() {
        let s = ramp(56);
        // The ceiling rank `ceil(n·p) − 1` picks index 55, the maximum.
        let ceiling = s[((56.0f64 * 0.99).ceil() as usize).max(1) - 1];
        assert_eq!(ceiling, 56.0);
        let q = quantile(&s, 0.99);
        assert_eq!(q.value, 55.0);
        assert_eq!(q.beyond, 1);
        assert!(!q.reportable(), "one sample beyond is too few to report");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_issues_each_request_once_in_order() {
        let mut clients = vec![0u32; 3];
        let pass = closed_loop(
            &mut clients,
            10,
            |calls, i| {
                *calls += 1;
                i * 2
            },
            |i, doubled| (i, doubled),
        );
        assert_eq!(clients.iter().sum::<u32>(), 10);
        assert_eq!(clients, vec![4, 3, 3]);
        for (i, s) in pass.samples.iter().enumerate() {
            assert_eq!(s.value, (i, i * 2));
        }
    }

    #[test]
    fn throughput_spans_first_request_to_last_reply() {
        let t0 = Instant::now();
        let at = |client: usize, start_ms: u64, latency_ms: u64| Sample {
            client,
            start: t0 + Duration::from_millis(start_ms),
            latency: Duration::from_millis(latency_ms),
            value: (),
        };
        let samples = [at(0, 0, 10), at(0, 10, 10), at(0, 20, 30), at(0, 50, 50)];
        assert!(
            (throughput(&samples) - 40.0).abs() < 1e-9,
            "4 replies in 100 ms"
        );
        assert_eq!(
            sorted_ms(samples.iter().map(|s| s.latency)),
            vec![10.0, 10.0, 30.0, 50.0]
        );
        // A second client running 1 s behind adds its own rate, not the gap.
        let lagged = [
            at(0, 0, 50),
            at(0, 50, 50),
            at(1, 1_000, 50),
            at(1, 1_050, 50),
        ];
        assert!((throughput(&lagged) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Ok(2.0));
        assert!(parse_vm_hwm("Name:\tbench\n").is_err());
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn rng_is_seeded_and_digest_is_order_sensitive() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([1, 2]), digest([1, 2]));
    }
}
