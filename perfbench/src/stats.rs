//! Sample summaries: the percentile rule, backlog detection, and the small
//! deterministic generator the workloads draw their inputs from.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `count`
/// samples; the epsilon keeps `99.9% of 10000` at 9990, not 9991.
fn rank(count: usize, p: f64) -> usize {
    (((p / 100.0) * count as f64 - 1e-9).ceil() as usize).clamp(1, count.max(1))
}

/// Value at percentile `p` (0..=100) of `sorted`, nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A timing summary under the percentile rule: the median, plus the highest
/// percentile that still has at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// Which percentile `tail` is (`None` when even the median has fewer
    /// than ten samples beyond it).
    pub tail_pct: Option<f64>,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let tail_pct = TAIL_PERCENTILES
            .iter()
            .copied()
            .find(|&p| beyond(count, p) >= TAIL_MIN_BEYOND);
        let p50 = median(&sorted);
        let tail = tail_pct.map_or(sorted[count - 1], |p| percentile(&sorted, p));
        Summary {
            count,
            p50,
            tail_pct,
            tail,
        }
    }

    /// Value at `p`, but only when the rule allows reporting it.
    pub fn at(samples: &[f64], p: f64) -> Option<f64> {
        if beyond(samples.len(), p) < TAIL_MIN_BEYOND {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(percentile(&sorted, p))
    }

    pub fn describe(&self, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "p50={:.4}{unit} p{p}={:.4}{unit} n={}",
                self.p50, self.tail, self.count
            ),
            None => format!(
                "p50={:.4}{unit} max={:.4}{unit} n={}",
                self.p50, self.tail, self.count
            ),
        }
    }
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(count: usize, p: f64) -> usize {
    count.saturating_sub(rank(count, p))
}

/// Samples per window of [`windowed`]: enough for a p99 with ten beyond.
pub const WINDOW: usize = 1000;

/// Percentile `p` reported as the median over consecutive windows of at
/// least [`WINDOW`] samples each, so one burst of stalls moves one window,
/// not the figure. Fewer than `WINDOW` samples make one window.
pub fn windowed(samples: &[f64], p: f64) -> f64 {
    let k = (samples.len() / WINDOW).max(1);
    let size = samples.len() / k;
    let per_window: Vec<f64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * size
            };
            let mut w = samples[i * size..end].to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect();
    median(&per_window)
}

/// Is the backlog growing over one open-loop rung? `latencies` are in send
/// order. A server that keeps up has the same latency at the end of a rung
/// as at its start; one that falls behind queues every later request
/// behind the earlier ones, so the last quarter's median climbs well past
/// the first quarter's.
pub fn backlog_growing(latencies_ms: &[f64]) -> bool {
    let quarter = latencies_ms.len() / 4;
    if quarter < TAIL_MIN_BEYOND {
        return false;
    }
    let first = median(&latencies_ms[..quarter]);
    let last = median(&latencies_ms[latencies_ms.len() - quarter..]);
    last > (2.0 * first).max(first + 2.0)
}

/// splitmix64: a tiny deterministic generator for the benchmark's own
/// choices (request mixes, patch targets), independent of the crates under
/// test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        // 99.9 leaves one sample beyond it, 99 leaves ten.
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.count, 1000);

        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&ten_thousand).tail_pct, Some(99.9));

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&hundred);
        assert_eq!(s.tail_pct, Some(90.0));
        assert_eq!(s.tail, 90.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.tail_pct, None);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(Summary::at(&[1.0; 500], 99.0), None);
        assert_eq!(Summary::at(&[1.0; 1000], 99.0), Some(1.0));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut rng = Rng::new(7);
        let mut samples: Vec<f64> = (0..2000).map(|_| rng.unit()).collect();
        let a = Summary::of(&samples);
        samples.reverse();
        assert_eq!(a, Summary::of(&samples));
    }

    #[test]
    fn one_bad_window_does_not_move_the_windowed_tail() {
        let mut rng = Rng::new(3);
        let mut samples: Vec<f64> = (0..3000).map(|_| 1.0 + rng.unit()).collect();
        let calm = windowed(&samples, 99.0);
        for x in &mut samples[100..200] {
            *x = 50.0;
        }
        // Plain p99 over all 3000 samples jumps to the stall...
        assert_eq!(Summary::at(&samples, 99.0), Some(50.0));
        // ...the median over three windows does not.
        let stalled = windowed(&samples, 99.0);
        assert!((stalled - calm).abs() < 0.05, "{calm} vs {stalled}");
        assert!(stalled < 2.0);
    }

    #[test]
    fn short_series_are_one_window() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed(&samples, 50.0), 50.0);
        assert_eq!(windowed(&samples, 99.0), 99.0);
        // 2500 samples make two windows of 1250.
        let long: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(windowed(&long, 50.0), (625.0 + 1875.0) / 2.0);
    }

    #[test]
    fn steady_latency_is_not_a_backlog() {
        let mut rng = Rng::new(1);
        let flat: Vec<f64> = (0..4000).map(|_| 0.2 + rng.unit()).collect();
        assert!(!backlog_growing(&flat));
        // A burst of slow replies in the middle is a tail, not a backlog.
        let mut spiky = flat.clone();
        for x in &mut spiky[1800..1900] {
            *x += 30.0;
        }
        assert!(!backlog_growing(&spiky));
    }

    #[test]
    fn queueing_behind_an_overloaded_server_is_a_backlog() {
        // Offered 1.5x capacity: every request waits for all earlier excess.
        let growing: Vec<f64> = (0..3000).map(|i| 0.3 + i as f64 * 0.01).collect();
        assert!(backlog_growing(&growing));
    }

    #[test]
    fn short_rungs_never_claim_a_backlog() {
        let growing: Vec<f64> = (0..30).map(|i| i as f64 * 10.0).collect();
        assert!(!backlog_growing(&growing));
    }
}
