//! Measurement collection: per-task sojourn times, steal counters, and a
//! time-weighted load histogram for comparing against the mean-field
//! tails `s_i`.

use loadsteal_obs::Digest;
use loadsteal_queueing::OnlineStats;

/// Time-weighted histogram of processor loads.
///
/// Maintains `count[l]` = number of processors currently holding `l`
/// tasks and integrates each count over post-warmup time, so that
/// `fraction(l)` estimates the stationary `p_l` and [`Self::tails`]
/// estimates the paper's `s_i`.
#[derive(Debug, Clone)]
pub struct LoadHistogram {
    warmup: f64,
    bins: Vec<Bin>,
    end_time: f64,
}

/// One load level's occupancy state. Kept together (not parallel
/// arrays) because transitions touch two *adjacent* levels: one struct
/// line usually covers both.
#[derive(Debug, Clone, Copy)]
struct Bin {
    /// Processors currently at this load.
    count: u64,
    /// Post-warmup time integral of `count`.
    integral: f64,
    /// Last time this bin's integral was settled.
    last: f64,
}

impl LoadHistogram {
    /// Create a histogram for `n` processors all starting at load
    /// `initial`, measuring from `warmup` onwards.
    pub fn new(n: usize, initial: usize, warmup: f64) -> Self {
        let mut bins = vec![
            Bin {
                count: 0,
                integral: 0.0,
                last: warmup,
            };
            (initial + 1).max(8)
        ];
        bins[initial].count = n as u64;
        Self {
            warmup,
            bins,
            end_time: warmup,
        }
    }

    fn ensure_len(&mut self, load: usize) {
        if load >= self.bins.len() {
            // New bins have held count 0 since the warmup boundary.
            self.bins.resize(
                load + 1,
                Bin {
                    count: 0,
                    integral: 0.0,
                    last: self.warmup,
                },
            );
        }
    }

    #[inline]
    fn settle(bin: &mut Bin, warmup: f64, t: f64) {
        if t > warmup {
            let since = if bin.last > warmup { bin.last } else { warmup };
            bin.integral += bin.count as f64 * (t - since);
        }
        bin.last = t;
    }

    /// Record one processor moving from load `from` to load `to` at
    /// time `t`.
    #[inline]
    pub fn transition(&mut self, from: usize, to: usize, t: f64) {
        if from == to {
            return;
        }
        self.ensure_len(from.max(to));
        let w = self.warmup;
        let b = &mut self.bins[from];
        Self::settle(b, w, t);
        debug_assert!(b.count > 0, "histogram underflow at load {from}");
        // A `from` bin at zero means the caller double-reported a
        // transition. That is a bug (caught above in debug builds), but
        // in release it must not wrap the counter to 2^64 and poison
        // every later integral — saturate instead.
        b.count = b.count.saturating_sub(1);
        let b = &mut self.bins[to];
        Self::settle(b, w, t);
        b.count += 1;
        if t > self.end_time {
            self.end_time = t;
        }
    }

    /// Close the measurement window at time `t`.
    pub fn finish(&mut self, t: f64) {
        let w = self.warmup;
        for bin in &mut self.bins {
            Self::settle(bin, w, t);
        }
        self.end_time = self.end_time.max(t);
    }

    /// Measured span (post-warmup time covered).
    pub fn span(&self) -> f64 {
        (self.end_time - self.warmup).max(0.0)
    }

    /// Time-averaged number of processors at each load.
    pub fn mean_counts(&self) -> Vec<f64> {
        let span = self.span();
        if span == 0.0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|b| b.integral / span).collect()
    }

    /// Instantaneous tail fractions `s_i` from the current counts (used
    /// for transient snapshots; no time averaging).
    pub fn instant_tails(&self, n: usize) -> Vec<f64> {
        let mut acc = 0u64;
        let mut tails = vec![0.0; self.bins.len() + 1];
        for (l, b) in self.bins.iter().enumerate().rev() {
            acc += b.count;
            tails[l] = acc as f64 / n as f64;
        }
        tails
    }

    /// Time-averaged tail fractions `s_i = fraction of processors with
    /// load ≥ i`, given the total processor count `n`.
    pub fn tails(&self, n: usize) -> Vec<f64> {
        let means = self.mean_counts();
        let mut acc = 0.0;
        let mut tails = vec![0.0; means.len() + 1];
        for (l, &m) in means.iter().enumerate().rev() {
            acc += m;
            tails[l] = acc / n as f64;
        }
        tails
    }
}

/// Counters and statistics from a single simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Sojourn time (arrival → completion) of post-warmup completions.
    pub sojourn: OnlineStats,
    /// Quantile digest of the same sojourn times, collected when
    /// [`crate::SimConfig::sojourn_digest`] is set (`None` otherwise).
    pub sojourn_digest: Option<Digest>,
    /// Total tasks that arrived (including pre-loaded ones).
    pub tasks_arrived: u64,
    /// Total tasks completed.
    pub tasks_completed: u64,
    /// Steal attempts (including failed ones and rebalance initiations).
    pub steal_attempts: u64,
    /// Steals that moved at least one task.
    pub steal_successes: u64,
    /// Tasks moved between processors by steals/rebalances.
    pub tasks_migrated: u64,
    /// Discrete events processed by the engine.
    pub events_processed: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Time-averaged tail fractions `s_i` (post-warmup).
    pub load_tails: Vec<f64>,
    /// Instantaneous tail snapshots `(t, s)` when
    /// `snapshot_interval` was set.
    pub snapshots: Vec<(f64, Vec<f64>)>,
    /// Time at which the run ended (horizon, or drain time).
    pub end_time: f64,
    /// Drain time when `run_until_drained` was set.
    pub makespan: Option<f64>,
    /// Seed that produced this run.
    pub seed: u64,
}

impl SimResult {
    /// Mean sojourn time of measured tasks.
    pub fn mean_sojourn(&self) -> f64 {
        self.sojourn.mean()
    }

    /// Fraction of steal attempts that succeeded (0 if none were made).
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_successes as f64 / self.steal_attempts as f64
        }
    }

    /// Engine throughput in events per wall-clock second (0 when the
    /// run was too fast to time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events_processed as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_constant_state() {
        let mut h = LoadHistogram::new(4, 0, 0.0);
        h.finish(10.0);
        let means = h.mean_counts();
        assert!((means[0] - 4.0).abs() < 1e-12);
        let tails = h.tails(4);
        assert!((tails[0] - 1.0).abs() < 1e-12);
        assert_eq!(tails[1], 0.0);
    }

    #[test]
    fn histogram_integrates_transitions() {
        let mut h = LoadHistogram::new(2, 0, 0.0);
        h.transition(0, 1, 5.0); // one proc at load 1 for the last half
        h.finish(10.0);
        let tails = h.tails(2);
        // s_1: one of two processors loaded for 5 of 10 seconds = 0.25.
        assert!((tails[1] - 0.25).abs() < 1e-12, "{tails:?}");
        assert!((tails[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_period_is_excluded() {
        let mut h = LoadHistogram::new(1, 0, 10.0);
        h.transition(0, 3, 2.0); // pre-warmup: loads still tracked
        h.finish(20.0);
        let tails = h.tails(1);
        // Load 3 held for the whole measured window.
        assert!((tails[3] - 1.0).abs() < 1e-12, "{tails:?}");
        assert!((h.span() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tails_are_non_increasing() {
        let mut h = LoadHistogram::new(3, 0, 0.0);
        h.transition(0, 1, 1.0);
        h.transition(0, 2, 2.0);
        h.transition(2, 1, 4.0);
        h.finish(8.0);
        let tails = h.tails(3);
        for w in tails.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "{tails:?}");
        }
    }

    #[test]
    fn histogram_grows_for_large_loads() {
        let mut h = LoadHistogram::new(1, 0, 0.0);
        h.transition(0, 100, 1.0);
        h.finish(2.0);
        assert!(h.tails(1)[100] > 0.0);
    }

    /// Release-build behaviour of a double-reported transition: the
    /// drained bin saturates at zero instead of wrapping to 2^64 and
    /// poisoning every subsequent time integral.
    #[test]
    #[cfg(not(debug_assertions))]
    fn underflow_saturates_in_release() {
        let mut h = LoadHistogram::new(1, 0, 0.0);
        h.transition(0, 1, 1.0);
        // Bogus second report of the same departure: load-0 bin is empty.
        h.transition(0, 1, 2.0);
        h.finish(10.0);
        let means = h.mean_counts();
        // The processor sat at load 0 for 1 of the 10 time units, then
        // the bogus report double-counts load 1 from t = 2: 1·1 + 2·8.
        // A wrapped load-0 counter would read ~1.5e19 after t = 2.
        assert_eq!(means[0], 0.1, "{means:?}");
        assert_eq!(means[1], 1.7, "{means:?}");
    }

    /// Debug-build twin of `underflow_saturates_in_release`: the same
    /// misuse is caught loudly by the debug assertion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "histogram underflow")]
    fn underflow_panics_in_debug() {
        let mut h = LoadHistogram::new(1, 0, 0.0);
        h.transition(0, 1, 1.0);
        h.transition(0, 1, 2.0);
    }

    fn result_with_steals(attempts: u64, successes: u64) -> SimResult {
        SimResult {
            sojourn: OnlineStats::new(),
            sojourn_digest: None,
            tasks_arrived: 0,
            tasks_completed: 0,
            steal_attempts: attempts,
            steal_successes: successes,
            tasks_migrated: 0,
            events_processed: 0,
            wall_ms: 0.0,
            load_tails: Vec::new(),
            snapshots: Vec::new(),
            end_time: 0.0,
            makespan: None,
            seed: 0,
        }
    }

    #[test]
    fn steal_success_rate_divides_successes_by_attempts() {
        assert_eq!(result_with_steals(8, 2).steal_success_rate(), 0.25);
        assert_eq!(result_with_steals(5, 5).steal_success_rate(), 1.0);
    }

    #[test]
    fn steal_success_rate_with_no_attempts_is_zero() {
        let r = result_with_steals(0, 0);
        assert_eq!(r.steal_success_rate(), 0.0);
        assert!(r.steal_success_rate().is_finite());
    }

    #[test]
    fn events_per_sec_handles_untimed_runs() {
        let mut r = result_with_steals(0, 0);
        assert_eq!(r.events_per_sec(), 0.0);
        r.events_processed = 500;
        r.wall_ms = 250.0;
        assert_eq!(r.events_per_sec(), 2000.0);
    }
}
