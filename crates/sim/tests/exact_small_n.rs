//! Exact small-n oracles for the engine.
//!
//! At n = 2 or 3 the whole system is a small continuous-time Markov
//! chain on the vector of queue lengths. Solving it exactly (with a
//! load cap whose neglected mass is below 1e−10) gives the finite-n
//! mean sojourn time W(n) by Little's law, with no mean-field limit and
//! no `c/n` slack. The engine must land within 4 standard errors of it
//! over 8 seeds. The same chain with the victim drawn among the *other*
//! n − 1 processors, a one-line change of semantics that n = 128 cannot
//! resolve, must lie more than 20 standard errors away: the check has
//! the power to see how the engine draws its victims.
//!
//! Two more oracles cover streams whose per-processor law is exact
//! without stealing (so processors do not mix): two speed classes, each
//! an M/M/1 queue at its own rate, and internal arrivals, a birth–death
//! chain with birth rate λ when idle and λ + λ_int when busy.

use loadsteal_sim::{replicate, SimConfig, SimResult, SpeedProfile, StealPolicy};

/// Seeds per engine estimate, and each run's simulated horizon.
const RUNS: usize = 8;
const HORIZON: f64 = 200_000.0;
const WARMUP: f64 = 1_000.0;
/// The engine must lie within this many standard errors of the exact
/// value...
const AGREE_SE: f64 = 4.0;
/// ...and farther than this from the chain with other semantics.
const POWER_SE: f64 = 20.0;
/// Largest probability mass the load cap may leave out.
const MAX_CAP_MASS: f64 = 1e-10;

/// How a thief draws its victim.
#[derive(Clone, Copy)]
enum Victims {
    /// Uniform over all n processors; a self-draw fails (the engine).
    All,
    /// Uniform over the other n − 1 processors.
    Others,
}

/// The stealing rule of the chain (victim threshold T = 2, one task).
#[derive(Clone, Copy)]
enum Steal {
    /// Steal once, when a completion empties the queue.
    OnEmpty,
    /// Also retry at this rate while empty.
    Repeated(f64),
}

const THRESHOLD: u32 = 2;

/// The n-processor chain with every load capped at `cap`, lumped over
/// permutations: a state is a non-increasing load vector.
struct Chain {
    n: usize,
    cap: u32,
    states: Vec<Vec<u32>>,
    /// Dense index of every load vector (base `cap + 1`) to its sorted
    /// state.
    index: Vec<u32>,
}

impl Chain {
    fn new(n: usize, cap: u32) -> Self {
        let base = cap as usize + 1;
        let mut states = Vec::new();
        let mut x = vec![0u32; n];
        loop {
            if x.windows(2).all(|w| w[0] >= w[1]) {
                states.push(x.clone());
            }
            // Odometer over [0, cap]^n.
            let mut i = 0;
            while i < n && x[i] == cap {
                x[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
            x[i] += 1;
        }
        // Low total load first: Gauss–Seidel then sweeps with the flow
        // of probability from the empty state outwards.
        states.sort_by_key(|s| s.iter().sum::<u32>());
        let mut chain = Self {
            n,
            cap,
            states,
            index: vec![u32::MAX; base.pow(n as u32)],
        };
        for (i, s) in chain.states.iter().enumerate() {
            let code = chain.code(s);
            chain.index[code] = i as u32;
        }
        let mut x = vec![0u32; n];
        loop {
            let mut sorted = x.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let code = chain.code(&x);
            chain.index[code] = chain.index[chain.code(&sorted)];
            let mut i = 0;
            while i < n && x[i] == cap {
                x[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
            x[i] += 1;
        }
        chain
    }

    fn code(&self, x: &[u32]) -> usize {
        let base = self.cap as usize + 1;
        x.iter().rev().fold(0, |acc, &v| acc * base + v as usize)
    }

    fn idx(&self, x: &[u32]) -> usize {
        self.index[self.code(x)] as usize
    }

    /// Outgoing transitions of state `s` as `(target, rate)`, self-loops
    /// left out.
    fn transitions(
        &self,
        s: usize,
        lambda: f64,
        steal: Steal,
        victims: Victims,
    ) -> Vec<(usize, f64)> {
        let x = &self.states[s];
        let mut out = Vec::new();
        for p in 0..self.n {
            if x[p] < self.cap {
                let mut y = x.clone();
                y[p] += 1;
                out.push((self.idx(&y), lambda));
            }
            if x[p] >= 1 {
                let mut y = x.clone();
                y[p] -= 1;
                if y[p] == 0 {
                    self.steal(&y, p, 1.0, victims, &mut out);
                } else {
                    out.push((self.idx(&y), 1.0));
                }
            }
            if let Steal::Repeated(r) = steal {
                if x[p] == 0 {
                    self.steal(x, p, r, victims, &mut out);
                }
            }
        }
        out.retain(|&(t, _)| t != s);
        out
    }

    /// Thief `p` of load vector `y` probes one victim, at total rate
    /// `rate`.
    fn steal(&self, y: &[u32], p: usize, rate: f64, victims: Victims, out: &mut Vec<(usize, f64)>) {
        let candidates: Vec<usize> = match victims {
            Victims::All => (0..self.n).collect(),
            Victims::Others => (0..self.n).filter(|&v| v != p).collect(),
        };
        let w = rate / candidates.len() as f64;
        for v in candidates {
            if v != p && y[v] >= THRESHOLD {
                let mut z = y.to_vec();
                z[v] -= 1;
                z[p] += 1;
                out.push((self.idx(&z), w));
            } else {
                out.push((self.idx(y), w));
            }
        }
    }

    /// Stationary law by Gauss–Seidel on πQ = 0; returns the exact mean
    /// sojourn time (Little's law) and the mass on states at the cap.
    fn solve(&self, lambda: f64, steal: Steal, victims: Victims) -> (f64, f64) {
        let m = self.states.len();
        let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut out_rate = vec![0.0; m];
        for (s, out) in out_rate.iter_mut().enumerate() {
            for (t, r) in self.transitions(s, lambda, steal, victims) {
                incoming[t].push((s, r));
                *out += r;
            }
        }
        let load: Vec<f64> = self
            .states
            .iter()
            .map(|x| x.iter().sum::<u32>() as f64)
            .collect();
        let mut pi = vec![1.0 / m as f64; m];
        let mean_load = |pi: &[f64]| pi.iter().zip(&load).map(|(p, l)| p * l).sum::<f64>();
        let mut last = f64::INFINITY;
        for sweep in 0.. {
            for j in 0..m {
                let inflow: f64 = incoming[j].iter().map(|&(i, r)| pi[i] * r).sum();
                pi[j] = inflow / out_rate[j];
            }
            let total: f64 = pi.iter().sum();
            pi.iter_mut().for_each(|p| *p /= total);
            if sweep % 20 == 19 {
                let l = mean_load(&pi);
                if (l - last).abs() < 1e-13 * l {
                    break;
                }
                last = l;
            }
            assert!(sweep < 200_000, "Gauss–Seidel did not settle");
        }
        let at_cap: f64 = self
            .states
            .iter()
            .zip(&pi)
            .filter(|(x, _)| x[0] == self.cap)
            .map(|(_, p)| p)
            .sum();
        (mean_load(&pi) / (self.n as f64 * lambda), at_cap)
    }
}

/// The engine's runs of `cfg`, seeded `seed, seed + 1, …`.
fn runs(cfg: &SimConfig, seed: u64) -> Vec<SimResult> {
    replicate(cfg, RUNS, seed).runs
}

/// Mean and standard error over the runs of `f(run)`.
fn estimate(runs: &[SimResult], f: impl Fn(&SimResult) -> f64) -> (f64, f64) {
    let xs: Vec<f64> = runs.iter().map(f).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, (var / xs.len() as f64).sqrt())
}

/// Tail `s_i` of one run.
fn tail(r: &SimResult, i: usize) -> f64 {
    r.load_tails.get(i).copied().unwrap_or(0.0)
}

fn engine_config(n: usize, lambda: f64, policy: StealPolicy) -> SimConfig {
    let mut cfg = SimConfig::paper_default(n, lambda);
    cfg.policy = policy;
    cfg.horizon = HORIZON;
    cfg.warmup = WARMUP;
    cfg
}

/// The engine's W against the exact chain and, when `power` is set,
/// against the chain whose victims exclude the thief.
fn check_chain(n: usize, cap: u32, steal: Steal, power: bool, seed: u64) {
    const LAMBDA: f64 = 0.7;
    let chain = Chain::new(n, cap);
    let (w, at_cap) = chain.solve(LAMBDA, steal, Victims::All);
    assert!(
        at_cap <= MAX_CAP_MASS,
        "n = {n}, cap {cap}: {at_cap:e} of the mass at the cap"
    );
    let policy = match steal {
        Steal::OnEmpty => StealPolicy::simple_ws(),
        Steal::Repeated(rate) => StealPolicy::Repeated {
            rate,
            threshold: THRESHOLD as usize,
        },
    };
    let (sim, se) = estimate(&runs(&engine_config(n, LAMBDA, policy), seed), |r| {
        r.mean_sojourn()
    });
    assert!(
        (sim - w).abs() <= AGREE_SE * se,
        "n = {n}: engine W {sim:.6} ± {se:.6} vs exact {w:.6} ({:.1} se)",
        (sim - w) / se
    );
    if power {
        let (alt, _) = chain.solve(LAMBDA, steal, Victims::Others);
        assert!(
            (sim - alt).abs() > POWER_SE * se,
            "n = {n}: engine W {sim:.6} ± {se:.6} cannot tell the exact {w:.6} from \
             the victims-among-others chain's {alt:.6}"
        );
    }
}

#[test]
fn simple_ws_at_two_processors_matches_the_exact_chain() {
    check_chain(2, 60, Steal::OnEmpty, true, 1);
}

#[test]
fn simple_ws_at_three_processors_matches_the_exact_chain() {
    check_chain(3, 60, Steal::OnEmpty, true, 11);
}

#[test]
fn repeated_steals_at_two_processors_match_the_exact_chain() {
    check_chain(2, 60, Steal::Repeated(1.0), false, 21);
}

/// Assert `sim ± se` covers `exact` within [`AGREE_SE`].
fn assert_agrees(what: &str, (sim, se): (f64, f64), exact: f64) {
    assert!(
        (sim - exact).abs() <= AGREE_SE * se,
        "{what}: engine {sim:.6} ± {se:.6} vs exact {exact:.6} ({:.1} se)",
        (sim - exact) / se
    );
}

#[test]
fn speed_classes_are_independent_mm1_queues() {
    // Half the processors serve at rate 2, half at rate 1; without
    // stealing each is an M/M/1 queue at its class rate.
    const LAMBDA: f64 = 0.7;
    let speeds = [2.0, 1.0];
    let mut cfg = engine_config(4, LAMBDA, StealPolicy::None);
    cfg.speeds = SpeedProfile::Classes(speeds.iter().map(|&s| (0.5, s)).collect());
    let w = speeds.iter().map(|&mu| 1.0 / (mu - LAMBDA)).sum::<f64>() / 2.0;
    let runs = runs(&cfg, 31);
    assert_agrees("speed classes W", estimate(&runs, |r| r.mean_sojourn()), w);
    for i in 1..=3 {
        let s = speeds.iter().map(|&mu| (LAMBDA / mu).powi(i)).sum::<f64>() / 2.0;
        let got = estimate(&runs, |r| tail(r, i as usize));
        assert_agrees(&format!("speed classes s_{i}"), got, s);
    }
}

#[test]
fn internal_arrivals_raise_the_birth_rate_of_busy_processors() {
    // Birth rate λ at load 0 and λ + λ_int above, death rate 1:
    // π_k = π_0 λ ρ^(k−1) for k ≥ 1, with ρ = λ + λ_int.
    const LAMBDA: f64 = 0.4;
    const INTERNAL: f64 = 0.3;
    let rho = LAMBDA + INTERNAL;
    let mut cfg = engine_config(4, LAMBDA, StealPolicy::None);
    cfg.internal_lambda = INTERNAL;
    let pi0 = 1.0 / (1.0 + LAMBDA / (1.0 - rho));
    let busy = 1.0 - pi0;
    let mean_load = pi0 * LAMBDA / (1.0 - rho).powi(2);
    let throughput = LAMBDA * pi0 + rho * busy;
    let runs = runs(&cfg, 41);
    assert_agrees(
        "internal arrivals W",
        estimate(&runs, |r| r.mean_sojourn()),
        mean_load / throughput,
    );
    for i in 1..=3 {
        let s = pi0 * LAMBDA * rho.powi(i - 1) / (1.0 - rho);
        let got = estimate(&runs, |r| tail(r, i as usize));
        assert_agrees(&format!("internal arrivals s_{i}"), got, s);
    }
}
