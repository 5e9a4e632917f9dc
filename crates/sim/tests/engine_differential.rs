//! Differential equivalence of the two engines over randomized
//! configurations.
//!
//! The zoo presets are covered by the `engine` verify layer
//! (trace-hash equality on every quick-tier preset); this suite covers
//! the cross-product the presets don't reach — random policies ×
//! service laws × sizes × loads × seeds — and asserts the heap and
//! calendar engines agree on every observable of the run, bit for
//! bit. Any drift between the two future-event lists (a tie broken
//! differently, an event lost in a bucket rebuild, a cursor skipping a
//! window) shows up as a counter or a sojourn-moment mismatch here
//! long before it would move a statistical check.
//!
//! The lists order only the timed events: exponential completions,
//! Poisson arrivals, internal arrivals and retries ride the engine's
//! superposed clock and never enter them. So every case here keeps a
//! timed stream — a non-exponential service law, or Erlang arrivals
//! beside exponential service — or the two engines would agree
//! trivially.

use proptest::prelude::*;

use loadsteal_queueing::ServiceDistribution;
use loadsteal_sim::{run, EngineKind, SimConfig, SimResult, StealPolicy};

fn arb_policy() -> impl Strategy<Value = StealPolicy> {
    prop_oneof![
        Just(StealPolicy::None),
        (2usize..6, 1usize..3).prop_map(|(t, d)| StealPolicy::OnEmpty {
            threshold: t,
            choices: d,
            batch: 1,
        }),
        (4usize..8).prop_map(|t| StealPolicy::OnEmpty {
            threshold: t,
            choices: 1,
            batch: t / 2,
        }),
        (0usize..2, 2usize..3).prop_map(|(b, extra)| StealPolicy::Preemptive {
            begin_at: b,
            rel_threshold: b + extra,
        }),
        (0.5f64..4.0, 2usize..4).prop_map(|(r, t)| StealPolicy::Repeated {
            rate: r,
            threshold: t,
        }),
    ]
}

fn arb_service() -> impl Strategy<Value = ServiceDistribution> {
    prop_oneof![
        Just(ServiceDistribution::unit_exponential()),
        arb_timed_service(),
    ]
}

/// Service laws whose completions stay on the timed list.
fn arb_timed_service() -> impl Strategy<Value = ServiceDistribution> {
    prop_oneof![
        Just(ServiceDistribution::unit_deterministic()),
        (2u32..12).prop_map(ServiceDistribution::unit_erlang),
    ]
}

/// Every observable of a run, with floats at bit granularity.
fn fingerprint(r: &SimResult) -> (Vec<u64>, Vec<u64>) {
    let counters = vec![
        r.tasks_arrived,
        r.tasks_completed,
        r.tasks_migrated,
        r.steal_attempts,
        r.steal_successes,
        r.sojourn.count(),
    ];
    let mut floats: Vec<u64> = r.load_tails.iter().map(|t| t.to_bits()).collect();
    floats.push(r.mean_sojourn().to_bits());
    if r.sojourn.count() > 0 {
        floats.push(r.sojourn.min().to_bits());
        floats.push(r.sojourn.max().to_bits());
    }
    floats.push(r.makespan.unwrap_or(-1.0).to_bits());
    (counters, floats)
}

fn run_with(cfg: &SimConfig, seed: u64, engine: EngineKind) -> SimResult {
    let mut cfg = cfg.clone();
    cfg.engine = engine;
    run(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_configs(
        n in 2usize..24,
        lambda in 0.2f64..0.9,
        policy in arb_policy(),
        service in arb_service(),
        arrival_stages in 2u32..6,
        seed in any::<u64>(),
    ) {
        let mut cfg = SimConfig::paper_default(n, lambda);
        cfg.policy = policy;
        if service == ServiceDistribution::unit_exponential() {
            // Erlang arrivals of mean 1/λ put the arrivals on the
            // timed list, between the clock's completions.
            cfg.arrival = Some(ServiceDistribution::Erlang {
                stages: arrival_stages,
                rate: arrival_stages as f64 * lambda,
            });
        }
        cfg.service = service;
        cfg.horizon = 600.0;
        cfg.warmup = 60.0;
        let heap = run_with(&cfg, seed, EngineKind::Heap);
        let cal = run_with(&cfg, seed, EngineKind::Calendar);
        prop_assert_eq!(fingerprint(&heap), fingerprint(&cal));
    }

    /// Drained runs exercise the queue's emptying tail (the cursor
    /// hunting across ever-sparser windows) — the regime where a
    /// calendar bug would drop the final events and change makespan.
    /// Their completions are timed, so the list is what drains.
    #[test]
    fn engines_agree_on_drained_runs(
        n in 2usize..12,
        initial in 1usize..12,
        policy in arb_policy(),
        service in arb_timed_service(),
        seed in any::<u64>(),
    ) {
        let mut cfg = SimConfig::paper_default(n, 0.0);
        cfg.lambda = 0.0;
        cfg.policy = policy;
        cfg.service = service;
        cfg.run_until_drained = true;
        cfg.initial_load = initial;
        cfg.warmup = 0.0;
        let heap = run_with(&cfg, seed, EngineKind::Heap);
        let cal = run_with(&cfg, seed, EngineKind::Calendar);
        prop_assert_eq!(heap.tasks_completed, cal.tasks_completed);
        prop_assert_eq!(
            heap.makespan.map(f64::to_bits),
            cal.makespan.map(f64::to_bits)
        );
        prop_assert_eq!(fingerprint(&heap), fingerprint(&cal));
    }
}
