//! Criterion micro-benchmarks for the substrates: derivative evaluation
//! throughput, fixed-point solves, and simulator event throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::{MeanFieldModel, Rebalance, RebalanceRateFn, SimpleWs, TransferWs};
use loadsteal_core::ModelSpec;
use loadsteal_obs::CountingRecorder;
use loadsteal_ode::{AdaptiveOptions, DormandPrince45, OdeSystem};
use loadsteal_sim::{replicate, run, run_recorded, SimConfig};

fn bench_deriv(c: &mut Criterion) {
    let mut g = c.benchmark_group("deriv");
    let simple = SimpleWs::new(0.95).unwrap();
    let y = simple.closed_form_tails().into_vec();
    let mut dy = vec![0.0; y.len()];
    g.bench_function("simple_ws_dim_~500", |b| {
        b.iter(|| simple.deriv(0.0, black_box(&y), &mut dy))
    });
    let transfer = TransferWs::new(0.9, 0.25, 4).unwrap();
    let yt = transfer.empty_state();
    let mut dyt = vec![0.0; yt.len()];
    g.bench_function("transfer_ws", |b| {
        b.iter(|| transfer.deriv(0.0, black_box(&yt), &mut dyt))
    });
    let reb = Rebalance::new(0.9, RebalanceRateFn::Constant(1.0)).unwrap();
    let yr = SimpleWs::new(0.9).unwrap().closed_form_tails().into_vec();
    let yr = {
        let mut v = yr;
        v.resize(reb.dim(), 0.0);
        v
    };
    let mut dyr = vec![0.0; yr.len()];
    g.bench_function("rebalance_quadratic", |b| {
        b.iter(|| reb.deriv(0.0, black_box(&yr), &mut dyr))
    });
    g.finish();
}

fn bench_integrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("integrate");
    g.sample_size(10);
    let m = SimpleWs::new(0.9).unwrap();
    g.bench_function("simple_ws_to_t100", |b| {
        b.iter_batched(
            || {
                (
                    m.empty_state(),
                    DormandPrince45::new(AdaptiveOptions::default()),
                )
            },
            |(mut y, mut dp)| {
                dp.integrate(&m, 0.0, 100.0, &mut y).unwrap();
                y
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("simple_ws_fixed_point", |b| {
        b.iter(|| solve(&m, &FixedPointOptions::default()).unwrap())
    });
    // Registry presets whose polish the Jacobian's structure decides: a
    // 20-stage band with dense s₁, s₂ columns, and two interleaved
    // blocks (queued and in-transit tasks).
    for (name, preset) in [
        ("erlang_service_fixed_point", "erlang-service"),
        ("transfer_fixed_point", "transfer"),
    ] {
        let model = ModelSpec::parse(preset).unwrap().mean_field().unwrap();
        g.bench_function(name, |b| {
            b.iter(|| solve(&model, &FixedPointOptions::default()).unwrap())
        });
    }
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let mut cfg = SimConfig::paper_default(128, 0.9);
    cfg.horizon = 500.0;
    cfg.warmup = 50.0;
    // ~115k events per iteration at these settings.
    g.bench_function("simple_ws_n128_500s", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run(&cfg, seed)
        })
    });
    // The same run with tail sampling on a 5 s grid into a counting
    // recorder: the price of the transient observatory when enabled.
    // The disabled path is the bench above — `sample_tails = None` is
    // the default — so the pair bounds the feature's overhead.
    let mut sampled = cfg.clone();
    sampled.sample_tails = Some(5.0);
    g.bench_function("simple_ws_n128_500s_sampled", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut rec = CountingRecorder::new();
            run_recorded(&sampled, seed, &mut rec);
            rec
        })
    });
    // Large-n throughput on the calendar engine (the default): 65 536
    // processors over a short horizon is ~2.4 M events per iteration,
    // dominated by event-list churn at a pending-set size no heap-era
    // protocol ever reached. Guards the scalable-core claim — SoA
    // state, O(1) victim sampling, calendar scheduling — at a size
    // where an O(log n) or allocation regression is unmissable.
    let mut big = SimConfig::paper_default(65_536, 0.9);
    big.horizon = 20.0;
    big.warmup = 2.0;
    g.bench_function("simple_ws_n65536_20s", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run(&big, seed)
        })
    });
    g.finish();
}

/// Replication fan-out on the real work-stealing executor: the same
/// 8-run replicate pinned to a 1-worker and an 8-worker pool. The
/// runs are independent and seeded per index, so the pair measures
/// pure executor speedup (results are bit-identical — asserted in
/// `crates/sim/tests/replicate_parallel.rs`). On a single-CPU host
/// the two land within noise of each other; the fan-out shows on
/// machines with spare cores, so treat the committed snapshot numbers
/// as a 1-CPU floor, not the parallel ceiling (docs/executor.md §5.3).
fn bench_replicate(c: &mut Criterion) {
    let mut g = c.benchmark_group("replicate");
    g.sample_size(10);
    let mut cfg = SimConfig::paper_default(64, 0.9);
    cfg.horizon = 300.0;
    cfg.warmup = 30.0;
    let runs = 8;
    let seq = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    g.bench_function("simple_ws_n64_8runs_1w", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            seq.install(|| replicate(&cfg, runs, seed))
        })
    });
    let par = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap();
    g.bench_function("simple_ws_n64_8runs_8w", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            par.install(|| replicate(&cfg, runs, seed))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_deriv,
    bench_integrate,
    bench_simulator,
    bench_replicate
);
criterion_main!(benches);
