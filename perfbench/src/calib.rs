//! The calibration kernel: a fixed mix of work written in this package,
//! so it stays the same across commits of the crates it measures.
//!
//! Timing on a shared host swings by 15–25 % over tens of seconds as
//! co-tenants load the caches and memory (measured; see README.md), far
//! more than the run-to-run spread a regression gate can absorb. The
//! swings move similar code by similar factors, so each batch is timed
//! against kernel slices run just before and after it on as many
//! threads as the batch uses. A change to the crates moves the batch
//! and not the kernel; a co-tenant moves both.

use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Events simulated, numbers formatted and parsed, and matrix order per
/// slice, sized to about 30 ms on a 2020s server core.
const EVENTS: usize = 150_000;
const NUMBERS: usize = 60_000;
const ORDER: usize = 120;

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn exp(&mut self) -> f64 {
        -self.unit().ln()
    }
}

/// A heap-ordered simulation of 64 M/M/1 queues with steal-on-empty.
fn events(rng: &mut Xorshift) -> u64 {
    const N: usize = 64;
    let mut queue = [0u32; N];
    let mut heap = BinaryHeap::with_capacity(2 * N);
    for p in 0..N {
        heap.push((std::cmp::Reverse((rng.exp() * 1e6) as u64), p, true));
    }
    let mut moved = 0;
    for _ in 0..EVENTS {
        let (std::cmp::Reverse(t), p, arrival) = heap.pop().expect("one event per queue");
        let next = |rate: f64, rng: &mut Xorshift| t + (rng.exp() / rate * 1e6) as u64;
        if arrival {
            queue[p] += 1;
            if queue[p] == 1 {
                heap.push((std::cmp::Reverse(next(1.0, rng)), p, false));
            }
            heap.push((std::cmp::Reverse(next(0.9, rng)), p, true));
        } else {
            queue[p] -= 1;
            let victim = (rng.next() % N as u64) as usize;
            if queue[p] == 0 && queue[victim] >= 2 {
                queue[victim] -= 1;
                queue[p] = 1;
                moved += 1;
            }
            if queue[p] > 0 {
                heap.push((std::cmp::Reverse(next(1.0, rng)), p, false));
            }
        }
    }
    moved
}

/// Numbers formatted as JSON-like lines, then parsed back, a kilobyte-
/// sized chunk at a time so the kernel holds no large buffer (which
/// would show in the workloads' peak RSS).
fn text(rng: &mut Xorshift) -> f64 {
    const CHUNK: usize = 1024;
    let mut s = String::with_capacity(CHUNK * 32);
    let mut sum = 0.0;
    for chunk in 0..NUMBERS / CHUNK {
        s.clear();
        for i in 0..CHUNK {
            let _ = writeln!(
                s,
                "{{\"t\":{},\"p\":{}}}",
                rng.unit() * 1e3,
                (chunk + i) % 128
            );
        }
        sum += s
            .lines()
            .filter_map(|l| l.split([':', ',']).nth(1)?.parse::<f64>().ok())
            .sum::<f64>();
    }
    sum
}

/// Gaussian elimination on a diagonally dominant dense matrix.
fn dense(rng: &mut Xorshift) -> f64 {
    let n = ORDER;
    let mut a: Vec<f64> = (0..n * n)
        .map(|i| rng.unit() + if i % (n + 1) == 0 { n as f64 } else { 0.0 })
        .collect();
    for k in 0..n {
        let pivot = a[k * n + k];
        for r in k + 1..n {
            let f = a[r * n + k] / pivot;
            for c in k..n {
                a[r * n + c] -= f * a[k * n + c];
            }
        }
    }
    (0..n).map(|k| a[k * n + k].ln()).sum()
}

/// One of the three parts of copy `i / 3` of the kernel.
fn part(i: usize) {
    let mut rng = Xorshift(0x9E37_79B9 + 2 * (i / 3) as u64 + 1);
    match i % 3 {
        0 => drop(black_box(events(&mut rng))),
        1 => drop(black_box(text(&mut rng))),
        _ => drop(black_box(dense(&mut rng))),
    }
}

/// Wall seconds of one kernel slice. On more than one thread the slice
/// is `2 × threads` copies whose parts the threads pull from a shared
/// counter, the way a batch's items fan out over a pool: a core that
/// is slow or taken away slows the slice as it slows the batch.
pub fn time_slice(threads: usize) -> f64 {
    let t = Instant::now();
    if threads <= 1 {
        (0..3).for_each(part);
    } else {
        let parts = 3 * 2 * threads;
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= parts {
                        break;
                    }
                    part(i);
                });
            }
        });
    }
    t.elapsed().as_secs_f64()
}
