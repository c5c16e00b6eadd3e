//! Open-loop arrival schedules: seed-reproducible Poisson arrivals.
//!
//! **Closed-loop** load (N clients, each waiting for its response before
//! the next request) self-throttles at saturation — throughput plateaus,
//! latency looks flat, and the server never sees overload. **Open-loop**
//! load fixes the *arrival process* instead: session open requests fire
//! at exponentially distributed inter-arrival times (a Poisson stream of
//! a configured rate) regardless of how the server is doing. Past
//! saturation the backlog grows, tail latency explodes, and admission
//! sheds — exactly the regime the serving layer's backpressure exists
//! for, and the regime closed-loop benchmarks cannot reach.
//!
//! Arrival schedules are drawn by inverse-CDF sampling over a splitmix64
//! stream, so a (seed, rate, n) triple always produces the same schedule
//! — offered-load sweeps are reproducible run to run; only service times
//! vary with the host. The generator that drives a server with such a
//! schedule is the repo benchmark's (`benchmark/src/load.rs`).

use psme_rete::util::u01;

/// Exponential inter-arrival sample for a Poisson process of `rate`
/// events/second (inverse CDF; `u` in `[0, 1)`).
pub fn exp_interarrival(rate: f64, u: f64) -> f64 {
    -(1.0 - u).ln() / rate
}

/// Cumulative arrival times (seconds) for `n` Poisson arrivals at `rate`
/// per second, deterministic in `seed`.
pub fn poisson_arrivals(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seed;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += exp_interarrival(rate, u01(&mut rng));
            t
        })
        .collect()
}
