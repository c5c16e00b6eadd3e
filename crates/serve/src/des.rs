//! Deterministic discrete-event model of the serving loop.
//!
//! The host running this reproduction has far fewer cores than the sweep
//! the paper-style figures need (1–13 workers), so — exactly like the
//! Multimax simulator in `psme-sim` does for match parallelism — serving
//! throughput is swept on a model: K workers, one logical ready queue,
//! round-robin slices, per-cycle service times supplied by the caller
//! (derived from captured real traces). Everything is exact arithmetic
//! over the inputs; no randomness, no wall clock — the same inputs always
//! produce the same figures.
//!
//! The model's simplifications relative to [`crate::serve`]: a single
//! FIFO ready queue ordered by ready time (ties broken by session index),
//! and a constant per-dispatch overhead standing in for the scheduler's
//! queue traffic. Relative throughput across worker counts — the quantity
//! the `serve_throughput` figures report — is insensitive to both.
//!
//! There is **one** event loop (the private `run`) and one result type,
//! [`DesResult`]; the four public entry points are configurations of it,
//! like the paper's single- and multi-queue matchers are settings of one
//! PSM-E (a batch is every arrival at t=0 into an unbounded table):
//!
//! | entry point                | shards | dispatch bus | tier | arrivals |
//! |----------------------------|--------|--------------|------|----------|
//! | [`simulate_serve`]         | 1      | not modeled  | —    | batch    |
//! | [`simulate_serve_tiered`]  | 1      | not modeled  | yes  | batch    |
//! | [`simulate_serve_sharded`] | N      | serialized   | —    | batch    |
//! | [`simulate_serve_open`]    | N      | serialized   | —    | open     |

use psme_ops::util::u01;
use std::collections::VecDeque;

/// Model configuration.
#[derive(Clone, Copy, Debug)]
pub struct DesConfig {
    /// Worker count (the sweep variable).
    pub workers: usize,
    /// Decision cycles per dispatch slice.
    pub slice: usize,
    /// Seconds of dispatch overhead per slice (queue pop + handoff).
    pub dispatch_overhead: f64,
}

/// What tells the four serving models apart. Private: every public entry
/// point sets every field, so no caller can ask for a fifth combination.
struct Model<'a> {
    /// Worker pools; session `s` homes on pool `s % shards`.
    shards: usize,
    /// A pool whose ready list is empty may take another pool's slice.
    steal: bool,
    /// A dispatch holds its home shard's bus for the overhead window, so
    /// dispatches of one shard serialize. Off, the overhead is paid on the
    /// worker alone and dispatches overlap freely.
    bus: bool,
    /// Bounded residency with a resume cost on re-entry.
    tier: Option<&'a DesTierConfig>,
    /// Open arrivals (one time per session) and their admission bounds;
    /// `None` is the batch.
    open: Option<(&'a [f64], &'a DesOpenConfig)>,
}

/// Model outputs: everything one run of the event loop produces. A field
/// the configuration does not model stays zero (no resumes without a tier,
/// no steals without stealing, no shed in a batch).
#[derive(Clone, Debug, Default)]
pub struct DesResult {
    /// Time the last session retired (seconds).
    pub makespan: f64,
    /// Retired sessions per second of makespan.
    pub sessions_per_sec: f64,
    /// Sessions that ran to completion.
    pub completed: usize,
    /// Sessions shed by admission backpressure.
    pub shed: usize,
    /// Retire time per session, input order (seconds; 0 for a shed session).
    pub completions: Vec<f64>,
    /// Retire − arrival per retired session, input order (seconds) — the
    /// open-loop latency curve's raw samples.
    pub sojourn: Vec<f64>,
    /// Per-cycle latency samples (slice queue wait + own service time),
    /// seconds; quantile them with `psme_obs::Quantiles`.
    pub cycle_latency: Vec<f64>,
    /// One sample per resume: the modeled resume latency, seconds.
    pub resume_latency: Vec<f64>,
    /// Dispatches served by a worker outside the session's home shard.
    pub cross_shard_steals: u64,
    /// Hibernations forced by the hot bound.
    pub hibernations: u64,
    /// Dispatches that paid a resume (= hibernations of sessions later
    /// dispatched again).
    pub resumes: u64,
}

/// The event loop. Each step takes the globally earliest of (a) the next
/// arrival and (b) the earliest possible dispatch: for each home shard's
/// earliest-ready session (FIFO by ready time, index tie-break), its own
/// pool's earliest-free worker and — when stealing is on — that of every
/// pool whose own ready list is empty. Ties prefer the home pool, then
/// (home, thief) order, so the schedule is a pure function of the inputs.
fn run(sessions: &[Vec<f64>], cfg: &DesConfig, m: &Model) -> DesResult {
    let n = sessions.len();
    let mut out = DesResult::default();
    if n == 0 {
        return out;
    }
    let wps = cfg.workers.max(1);
    let nshards = m.shards.max(1);
    let workers = nshards * wps;
    let slice = cfg.slice.max(1);

    // Arrival times (jittered: the wire reorders closely spaced arrivals)
    // and the per-shard slices of the table and admission-queue bounds.
    let mut arrived = vec![0.0f64; n];
    let (mut cap_s, mut depth_s) = (usize::MAX, 0);
    if let Some((arrivals, open)) = m.open {
        let mut rng = open.seed;
        for (eff, &a) in arrived.iter_mut().zip(arrivals) {
            *eff = a + open.jitter * u01(&mut rng);
        }
        cap_s = open.table_capacity.max(1).div_ceil(nshards);
        depth_s = open.admission_depth.div_ceil(nshards);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (arrived[a], a).partial_cmp(&(arrived[b], b)).expect("finite times"));

    // Per-shard ready lists: (ready_time, session, next_cycle). A session
    // that takes a table seat goes straight onto its home list.
    let mut ready: Vec<Vec<(f64, usize, usize)>> = vec![Vec::new(); nshards];
    let mut waiting: Vec<VecDeque<usize>> = vec![VecDeque::new(); nshards];
    let mut live = vec![0usize; nshards];
    let mut worker_free = vec![0.0f64; workers];
    // When each shard's dispatch bus frees up (stays 0 when not modeled).
    let mut bus_free = vec![0.0f64; nshards];
    // Residency: (session, last-dispatch virtual time).
    let mut hot: Vec<(usize, f64)> = Vec::new();
    let mut done: Vec<Option<f64>> = vec![None; n];
    let mut next_arrival = 0usize;
    let mut left = n;
    while left > 0 {
        // (bus_start, stolen, home, thief, ready index, worker); the first
        // four order the candidates, (home, thief) fixes the last two.
        let mut best: Option<(f64, bool, usize, usize, usize, usize)> = None;
        for h in 0..nshards {
            let Some((ci, &(ready_t, ..))) = ready[h].iter().enumerate().min_by(|a, b| {
                (a.1 .0, a.1 .1).partial_cmp(&(b.1 .0, b.1 .1)).expect("finite times")
            }) else {
                continue;
            };
            for (t, pool) in ready.iter().enumerate() {
                if t != h && !(m.steal && pool.is_empty()) {
                    continue;
                }
                let wi = (t * wps..(t + 1) * wps)
                    .min_by(|a, b| {
                        worker_free[*a].partial_cmp(&worker_free[*b]).expect("finite times")
                    })
                    .expect("wps >= 1");
                let key = (worker_free[wi].max(ready_t).max(bus_free[h]), t != h, h, t, ci, wi);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        // Arrivals at or before the candidate dispatch go first: an
        // arrival can only make an earlier dispatch possible.
        if next_arrival < n && best.is_none_or(|b| arrived[order[next_arrival]] <= b.0) {
            let s = order[next_arrival];
            next_arrival += 1;
            let (t, h) = (arrived[s], s % nshards);
            if live[h] < cap_s {
                live[h] += 1;
                ready[h].push((t, s, 0));
            } else {
                // Full table: wait; a backlog past the depth sheds the oldest.
                waiting[h].push_back(s);
                if waiting[h].len() > depth_s {
                    waiting[h].pop_front();
                    out.shed += 1;
                    left -= 1;
                }
            }
            continue;
        }
        let (bus_start, stolen, h, _, ci, wi) = best.expect("left > 0 implies work or arrivals");
        let (ready_t, s, first) = ready[h].swap_remove(ci);
        let mut start = bus_start + cfg.dispatch_overhead;
        if m.bus {
            bus_free[h] = start;
        }
        if stolen {
            out.cross_shard_steals += 1;
        }
        if let Some(tier) = m.tier {
            if let Some(entry) = hot.iter_mut().find(|(r, _)| *r == s) {
                entry.1 = start;
            } else {
                // Take a seat, evicting the least-recently-dispatched
                // resident (virtual-time LRU, index tie-break) if full.
                if hot.len() >= tier.hot_capacity.max(1) {
                    let vi = (0..hot.len())
                        .min_by(|&a, &b| {
                            (hot[a].1, hot[a].0).partial_cmp(&(hot[b].1, hot[b].0)).expect("finite")
                        })
                        .expect("hot nonempty");
                    hot.swap_remove(vi);
                    out.hibernations += 1;
                }
                hot.push((s, start));
                if first > 0 {
                    // Re-entry replays the journal of the cycles already run.
                    let cost = tier.resume_base + tier.resume_per_cycle * first as f64;
                    out.resumes += 1;
                    out.resume_latency.push(cost);
                    start += cost;
                }
            }
        }
        let wait = start - ready_t;
        let cycles = &sessions[s];
        let last = (first + slice).min(cycles.len());
        let mut t = start;
        for &c in &cycles[first..last] {
            t += c;
            out.cycle_latency.push(wait + c);
        }
        worker_free[wi] = t;
        if last < cycles.len() {
            // Affinity: re-enqueue on the home shard even after a steal.
            ready[h].push((t, s, last));
        } else {
            done[s] = Some(t);
            left -= 1;
            hot.retain(|(r, _)| *r != s);
            // The retired session's seat goes to the oldest waiting one.
            match waiting[h].pop_front() {
                Some(v) => ready[h].push((t, v, 0)),
                None => live[h] -= 1,
            }
        }
    }
    out.completed = n - out.shed;
    out.makespan = done.iter().flatten().cloned().fold(0.0, f64::max);
    if out.makespan > 0.0 {
        out.sessions_per_sec = out.completed as f64 / out.makespan;
    }
    out.sojourn = (0..n).filter_map(|s| done[s].map(|t| t - arrived[s])).collect();
    out.completions = done.into_iter().map(|t| t.unwrap_or(0.0)).collect();
    out
}

/// Simulate serving `sessions` (one inner `Vec<f64>` of per-cycle service
/// seconds each) on `cfg.workers` workers. All sessions arrive at t=0.
pub fn simulate_serve(sessions: &[Vec<f64>], cfg: &DesConfig) -> DesResult {
    run(sessions, cfg, &Model { shards: 1, steal: false, bus: false, tier: None, open: None })
}

/// Sharding parameters for the model ([`simulate_serve_sharded`]).
#[derive(Clone, Copy, Debug)]
pub struct DesShardConfig {
    /// Worker pools ([`DesConfig::workers`] is **per shard**, so the sweep
    /// reaches `shards x workers` logical workers). Sessions route home by
    /// index mod `shards` (the model's sessions are anonymous; the real
    /// loop hashes names).
    pub shards: usize,
    /// Let a shard whose ready list is empty steal a queued slice from
    /// another shard — through the *victim's* dispatch bus, like the real
    /// `steal_foreign` path takes the victim's queue locks.
    pub steal: bool,
}

/// Simulate sharded serving: `shards` pools of `cfg.workers` workers, each
/// pool owning the sessions `s` with `s % shards == pool`, each with its
/// own **serialized dispatch bus** — every dispatch (pop + handoff) holds
/// the home shard's bus for `dispatch_overhead` seconds, so one shard's
/// dispatch rate saturates at `1 / dispatch_overhead` no matter how many
/// workers it has. That is the single-bus contention knee; sharding
/// multiplies the aggregate bus bandwidth. Deterministic: a pure function
/// of the inputs.
pub fn simulate_serve_sharded(
    sessions: &[Vec<f64>],
    cfg: &DesConfig,
    shard: &DesShardConfig,
) -> DesResult {
    let m = Model { shards: shard.shards, steal: shard.steal, bus: true, tier: None, open: None };
    run(sessions, cfg, &m)
}

/// Tiering parameters for the model ([`simulate_serve_tiered`]).
///
/// Resume cost models the real store: a snapshot replays its whole op
/// journal, so the cost grows with the cycles the session has already
/// executed — `resume_base + resume_per_cycle × cycles_done`.
#[derive(Clone, Copy, Debug)]
pub struct DesTierConfig {
    /// Max sessions resident at once (the hot table bound).
    pub hot_capacity: usize,
    /// Fixed resume cost (frame verify, shell decode), seconds.
    pub resume_base: f64,
    /// Journal-replay cost per already-executed cycle, seconds.
    pub resume_per_cycle: f64,
}

/// Simulate tiered serving: same dispatch model as [`simulate_serve`], but
/// at most `tier.hot_capacity` sessions are resident; dispatching a
/// non-resident session evicts the least-recently-dispatched resident one
/// (virtual-time LRU, index tie-break) and pays the modeled resume cost on
/// the worker's timeline. Deterministic: a pure function of the inputs.
pub fn simulate_serve_tiered(
    sessions: &[Vec<f64>],
    cfg: &DesConfig,
    tier: &DesTierConfig,
) -> DesResult {
    run(sessions, cfg, &Model { shards: 1, steal: false, bus: false, tier: Some(tier), open: None })
}

/// Open-loop arrival parameters for the model ([`simulate_serve_open`]).
#[derive(Clone, Copy, Debug)]
pub struct DesOpenConfig {
    /// Worker pools ([`DesConfig::workers`] is per shard); sessions route
    /// home by index mod `shards`, each pool with its own serialized
    /// dispatch bus, like [`simulate_serve_sharded`].
    pub shards: usize,
    /// Cross-shard stealing through the victim's bus.
    pub steal: bool,
    /// Global table bound, split ceil-wise across shards — arrivals past a
    /// full shard slice wait.
    pub table_capacity: usize,
    /// Global admission-queue bound, split ceil-wise; overflow sheds the
    /// *oldest* waiting arrival (the real loop's shed-oldest policy).
    pub admission_depth: usize,
    /// Max network jitter added to each arrival, seconds (uniform in
    /// `[0, jitter)`, drawn deterministically from `seed`). Models the
    /// wire between the load generator and the acceptor.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

/// Simulate **open-loop** serving: session `i` (service cycles
/// `sessions[i]`) arrives at `arrivals[i]` seconds plus deterministic
/// jitter, and the arrival process never slows down for the server — the
/// definition of offered load. Admission is the real loop's two-stage
/// policy scaled per shard: a free table seat admits immediately, else the
/// arrival waits, and a backlog past the depth slice sheds the oldest
/// waiting session. Dispatch is [`simulate_serve_sharded`]'s model (per
/// shard serialized bus, optional stealing). Deterministic: a pure
/// function of the inputs.
pub fn simulate_serve_open(
    sessions: &[Vec<f64>],
    arrivals: &[f64],
    cfg: &DesConfig,
    open: &DesOpenConfig,
) -> DesResult {
    assert_eq!(sessions.len(), arrivals.len(), "one arrival time per session");
    let m = Model {
        shards: open.shards,
        steal: open.steal,
        bus: true,
        tier: None,
        open: Some((arrivals, open)),
    };
    run(sessions, cfg, &m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_ops::util::splitmix64;

    fn uniform(n: usize, cycles: usize, c: f64) -> Vec<Vec<f64>> {
        (0..n).map(|_| vec![c; cycles]).collect()
    }

    #[test]
    fn single_session_single_worker_is_sum_of_cycles() {
        let r = simulate_serve(
            &uniform(1, 10, 0.5),
            &DesConfig { workers: 1, slice: 4, dispatch_overhead: 0.0 },
        );
        assert!((r.makespan - 5.0).abs() < 1e-12, "{}", r.makespan);
        assert_eq!(r.cycle_latency.len(), 10);
    }

    #[test]
    fn k_workers_scale_independent_sessions_linearly() {
        // 8 identical sessions, no overhead: 8 workers finish in the time
        // 1 worker needs for one session.
        let sessions = uniform(8, 20, 0.1);
        let cfg1 = DesConfig { workers: 1, slice: 20, dispatch_overhead: 0.0 };
        let cfg8 = DesConfig { workers: 8, slice: 20, dispatch_overhead: 0.0 };
        let r1 = simulate_serve(&sessions, &cfg1);
        let r8 = simulate_serve(&sessions, &cfg8);
        assert!((r8.makespan - 2.0).abs() < 1e-9, "{}", r8.makespan);
        assert!((r1.makespan - 16.0).abs() < 1e-9, "{}", r1.makespan);
        assert!((r8.sessions_per_sec / r1.sessions_per_sec - 8.0).abs() < 1e-9);
    }

    #[test]
    fn queue_wait_shows_up_in_latency() {
        // Two sessions, one worker: the second session's first slice waits
        // for the first session's slice.
        let sessions = uniform(2, 2, 1.0);
        let r = simulate_serve(
            &sessions,
            &DesConfig { workers: 1, slice: 2, dispatch_overhead: 0.0 },
        );
        assert_eq!(r.cycle_latency.len(), 4);
        let max_lat = r.cycle_latency.iter().cloned().fold(0.0, f64::max);
        assert!((max_lat - 3.0).abs() < 1e-12, "waited 2s + 1s service, got {max_lat}");
    }

    #[test]
    fn deterministic() {
        let sessions: Vec<Vec<f64>> =
            (0..5).map(|i| (0..7).map(|j| 0.01 * ((i * 7 + j) as f64 + 1.0)).collect()).collect();
        let cfg = DesConfig { workers: 3, slice: 2, dispatch_overhead: 0.001 };
        let a = simulate_serve(&sessions, &cfg);
        let b = simulate_serve(&sessions, &cfg);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.cycle_latency, b.cycle_latency);
    }

    #[test]
    fn sharded_is_deterministic_and_scales_linearly_without_contention() {
        let sessions = uniform(8, 20, 0.1);
        let cfg = DesConfig { workers: 1, slice: 20, dispatch_overhead: 0.0 };
        let sh4 = DesShardConfig { shards: 4, steal: false };
        let a = simulate_serve_sharded(&sessions, &cfg, &sh4);
        let b = simulate_serve_sharded(&sessions, &cfg, &sh4);
        assert_eq!(a.completions, b.completions);
        // 8 sessions over 4 one-worker pools, 2 each, no overhead: 4x one
        // pool's throughput.
        let sh1 = DesShardConfig { shards: 1, steal: false };
        let one = simulate_serve_sharded(&sessions, &cfg, &sh1);
        assert!((one.makespan / a.makespan - 4.0).abs() < 1e-9, "{}", a.makespan);
    }

    #[test]
    fn dispatch_bus_is_the_knee_and_sharding_moves_it() {
        // Service so short the bus dominates: each dispatch costs 0.05 s of
        // bus time for 0.1 s of work, so one bus feeds at most 2 workers.
        let mk = |n: usize| uniform(n, 16, 0.1);
        let run = |shards: usize, wps: usize| {
            let cfg = DesConfig { workers: wps, slice: 1, dispatch_overhead: 0.05 };
            simulate_serve_sharded(&mk(64), &cfg, &DesShardConfig { shards, steal: false })
        };
        // The bus feeds one 0.1 s cycle per 0.05 s hold, and a worker is
        // occupied 0.15 s per cycle (its own dispatch + service), so the
        // knee sits at 0.15/0.05 = 3 workers. Below it, workers scale;
        // past it, they buy nothing.
        let w2 = run(1, 2);
        let w4 = run(1, 4);
        let w16 = run(1, 16);
        assert!(
            w16.sessions_per_sec < w4.sessions_per_sec * 1.1,
            "single bus saturated past the knee: {} vs {}",
            w16.sessions_per_sec,
            w4.sessions_per_sec
        );
        assert!(
            w16.sessions_per_sec < w2.sessions_per_sec * 2.0,
            "8x the workers, < 2x the throughput: {} vs {}",
            w16.sessions_per_sec,
            w2.sessions_per_sec
        );
        // Four buses lift the ceiling ~4x at the same logical worker count.
        let s4 = run(4, 4);
        assert!(
            s4.sessions_per_sec >= w16.sessions_per_sec * 3.0,
            "4 shards past the knee: {} vs {}",
            s4.sessions_per_sec,
            w16.sessions_per_sec
        );
    }

    #[test]
    fn cross_shard_stealing_fills_idle_pools() {
        // Shard 0 homes two long sessions on one worker, shard 1 a short
        // one; after shard 1 drains, shard 0 always has a queued slice its
        // busy worker can't take, so shard 1's idle worker steals it.
        let sessions = vec![vec![0.1; 40], vec![0.1; 2], vec![0.1; 40]];
        let cfg = DesConfig { workers: 1, slice: 2, dispatch_overhead: 0.001 };
        let idle = simulate_serve_sharded(
            &sessions,
            &cfg,
            &DesShardConfig { shards: 2, steal: false },
        );
        let steal =
            simulate_serve_sharded(&sessions, &cfg, &DesShardConfig { shards: 2, steal: true });
        assert_eq!(idle.cross_shard_steals, 0);
        assert!(steal.cross_shard_steals > 0, "idle pool must steal");
        assert!(steal.makespan < idle.makespan, "stealing shortens the tail");
    }

    #[test]
    fn tiered_with_ample_capacity_matches_untiered() {
        // Hot capacity covering the population ⇒ no evictions, no resume
        // cost: identical completion times.
        let sessions = uniform(4, 10, 0.2);
        let cfg = DesConfig { workers: 2, slice: 3, dispatch_overhead: 0.01 };
        let base = simulate_serve(&sessions, &cfg);
        let tier = DesTierConfig { hot_capacity: 4, resume_base: 1.0, resume_per_cycle: 1.0 };
        let t = simulate_serve_tiered(&sessions, &cfg, &tier);
        assert_eq!(t.hibernations, 0);
        assert_eq!(t.resumes, 0);
        assert_eq!(t.completions, base.completions);
    }

    #[test]
    fn pressure_forces_hibernation_and_resume_cost_shows_in_makespan() {
        let sessions = uniform(6, 8, 0.1);
        let cfg = DesConfig { workers: 1, slice: 2, dispatch_overhead: 0.0 };
        let tier_free =
            DesTierConfig { hot_capacity: 2, resume_base: 0.0, resume_per_cycle: 0.0 };
        let tier_costly =
            DesTierConfig { hot_capacity: 2, resume_base: 0.5, resume_per_cycle: 0.05 };
        let free = simulate_serve_tiered(&sessions, &cfg, &tier_free);
        let costly = simulate_serve_tiered(&sessions, &cfg, &tier_costly);
        assert!(free.hibernations > 0, "6 sessions through 2 seats must evict");
        assert!(free.resumes > 0);
        assert_eq!(free.hibernations, costly.hibernations, "cost does not change LRU order");
        // Zero-cost resumes reduce to the untiered schedule.
        let base = simulate_serve(&sessions, &cfg);
        assert!((free.makespan - base.makespan).abs() < 1e-9);
        // Costly resumes are exactly the per-resume penalties on one worker.
        let paid: f64 = costly.resume_latency.iter().sum();
        assert!((costly.makespan - (base.makespan + paid)).abs() < 1e-9);
        // Resume cost grows with executed cycles (journal replay).
        let first = costly.resume_latency.first().copied().unwrap();
        let last = costly.resume_latency.last().copied().unwrap();
        assert!(last > first, "later resumes replay longer journals");
    }

    fn open_cfg(shards: usize, cap: usize, depth: usize) -> DesOpenConfig {
        DesOpenConfig {
            shards,
            steal: false,
            table_capacity: cap,
            admission_depth: depth,
            jitter: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn open_loop_under_light_load_completes_everything() {
        // Arrivals far apart relative to service: every session finds an
        // idle server, sojourn = own service (+ dispatch overhead).
        let sessions = uniform(4, 4, 0.1);
        let arrivals: Vec<f64> = (0..4).map(|i| i as f64 * 10.0).collect();
        let cfg = DesConfig { workers: 1, slice: 4, dispatch_overhead: 0.0 };
        let r = simulate_serve_open(&sessions, &arrivals, &cfg, &open_cfg(1, 2, 8));
        assert_eq!(r.shed, 0);
        assert_eq!(r.completed, 4);
        for &s in &r.sojourn {
            assert!((s - 0.4).abs() < 1e-9, "idle server: sojourn = service, got {s}");
        }
    }

    #[test]
    fn open_loop_is_deterministic_including_jitter() {
        let sessions = uniform(12, 6, 0.2);
        let arrivals: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect();
        let cfg = DesConfig { workers: 2, slice: 3, dispatch_overhead: 0.01 };
        let mut open = open_cfg(2, 4, 2);
        open.jitter = 0.05;
        let a = simulate_serve_open(&sessions, &arrivals, &cfg, &open);
        let b = simulate_serve_open(&sessions, &arrivals, &cfg, &open);
        assert_eq!(a.sojourn, b.sojourn);
        assert_eq!(a.cycle_latency, b.cycle_latency);
        assert_eq!(a.shed, b.shed);
        // A different seed draws different jitter, shifting arrivals.
        let mut open2 = open;
        open2.seed = 8;
        let c = simulate_serve_open(&sessions, &arrivals, &cfg, &open2);
        assert_ne!(a.sojourn, c.sojourn);
    }

    #[test]
    fn open_loop_sheds_oldest_past_saturation_and_is_monotone_in_load() {
        // One worker, 1 s of service per session: offered load beyond
        // 1 session/s must shed, and more load sheds more.
        let n = 24;
        let sessions = uniform(n, 1, 1.0);
        let cfg = DesConfig { workers: 1, slice: 1, dispatch_overhead: 0.0 };
        let open = open_cfg(1, 1, 2);
        let shed_at = |ia: f64| {
            let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * ia).collect();
            simulate_serve_open(&sessions, &arrivals, &cfg, &open).shed
        };
        let light = shed_at(2.0);
        let knee = shed_at(1.0);
        let over = shed_at(0.5);
        let crush = shed_at(0.25);
        assert_eq!(light, 0, "half the capacity never sheds");
        assert!(over > knee, "past saturation the backlog overflows: {over} vs {knee}");
        assert!(crush >= over, "shed rate is monotone in offered load");
        let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let r = simulate_serve_open(&sessions, &arrivals, &cfg, &open);
        assert_eq!(r.sojourn.len(), r.completed);
        assert_eq!(r.completed + r.shed, n);
    }

    #[test]
    fn open_loop_sojourn_tail_grows_with_offered_load() {
        let n = 16;
        let sessions = uniform(n, 2, 0.5);
        let cfg = DesConfig { workers: 1, slice: 2, dispatch_overhead: 0.0 };
        let open = open_cfg(1, 4, 16);
        let p_max = |ia: f64| {
            let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * ia).collect();
            let r = simulate_serve_open(&sessions, &arrivals, &cfg, &open);
            assert_eq!(r.shed, 0, "depth 16 absorbs this backlog");
            r.sojourn.iter().cloned().fold(0.0, f64::max)
        };
        assert!(p_max(0.5) > p_max(2.0), "queueing delay shows up in the sojourn tail");
    }

    #[test]
    fn open_loop_sharding_lifts_the_saturation_knee() {
        // Service 1 s, arrivals every 0.5 s: one pool saturates (sheds),
        // two pools with the same per-shard worker count keep up.
        let n = 20;
        let sessions = uniform(n, 1, 1.0);
        let cfg = DesConfig { workers: 1, slice: 1, dispatch_overhead: 0.0 };
        let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let one = simulate_serve_open(&sessions, &arrivals, &cfg, &open_cfg(1, 2, 1));
        let two = simulate_serve_open(&sessions, &arrivals, &cfg, &open_cfg(2, 2, 2));
        assert!(one.shed > 0, "one pool over capacity must shed");
        assert_eq!(two.shed, 0, "two pools carry the same offered load");
    }

    #[test]
    fn dispatch_overhead_slows_small_slices_more() {
        let sessions = uniform(4, 16, 0.1);
        let small = simulate_serve(
            &sessions,
            &DesConfig { workers: 2, slice: 1, dispatch_overhead: 0.05 },
        );
        let large = simulate_serve(
            &sessions,
            &DesConfig { workers: 2, slice: 8, dispatch_overhead: 0.05 },
        );
        assert!(small.makespan > large.makespan);
    }

    #[test]
    fn open_loop_with_batch_arrivals_and_ample_table_is_the_sharded_model() {
        let sessions: Vec<Vec<f64>> = (0..11)
            .map(|i| (0..(i % 5 + 1)).map(|j| 0.01 * (i + j + 1) as f64).collect())
            .collect();
        let cfg = DesConfig { workers: 2, slice: 2, dispatch_overhead: 0.003 };
        for (shards, steal) in [(1, false), (3, false), (3, true)] {
            let mut open = open_cfg(shards, sessions.len() * shards, sessions.len());
            open.steal = steal;
            let o = simulate_serve_open(&sessions, &vec![0.0; sessions.len()], &cfg, &open);
            let s = simulate_serve_sharded(&sessions, &cfg, &DesShardConfig { shards, steal });
            assert_eq!((o.completed, o.shed), (sessions.len(), 0));
            assert_eq!(o.sojourn, s.completions, "arrival at 0: sojourn = completion");
            assert_eq!(o.cycle_latency, s.cycle_latency);
            assert_eq!(o.cross_shard_steals, s.cross_shard_steals);
        }
    }

    #[test]
    fn one_shard_without_overhead_is_the_plain_model() {
        // With no overhead the bus is never held, so the only difference
        // between the two models vanishes.
        let sessions: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..(i % 4 + 2)).map(|j| 0.02 * (2 * i + j + 1) as f64).collect())
            .collect();
        let cfg = DesConfig { workers: 3, slice: 2, dispatch_overhead: 0.0 };
        let plain = simulate_serve(&sessions, &cfg);
        let one =
            simulate_serve_sharded(&sessions, &cfg, &DesShardConfig { shards: 1, steal: false });
        assert_eq!(plain.completions, one.completions);
        assert_eq!(plain.cycle_latency, one.cycle_latency);
    }

    /// Everything a model run reports, flattened for one checksum.
    #[derive(Default)]
    struct Digest(Vec<u8>);

    impl Digest {
        fn word(&mut self, x: u64) {
            self.0.extend_from_slice(&x.to_le_bytes());
        }
        fn floats(&mut self, xs: &[f64]) {
            self.word(xs.len() as u64);
            xs.iter().for_each(|x| self.word(x.to_bits()));
        }
    }

    /// 400 seeded cases per model (0–39 sessions of 0–9 cycles, 1–5
    /// workers, 1–4 shards, steal on/off, zero and non-zero overhead, hot
    /// capacity / table 1–6, depth 0–4, jitter on/off). The four digests
    /// were recorded, with these fields, from the model as it stood before
    /// it stopped writing an event trace: the schedules did not move.
    #[test]
    fn seeded_cases_reproduce_the_recorded_digests() {
        let mut rng = 0x5eed_u64;
        let mut pick =
            |lo: usize, hi: usize| lo + (splitmix64(&mut rng) % (hi - lo + 1) as u64) as usize;
        let mut d: [Digest; 4] = Default::default();
        for _ in 0..400 {
            let n = pick(0, 39);
            let sessions: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..pick(0, 9)).map(|_| pick(1, 500) as f64 * 1e-4).collect())
                .collect();
            let cfg = DesConfig {
                workers: pick(1, 5),
                slice: pick(1, 4),
                dispatch_overhead: pick(0, 3) as f64 * 2.5e-4,
            };
            let (shards, steal) = (pick(1, 4), pick(0, 1) == 1);

            let r = simulate_serve(&sessions, &cfg);
            d[0].floats(&r.completions);
            d[0].floats(&r.cycle_latency);
            d[0].floats(&[r.makespan, r.sessions_per_sec]);

            let r = simulate_serve_sharded(&sessions, &cfg, &DesShardConfig { shards, steal });
            d[1].floats(&r.completions);
            d[1].floats(&r.cycle_latency);
            d[1].word(r.cross_shard_steals);
            d[1].floats(&[r.makespan, r.sessions_per_sec]);

            let tier = DesTierConfig {
                hot_capacity: pick(1, 6),
                resume_base: pick(0, 2) as f64 * 1e-3,
                resume_per_cycle: pick(0, 2) as f64 * 1e-4,
            };
            let r = simulate_serve_tiered(&sessions, &cfg, &tier);
            d[2].floats(&r.completions);
            d[2].floats(&r.resume_latency);
            d[2].word(r.hibernations);
            d[2].word(r.resumes);
            d[2].floats(&[r.makespan, r.sessions_per_sec]);

            let arrivals: Vec<f64> = (0..n).map(|_| pick(0, 200) as f64 * 1e-3).collect();
            let open = DesOpenConfig {
                shards,
                steal,
                table_capacity: pick(1, 6),
                admission_depth: pick(0, 4),
                jitter: pick(0, 1) as f64 * 5e-3,
                seed: pick(0, 1 << 20) as u64,
            };
            let r = simulate_serve_open(&sessions, &arrivals, &cfg, &open);
            d[3].floats(&r.sojourn);
            d[3].floats(&r.cycle_latency);
            d[3].word(r.completed as u64);
            d[3].word(r.shed as u64);
            d[3].word(r.cross_shard_steals);
            d[3].floats(&[r.makespan, r.sessions_per_sec]);
        }
        assert_eq!(
            d.map(|d| psme_rete::snapshot::fnv1a64(&d.0)),
            [
                3173584154219479636,
                13480543530416279705,
                1082126000548947680,
                17989849574192074477,
            ],
            "plain / sharded / tiered / open digests moved: the dispatch model changed"
        );
    }
}
