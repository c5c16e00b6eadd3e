//! The tiered session store: hot → warm → durable.
//!
//! A serving host cannot keep a `MatchState` + overlay resident for every
//! session it is responsible for — the session population can be orders of
//! magnitude larger than the memory the table affords. The store keeps at
//! most `hot_capacity` sessions live; the rest exist as snapshots
//! ([`crate::session::Session::hibernate`]): **warm** (snapshot bytes in
//! memory, bounded by `warm_capacity`) or **durable** (snapshot files in
//! `durable_dir`). Eviction is LRU by a logical clock that ticks once per
//! store operation, so the eviction order is a pure function of the
//! dispatch order — deterministic whenever the dispatch order is.
//!
//! Concurrency: one mutex around the whole tier state. Every transition
//! (checkout, checkin, evict, spill, retire) is atomic under it; in
//! particular a victim is chosen, encoded and demoted in one critical
//! section, so no other worker can pop a half-hibernated session. The
//! expensive *resume* half (frame verify + journal replay) runs outside
//! the lock: checkout marks the slot `Running` — giving the caller
//! exclusive ownership — and hands back the snapshot bytes to decode at
//! leisure. The store takes no lock but its own, and a worker calling in
//! holds at most the slot lock of the session it is claiming or putting
//! back.

use crate::session::Session;
use psme_obs::Quantiles;
use std::path::PathBuf;
use std::sync::Mutex;

/// Tiering configuration ([`crate::ServeConfig::tier`]; `None` disables
/// the store entirely and serving runs the original non-journaled path).
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Max hibernated snapshots held in memory; overflow demotes the
    /// least-recently-used warm snapshot to the durable tier.
    pub warm_capacity: usize,
    /// Directory for durable snapshot files. `None` keeps every snapshot
    /// warm regardless of `warm_capacity` (no disk tier).
    pub durable_dir: Option<PathBuf>,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig { warm_capacity: 1 << 20, durable_dir: None }
    }
}

/// Where one session currently lives.
enum TierSlot {
    /// Accepted, never yet dispatched (built lazily on first checkout).
    Unstarted,
    /// Live in the table, between slices.
    Hot(Box<Session>),
    /// Checked out by a worker (the worker owns the `Session`).
    Running,
    /// Hibernated: snapshot bytes in memory.
    Warm(Vec<u8>),
    /// Hibernated: snapshot file on disk.
    Durable(PathBuf),
    /// Completed.
    Retired,
}

/// Which snapshot tier a resume came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ResumeTier {
    /// In-memory snapshot bytes.
    Warm,
    /// Snapshot file read back from disk.
    Durable,
}

/// What [`SessionStore::checkout`] hands a worker.
pub(crate) enum Checkout {
    /// First dispatch: build the session fresh (journaled).
    Start,
    /// The session was hot; here it is.
    Live(Box<Session>),
    /// The session is hibernated: verify + replay these bytes.
    Resume(Vec<u8>, ResumeTier),
}

/// Evictions a checkout forced, for the caller's trace ring:
/// `(session, snapshot_bytes)` per hibernation, plus sessions whose warm
/// snapshot spilled to the durable tier.
#[derive(Default)]
pub(crate) struct Evictions {
    pub(crate) hibernated: Vec<(u32, usize)>,
    pub(crate) spilled: Vec<u32>,
}

/// Tier counters surfaced through [`crate::ServeReport`].
#[derive(Clone, Debug, Default)]
pub struct TierReport {
    /// Sessions hibernated out of the table (eviction count, not unique).
    pub hibernated: u64,
    /// Hibernated sessions resumed on a later dispatch.
    pub resumed: u64,
    /// Resumes served from in-memory snapshot bytes.
    pub warm_resumes: u64,
    /// Resumes that read a snapshot file back from disk.
    pub durable_resumes: u64,
    /// Warm snapshots demoted to durable files.
    pub spilled: u64,
    /// Most sessions simultaneously hot or running.
    pub peak_hot: usize,
    /// Total snapshot bytes encoded across all hibernations.
    pub snapshot_bytes_total: u64,
    /// Resume latency (frame verify + journal replay + shell restore), ns.
    pub resume_latency: Quantiles,
}

impl TierReport {
    /// Serialize for artifacts.
    pub fn to_json(&self) -> psme_obs::Json {
        use psme_obs::Json;
        Json::obj([
            ("hibernated", Json::from(self.hibernated)),
            ("resumed", Json::from(self.resumed)),
            ("warm_resumes", Json::from(self.warm_resumes)),
            ("durable_resumes", Json::from(self.durable_resumes)),
            ("spilled", Json::from(self.spilled)),
            ("peak_hot", Json::from(self.peak_hot as u64)),
            ("snapshot_bytes_total", Json::from(self.snapshot_bytes_total)),
            ("resume_latency_ns", self.resume_latency.to_json()),
        ])
    }
}

struct StoreState {
    slots: Vec<TierSlot>,
    /// Logical LRU stamp per slot; 0 = never touched.
    last_touch: Vec<u64>,
    clock: u64,
    /// Slots currently `Hot` or `Running`.
    hot_count: usize,
    hibernated: u64,
    resumed_warm: u64,
    resumed_durable: u64,
    spilled: u64,
    peak_hot: usize,
    snapshot_bytes_total: u64,
    resume_ns: Vec<f64>,
}

/// The store proper: tier state for `n` sessions behind one mutex.
pub(crate) struct SessionStore {
    hot_capacity: usize,
    warm_capacity: usize,
    durable_dir: Option<PathBuf>,
    state: Mutex<StoreState>,
}

impl SessionStore {
    /// A store for `n` sessions, at most `hot_capacity` of them live.
    pub(crate) fn new(n: usize, hot_capacity: usize, cfg: &TierConfig) -> SessionStore {
        SessionStore {
            hot_capacity: hot_capacity.max(1),
            warm_capacity: cfg.warm_capacity.max(1),
            durable_dir: cfg.durable_dir.clone(),
            state: Mutex::new(StoreState {
                slots: (0..n).map(|_| TierSlot::Unstarted).collect(),
                last_touch: vec![0; n],
                clock: 0,
                hot_count: 0,
                hibernated: 0,
                resumed_warm: 0,
                resumed_durable: 0,
                spilled: 0,
                peak_hot: 0,
                snapshot_bytes_total: 0,
                resume_ns: Vec::new(),
            }),
        }
    }

    /// Claim session `idx` for stepping. The dispatch queues hand out each
    /// id exclusively, so the slot is never `Running` or `Retired` here.
    /// Claiming a non-hot session takes a table seat and may evict the LRU
    /// hot session (encoded to warm — and the LRU warm snapshot spilled to
    /// disk — inside this same critical section).
    pub(crate) fn checkout(&self, idx: usize) -> (Checkout, Evictions) {
        let mut st = self.state.lock().expect("tier store lock");
        st.clock += 1;
        st.last_touch[idx] = st.clock;
        let slot = std::mem::replace(&mut st.slots[idx], TierSlot::Running);
        let out = match slot {
            TierSlot::Hot(sess) => return (Checkout::Live(sess), Evictions::default()),
            TierSlot::Unstarted => {
                st.hot_count += 1;
                Checkout::Start
            }
            TierSlot::Warm(bytes) => {
                st.hot_count += 1;
                st.resumed_warm += 1;
                Checkout::Resume(bytes, ResumeTier::Warm)
            }
            TierSlot::Durable(path) => {
                st.hot_count += 1;
                st.resumed_durable += 1;
                let bytes =
                    std::fs::read(&path).expect("durable snapshot file written by this store");
                Checkout::Resume(bytes, ResumeTier::Durable)
            }
            TierSlot::Running | TierSlot::Retired => {
                unreachable!("queue hands out ids exclusively")
            }
        };
        st.peak_hot = st.peak_hot.max(st.hot_count);
        let evictions = self.enforce_pressure(&mut st);
        (out, evictions)
    }

    /// Return a live session to its slot after a slice. Re-asserts the hot
    /// bound: a checkout over capacity can find every seat `Running` and
    /// have nothing to evict, so the pressure is enforced here too, where
    /// the returning session is itself a candidate victim (it is the MRU,
    /// so it only self-hibernates when nothing else is evictable — e.g.
    /// more workers than table seats, every other session mid-slice).
    pub(crate) fn checkin(&self, idx: usize, sess: Box<Session>) -> Evictions {
        let mut st = self.state.lock().expect("tier store lock");
        st.clock += 1;
        st.last_touch[idx] = st.clock;
        debug_assert!(matches!(st.slots[idx], TierSlot::Running));
        st.slots[idx] = TierSlot::Hot(sess);
        self.enforce_pressure(&mut st)
    }

    /// The session completed: free its table seat for good.
    pub(crate) fn retire(&self, idx: usize) {
        let mut st = self.state.lock().expect("tier store lock");
        debug_assert!(matches!(st.slots[idx], TierSlot::Running));
        st.slots[idx] = TierSlot::Retired;
        st.hot_count -= 1;
    }

    /// Record one resume's measured latency (decode happens outside the
    /// store lock, so the sample is reported back).
    pub(crate) fn note_resume_ns(&self, ns: f64) {
        self.state.lock().expect("tier store lock").resume_ns.push(ns);
    }

    /// While over the hot bound, hibernate the LRU hot session; while the
    /// warm tier is over its bound (and a durable dir exists), spill the
    /// LRU warm snapshot to disk. Called with the lock held.
    fn enforce_pressure(&self, st: &mut StoreState) -> Evictions {
        let mut ev = Evictions::default();
        while st.hot_count > self.hot_capacity {
            let victim = st
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, TierSlot::Hot(_)))
                .min_by_key(|&(i, _)| st.last_touch[i])
                .map(|(i, _)| i);
            // Every over-bound seat may be Running (workers > capacity):
            // nothing evictable right now; the bound re-asserts on the next
            // checkout after those slices check back in.
            let Some(v) = victim else { break };
            let TierSlot::Hot(sess) = std::mem::replace(&mut st.slots[v], TierSlot::Running)
            else {
                unreachable!("victim filtered to Hot")
            };
            let bytes = sess.hibernate();
            st.hibernated += 1;
            st.snapshot_bytes_total += bytes.len() as u64;
            st.hot_count -= 1;
            ev.hibernated.push((v as u32, bytes.len()));
            st.slots[v] = TierSlot::Warm(bytes);
        }
        if let Some(dir) = &self.durable_dir {
            loop {
                let warm_count =
                    st.slots.iter().filter(|s| matches!(s, TierSlot::Warm(_))).count();
                if warm_count <= self.warm_capacity {
                    break;
                }
                let victim = st
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, TierSlot::Warm(_)))
                    .min_by_key(|&(i, _)| st.last_touch[i])
                    .map(|(i, _)| i)
                    .expect("warm_count > 0");
                let TierSlot::Warm(bytes) =
                    std::mem::replace(&mut st.slots[victim], TierSlot::Running)
                else {
                    unreachable!("victim filtered to Warm")
                };
                let path = dir.join(format!("session-{victim}.psns"));
                std::fs::write(&path, &bytes).expect("durable tier dir is writable");
                st.spilled += 1;
                ev.spilled.push(victim as u32);
                st.slots[victim] = TierSlot::Durable(path);
            }
        }
        ev
    }

    /// Raw resume-latency samples (ns) — pooled across shards for the
    /// aggregate report.
    pub(crate) fn resume_samples(&self) -> Vec<f64> {
        self.state.lock().expect("tier store lock").resume_ns.clone()
    }

    /// Fold the counters into the report (end of run).
    pub(crate) fn report(&self) -> TierReport {
        let st = self.state.lock().expect("tier store lock");
        TierReport {
            hibernated: st.hibernated,
            resumed: st.resumed_warm + st.resumed_durable,
            warm_resumes: st.resumed_warm,
            durable_resumes: st.resumed_durable,
            spilled: st.spilled,
            peak_hot: st.peak_hot,
            snapshot_bytes_total: st.snapshot_bytes_total,
            resume_latency: Quantiles::from_samples(&st.resume_ns),
        }
    }
}
