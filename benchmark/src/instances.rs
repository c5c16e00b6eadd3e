//! Task instances, the solo runner every rung and oracle goes through, and
//! the field-by-field result check.

use crate::trace::{span, Kind};
use psme_core::MatchEngine;
use psme_net::{splitmix64, stop_code, SessionSummary};
use psme_ops::{sym_name, Production};
use psme_rete::{ReteNetwork, SerialEngine};
use psme_soar::{Agent, AgentStats, SoarTask, StopReason};
use psme_tasks::{cypress_sub, eight_puzzle, scrambled, strips, CypressConfig, StripsConfig};
use std::sync::Arc;

/// Decision budget of every run, served or solo (`ServeConfig`'s default
/// and the task harness's).
pub const MAX_DECISIONS: u64 = 400;

/// Which task instance to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskSpec {
    /// `eight_puzzle(&scrambled(depth, seed))`.
    Eight { depth: usize, seed: u64 },
    /// A ring of `rooms` rooms, three closed doors, target half way round.
    Strips { rooms: usize },
    /// `cypress_sub` with this many root specifications.
    Cypress { roots: usize },
}

impl TaskSpec {
    pub fn build(&self) -> SoarTask {
        match *self {
            TaskSpec::Eight { depth, seed } => eight_puzzle(&scrambled(depth, seed)),
            TaskSpec::Strips { rooms } => strips(&StripsConfig {
                rooms,
                closed_doors: vec![2, 5, 8],
                start: 0,
                target: rooms / 2,
                chords: false,
            }),
            TaskSpec::Cypress { roots } => cypress_sub(&CypressConfig { roots }),
        }
    }

    /// Short label for tables and session names.
    pub fn label(&self) -> String {
        match *self {
            TaskSpec::Eight { depth, .. } => format!("eight-{depth}"),
            TaskSpec::Strips { rooms } => format!("strips-{rooms}"),
            TaskSpec::Cypress { roots } => format!("cypress-{roots}"),
        }
    }
}

/// How an instance is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Chunking on from the first decision.
    pub learning: bool,
    /// Credited session: the client grants this many `Agent::step`s at a
    /// time, and turns chunking on (the `Learn` frame) when the first
    /// grant is spent. A solo run reproduces it by flipping `learning`
    /// after that many steps.
    pub grant: Option<u64>,
}

impl Plan {
    pub const PLAIN: Plan = Plan {
        learning: false,
        grant: None,
    };
    pub const LEARNING: Plan = Plan {
        learning: true,
        grant: None,
    };
}

/// What a run produced: exactly the fields the serving layer guarantees
/// bit-for-bit against a solo run, and the wire carries in `Done`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub stop: StopReason,
    pub stats: AgentStats,
    pub chunk_names: Vec<String>,
    pub output: Vec<String>,
}

impl Outcome {
    /// Field-by-field comparison with a served session's summary; the
    /// error names the first field that differs.
    pub fn check_summary(&self, got: &SessionSummary) -> Result<(), String> {
        if got.stop != stop_code(self.stop) {
            return Err(format!("stop code {} != {:?}", got.stop, self.stop));
        }
        self.check_fields(&got.stats, &got.chunk_names, &got.output)
    }

    /// This outcome with `stats.update_tasks` cleared. The field counts
    /// match tasks spent updating state for new chunks — work done, not a
    /// result — and on the parallel engine it depends on how the match
    /// processes interleave, so it differs from the serial count and from
    /// run to run. Every other field is compared bit for bit.
    pub fn without_work_counters(mut self) -> Outcome {
        self.stats.update_tasks = 0;
        self
    }

    /// Field-by-field comparison with another run's outcome.
    pub fn check(&self, got: &Outcome) -> Result<(), String> {
        if got.stop != self.stop {
            return Err(format!("stop {:?} != {:?}", got.stop, self.stop));
        }
        self.check_fields(&got.stats, &got.chunk_names, &got.output)
    }

    fn check_fields(
        &self,
        stats: &AgentStats,
        chunk_names: &[String],
        output: &[String],
    ) -> Result<(), String> {
        if *stats != self.stats {
            return Err(format!("stats {stats:?} != {:?}", self.stats));
        }
        if chunk_names != self.chunk_names {
            return Err(format!(
                "{} chunk names differ from the oracle's {}",
                chunk_names.len(),
                self.chunk_names.len()
            ));
        }
        if output != self.output {
            return Err("(write) output differs".to_string());
        }
        Ok(())
    }
}

/// Install `task` into a fresh agent over `engine` and run it to its stop
/// under `plan`. `adopted` engines already hold the compiled productions
/// (a session over a frozen topology); others compile from scratch.
/// `preload` chunks are loaded before the run (the paper's *after
/// chunking* mode). Records `soar.install`, `soar.step` and `soar.collect`
/// spans when a tracer is installed.
pub fn run_solo<E: MatchEngine>(
    task: &SoarTask,
    engine: E,
    adopted: bool,
    preload: &[Arc<Production>],
    plan: Plan,
) -> (Outcome, Agent<E>) {
    let mut agent = Agent::new(engine, task.classes.clone());
    span(Kind::Install, || {
        if adopted {
            task.install_adopted(&mut agent);
        } else {
            task.install(&mut agent);
        }
        for c in preload {
            agent
                .load_production(c.clone())
                .expect("preloaded chunk compiles");
        }
    });
    agent.learning = plan.learning;
    let mut steps = 0u64;
    let stop = loop {
        if plan.grant == Some(steps) {
            agent.learning = true;
        }
        if let Some(r) = span(Kind::Step, || agent.step(MAX_DECISIONS)) {
            break r;
        }
        steps += 1;
    };
    let outcome = span(Kind::Collect, || Outcome {
        stop,
        stats: agent.stats,
        chunk_names: agent
            .learned_chunks()
            .iter()
            .map(|c| sym_name(c.name).to_string())
            .collect(),
        output: agent.output.clone(),
    });
    (outcome, agent)
}

/// The oracle: a solo `Agent<SerialEngine>` compiling the task itself.
pub fn oracle(task: &SoarTask, preload: &[Arc<Production>], plan: Plan) -> Outcome {
    run_solo(
        task,
        SerialEngine::new(ReteNetwork::new()),
        false,
        preload,
        plan,
    )
    .0
}

/// Candidate boards examined per workload seed, at most.
const BOARD_POOL: usize = 64;

/// Decisions a candidate board is given to halt.
const PROBE_DECISIONS: u64 = 40;

/// Eight-puzzle boards of one scramble depth, split by whether the greedy
/// means-ends strategy solves them. At depth 8 the split is about 3 : 7
/// and the two kinds differ twentyfold in work (26 decisions against the
/// 400-decision limit), so a workload that drew boards blindly would
/// change its mix, not only its inputs, with the seed. Workloads ask for a
/// fixed number of each kind instead.
pub struct Boards {
    pub solved: Vec<u64>,
    pub unsolved: Vec<u64>,
}

/// Draw board seeds from `seed`'s stream until `solved` boards that halt
/// and `unsolved` boards that do not are found, looking at no more than
/// [`BOARD_POOL`] candidates. A board counts as unsolved when it is still
/// running after [`PROBE_DECISIONS`] decisions (solved ones halt by 26).
pub fn pick_boards(depth: usize, plan: Plan, solved: usize, unsolved: usize, seed: u64) -> Boards {
    let mut rng = seed ^ 0xb0a7_d5ee_d000_0000 ^ depth as u64;
    let mut out = Boards {
        solved: Vec::new(),
        unsolved: Vec::new(),
    };
    for _ in 0..BOARD_POOL {
        if out.solved.len() >= solved && out.unsolved.len() >= unsolved {
            break;
        }
        let board = splitmix64(&mut rng);
        let task = TaskSpec::Eight { depth, seed: board }.build();
        let mut agent = task.agent(SerialEngine::new(ReteNetwork::new()));
        agent.learning = plan.learning;
        let halted = agent.run(PROBE_DECISIONS) == StopReason::Halted;
        let (list, want) = if halted {
            (&mut out.solved, solved)
        } else {
            (&mut out.unsolved, unsolved)
        };
        if list.len() < want {
            list.push(board);
        }
    }
    // A pool short of one kind (one seed in thousands) deals the boards
    // it has again rather than fail the run.
    for (list, want) in [(&mut out.solved, solved), (&mut out.unsolved, unsolved)] {
        assert!(
            want == 0 || !list.is_empty(),
            "seed {seed}: no depth-{depth} board of a wanted kind in {BOARD_POOL}"
        );
        for k in 0..want.saturating_sub(list.len()) {
            list.push(list[k]);
        }
    }
    out
}
