//! The benchmark's tracer: spans recorded around calls into the crates,
//! from the benchmark's own files.
//!
//! One [`Tracer`] per thread, installed in a thread-local so that the
//! [`crate::timed::Timed`] engine wrapper — owned by an `Agent` the
//! benchmark cannot reach into — records into the same tree as the code
//! driving that agent. With no tracer installed every call here is a
//! thread-local read and a branch, and the untraced runs do not even wrap
//! the engine.
//!
//! Every span closed adds to per-kind totals (count, time, self time), so
//! metrics cover the whole run. Only the spans of *kept* requests are
//! stored and written to the trace file: a twenty-second solo run closes
//! millions of `add_wme` spans, which no viewer loads.

use std::cell::RefCell;
use std::time::Instant;

/// The crates on the request path, by crate name; `load` and `trace` are
/// the benchmark's own generator and tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Load,
    Net,
    Serve,
    Soar,
    Rete,
    Core,
    Tasks,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Load,
        Layer::Net,
        Layer::Serve,
        Layer::Soar,
        Layer::Rete,
        Layer::Core,
        Layer::Tasks,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Load => "load",
            Layer::Net => "net",
            Layer::Serve => "serve",
            Layer::Soar => "soar",
            Layer::Rete => "rete",
            Layer::Core => "core",
            Layer::Tasks => "tasks",
        }
    }
}

/// Every span the benchmark records. A closed set, so the hot path indexes
/// an array instead of hashing a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One operation of a solo workload or rung: instance build, agent
    /// construction, install, run. Self time is the benchmark's own glue.
    SoloOp,
    /// `(app.instance)(seed)` / the task constructor, parser included.
    InstanceBuild,
    /// `SoarTask::install` or `install_adopted`, chunk preload included.
    Install,
    /// One `Agent::step`.
    Step,
    /// Collecting the result of a finished run (`learned_chunks`, output).
    Collect,
    ReteRunChanges,
    ReteAddWme,
    ReteRemoveWme,
    ReteAddProduction,
    CoreRunChanges,
    CoreAddWme,
    CoreRemoveWme,
    CoreAddProduction,
    /// One session over TCP, due (open loop) or sent (closed loop) to
    /// `Done` received. Self time is spent behind the wire, where the
    /// benchmark cannot see: server threads, admission, dispatch, agent.
    TcpSession,
    /// Due time to `OpenSession` written: how late the generator ran.
    Late,
    /// `OpenSession` written to `Opened` received.
    OpenRtt,
    /// `Step` written to `Stepped` or `Done` received.
    StepRtt,
    /// One session through in-process `OpenServe`, submit to `Retired`.
    ServeSession,
    /// `OpenServe::submit`.
    ServeSubmit,
    /// `OpenServe::step` to the next `Parked` or `Retired` event.
    ServeStep,
}

impl Kind {
    pub const COUNT: usize = Kind::ServeStep as usize + 1;

    pub fn layer(self) -> Layer {
        use Kind::*;
        match self {
            SoloOp | Late => Layer::Load,
            InstanceBuild => Layer::Tasks,
            Install | Step | Collect => Layer::Soar,
            ReteRunChanges | ReteAddWme | ReteRemoveWme | ReteAddProduction => Layer::Rete,
            CoreRunChanges | CoreAddWme | CoreRemoveWme | CoreAddProduction => Layer::Core,
            TcpSession | OpenRtt | StepRtt => Layer::Net,
            ServeSession | ServeSubmit | ServeStep => Layer::Serve,
        }
    }

    pub fn name(self) -> &'static str {
        use Kind::*;
        match self {
            SoloOp => "load.solo_op",
            InstanceBuild => "tasks.instance_build",
            Install => "soar.install",
            Step => "soar.step",
            Collect => "soar.collect",
            ReteRunChanges => "rete.run_changes",
            ReteAddWme => "rete.add_wme",
            ReteRemoveWme => "rete.remove_wme",
            ReteAddProduction => "rete.add_production",
            CoreRunChanges => "core.run_changes",
            CoreAddWme => "core.add_wme",
            CoreRemoveWme => "core.remove_wme",
            CoreAddProduction => "core.add_production",
            TcpSession => "net.session",
            Late => "load.late",
            OpenRtt => "net.open_rtt",
            StepRtt => "net.step_rtt",
            ServeSession => "serve.session",
            ServeSubmit => "serve.submit",
            ServeStep => "serve.step",
        }
    }
}

/// No parent: the span is the root of its request.
pub const NO_PARENT: u32 = u32::MAX;

/// One stored span. Times are nanoseconds from the run's origin; `parent`
/// indexes the same span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
    pub thread: u32,
}

/// Running totals of one span kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    /// Time not covered by child spans.
    pub self_ns: u64,
}

struct Frame {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    /// Index in `spans` when the span is kept.
    slot: u32,
}

/// Per-thread span recorder. See the module docs.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    stack: Vec<Frame>,
    totals: [Total; Kind::COUNT],
    spans: Vec<Span>,
    request: u32,
    keep: bool,
}

impl Tracer {
    /// `origin` is shared by every tracer of a run so their spans line up.
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            thread,
            stack: Vec::new(),
            totals: [Total::default(); Kind::COUNT],
            spans: Vec::new(),
            request: 0,
            keep: false,
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Spans opened from now on belong to `request`; `keep` stores them for
    /// the trace file.
    pub fn set_request(&mut self, request: u32, keep: bool) {
        self.request = request;
        self.keep = keep;
    }

    fn begin(&mut self, kind: Kind) {
        let start_ns = self.ns(Instant::now());
        let slot = if self.keep {
            let parent = self.stack.last().map_or(NO_PARENT, |f| f.slot);
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns: start_ns,
                parent,
                request: self.request,
                thread: self.thread,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Frame {
            kind,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    fn end(&mut self) -> u64 {
        let end_ns = self.ns(Instant::now());
        let f = self.stack.pop().expect("end without begin");
        let ns = end_ns - f.start_ns;
        let t = &mut self.totals[f.kind as usize];
        t.count += 1;
        t.ns += ns;
        t.self_ns += ns - f.child_ns.min(ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += ns;
        }
        if f.slot != NO_PARENT {
            self.spans[f.slot as usize].end_ns = end_ns;
        }
        ns
    }

    /// Record a span whose ends were observed on different threads (a
    /// session: sent by the pacer, completed in the collector), with the
    /// children that tile part of it. Children must lie inside the parent
    /// and not overlap each other.
    pub fn add_tree(
        &mut self,
        root: (Kind, Instant, Instant),
        children: &[(Kind, Instant, Instant)],
        request: u32,
        keep: bool,
    ) {
        let (kind, start, end) = root;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let ns = end_ns.saturating_sub(start_ns);
        let root_slot = self.spans.len() as u32;
        if keep {
            let thread = self.thread;
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                request,
                thread,
            });
        }
        let mut child_ns = 0;
        for &(ck, cs, ce) in children {
            let (cs_ns, ce_ns) = (self.ns(cs), self.ns(ce));
            let c = ce_ns.saturating_sub(cs_ns);
            child_ns += c;
            let t = &mut self.totals[ck as usize];
            t.count += 1;
            t.ns += c;
            t.self_ns += c;
            if keep {
                let thread = self.thread;
                self.spans.push(Span {
                    kind: ck,
                    start_ns: cs_ns,
                    end_ns: ce_ns,
                    parent: root_slot,
                    request,
                    thread,
                });
            }
        }
        let t = &mut self.totals[kind as usize];
        t.count += 1;
        t.ns += ns;
        t.self_ns += ns - child_ns.min(ns);
    }

    pub fn total(&self, kind: Kind) -> Total {
        self.totals[kind as usize]
    }

    /// Self time of every span kind of `layer`, summed.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        (0..Kind::COUNT)
            .filter(|&k| KINDS[k].layer() == layer)
            .map(|k| self.totals[k].self_ns)
            .sum()
    }

    /// One line for the log: each layer's share of all recorded self time,
    /// largest first.
    pub fn layer_shares(&self) -> String {
        let mut shares: Vec<(Layer, u64)> = Layer::ALL
            .iter()
            .map(|&l| (l, self.layer_self_ns(l)))
            .collect();
        let total = shares.iter().map(|s| s.1).sum::<u64>().max(1) as f64;
        shares.sort_by_key(|s| std::cmp::Reverse(s.1));
        let parts: Vec<String> = shares
            .iter()
            .filter(|s| s.1 > 0)
            .map(|(l, ns)| format!("{} {:.1}%", l.name(), *ns as f64 / total * 100.0))
            .collect();
        format!("self time by layer: {}", parts.join(", "))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another thread's tracer in: totals add, spans append with
    /// their parent indices shifted.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.count += b.count;
            a.ns += b.ns;
            a.self_ns += b.self_ns;
        }
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    /// Chrome `trace_event` JSON (loads in Perfetto and `chrome://tracing`):
    /// one complete event per kept span, category = layer, one track per
    /// recording thread, request and parent ids in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.kind.name(),
                s.kind.layer().name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                i,
                parent,
                s.request,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Every kind, indexed by discriminant.
const KINDS: [Kind; Kind::COUNT] = {
    use Kind::*;
    [
        SoloOp,
        InstanceBuild,
        Install,
        Step,
        Collect,
        ReteRunChanges,
        ReteAddWme,
        ReteRemoveWme,
        ReteAddProduction,
        CoreRunChanges,
        CoreAddWme,
        CoreRemoveWme,
        CoreAddProduction,
        TcpSession,
        Late,
        OpenRtt,
        StepRtt,
        ServeSession,
        ServeSubmit,
        ServeStep,
    ]
};

/// Self time per layer recomputed from stored spans alone: a span's
/// duration minus the part of it its children cover (the union of their
/// intervals, clipped to the parent). Independent of the running totals,
/// so a test can hold one against the other.
pub fn layer_self_from_spans(spans: &[Span]) -> Vec<(Layer, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer = [0u64; Layer::ALL.len()];
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let layer = Layer::ALL
            .iter()
            .position(|&l| l == s.kind.layer())
            .expect("known layer");
        by_layer[layer] += (s.end_ns - s.start_ns) - covered;
    }
    Layer::ALL.iter().copied().zip(by_layer).collect()
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Install a tracer on this thread; spans are recorded until [`take`].
pub fn install(t: Tracer) {
    TRACER.with(|c| *c.borrow_mut() = Some(t));
}

/// Remove and return this thread's tracer.
pub fn take() -> Option<Tracer> {
    TRACER.with(|c| c.borrow_mut().take())
}

/// Run `f` on this thread's tracer, if one is installed.
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    TRACER.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Open a span of `kind` on this thread, a child of whatever span is open.
/// For spans that end in a later iteration of an event loop; prefer
/// [`span`]. A no-op without a tracer.
pub fn begin(kind: Kind) {
    with(|t| t.begin(kind));
}

/// Close the innermost open span. A no-op without a tracer.
pub fn end() {
    with(|t| t.end());
}

/// Time `f` as a span of `kind`, a child of whatever span is open on this
/// thread. Without a tracer, just runs `f`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    span_ns(kind, f).0
}

/// Like [`span`], also returning the span's duration in nanoseconds (0
/// without a tracer).
#[inline]
pub fn span_ns<R>(kind: Kind, f: impl FnOnce() -> R) -> (R, u64) {
    let on = with(|t| t.begin(kind)).is_some();
    let r = f();
    let ns = if on {
        with(|t| t.end()).unwrap_or(0)
    } else {
        0
    };
    (r, ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_table_is_in_discriminant_order() {
        for (i, k) in KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        install(Tracer::new(Instant::now(), 0));
        with(|t| t.set_request(7, true));
        span(Kind::SoloOp, || {
            span(Kind::Step, || {
                span(Kind::ReteRunChanges, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                span(Kind::ReteAddWme, || ());
            });
            span(Kind::Collect, || ());
        });
        let t = take().expect("installed above");
        let root = t.total(Kind::SoloOp);
        assert_eq!(root.count, 1);
        // Totals tile the root exactly: every nanosecond has one owner.
        let owned: u64 = Layer::ALL.iter().map(|&l| t.layer_self_ns(l)).sum();
        assert_eq!(owned, root.ns);
        // And the stored spans say the same, recomputed independently.
        let from_spans: u64 = layer_self_from_spans(t.spans())
            .iter()
            .map(|&(_, ns)| ns)
            .sum();
        assert_eq!(from_spans, root.ns);
        assert_eq!(t.spans().len(), 5);
        assert!(t.spans().iter().all(|s| s.request == 7));
        assert_eq!(t.spans()[2].parent, 1);
        assert!(t
            .chrome_json()
            .contains("\"name\":\"rete.run_changes\",\"cat\":\"rete\""));
    }

    #[test]
    fn untraced_spans_are_transparent() {
        assert!(take().is_none());
        assert_eq!(span(Kind::Step, || 41 + 1), 42);
        assert_eq!(span_ns(Kind::Step, || 1), (1, 0));
    }
}
