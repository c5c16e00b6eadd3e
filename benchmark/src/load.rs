//! The benchmark's own load generators.
//!
//! `psme_net::run_open_loop` times a session from the moment its open was
//! *sent*, so a generator that falls behind hides the wait it caused, and
//! it matches `Opened` replies to opens in one FIFO although each app's
//! router replies on its own. The generators here time from the *due*
//! time, report how late each open went out, keep one FIFO per app, and
//! resolve every offered session exactly once: done, shed, refused, or
//! timed out.

use crate::instances::Plan;
use crate::trace::{self, Kind, Tracer};
use psme_net::{Client, ClientHandle, Frame, SessionSummary, APP_SHIFT};
use psme_serve::{OpenServe, ServeEvent, SessionReport, SessionSpec};
use psme_soar::SoarTask;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// No frame for this long while sessions are outstanding: give up on them.
const STALL: Duration = Duration::from_secs(20);

/// One session to offer.
#[derive(Clone, Debug)]
pub struct Offered {
    /// Index into the server's app list.
    pub app: usize,
    /// Task-instance seed for the wire.
    pub seed: u64,
    pub plan: Plan,
    /// Index into the workload's instance list (oracle results).
    pub instance: usize,
}

/// How an offered session ended.
#[derive(Clone, Debug)]
pub enum Resolution {
    Done(SessionSummary),
    Shed,
    Refused(String),
    TimedOut,
}

/// Client-side timeline of one session.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    /// When the open was due (open loop) or decided (closed loop).
    pub due: Instant,
    /// Just before `OpenSession` was written.
    pub sent: Instant,
    /// `Opened` received.
    pub opened: Option<Instant>,
    /// `Step` written, `Stepped`/`Done` received — one per grant.
    pub steps: Vec<(Instant, Instant)>,
    /// Resolution received (or given up on).
    pub end: Instant,
    pub resolution: Resolution,
}

impl SessionRecord {
    pub fn sojourn_ms(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }

    /// Record this session as a `net.session` span with its `load.late`,
    /// `net.open_rtt` and `net.step_rtt` children.
    pub fn add_spans(&self, tracer: &mut Tracer, request: u32, keep: bool) {
        let mut kids = vec![(Kind::Late, self.due, self.sent)];
        if let Some(o) = self.opened {
            kids.push((Kind::OpenRtt, self.sent, o));
        }
        // A grant can be written before `Opened` arrives only if `Stepped`
        // overtook it, which one router thread per app rules out; clip
        // anyway so children never overlap.
        let mut reach = self.opened.unwrap_or(self.sent);
        for &(a, b) in &self.steps {
            let a = a.max(reach);
            if b > a {
                kids.push((Kind::StepRtt, a, b));
                reach = b;
            }
        }
        tracer.add_tree((Kind::TcpSession, self.due, self.end), &kids, request, keep);
    }
}

/// A negotiated connection: the client, its event stream moved out so that
/// successive phases can share it, and the server's app names in id order.
pub struct Conn {
    // Dropped last: closes the socket and joins the reader.
    client: Client,
    pub events: Receiver<Frame>,
    pub apps: Vec<String>,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let mut client = Client::connect(addr)?;
        let apps = client.hello("psme-benchmark")?;
        let events = client.take_events().expect("fresh client has its receiver");
        Ok(Conn {
            client,
            events,
            apps,
        })
    }

    pub fn handle(&self) -> ClientHandle {
        self.client.handle()
    }
}

fn open_frame(conn_apps: &[String], o: &Offered, name: String) -> Frame {
    Frame::OpenSession {
        app: conn_apps[o.app].clone(),
        session: name,
        seed: o.seed,
        // A credited session starts with chunking off and turns it on over
        // the wire at its first park.
        learning: o.plan.learning,
        grant: o.plan.grant,
    }
}

/// Session index from a name of the form `<prefix>-<index>`.
fn index_of(name: &str) -> Option<usize> {
    name.rsplit('-').next()?.parse().ok()
}

/// An opened session's timeline so far: sent, opened, steps.
type Partial = (Instant, Instant, Vec<(Instant, Instant)>);

struct Live {
    idx: usize,
    parked_before: bool,
    step_sent: Option<Instant>,
}

/// The receiving half shared by both generators: matches replies to
/// offered sessions, drives credited sessions (a `Learn` at the first
/// park, a fresh grant at every park), and resolves each session once.
struct Collector<'a> {
    offered: &'a [Offered],
    handle: ClientHandle,
    /// Per app: opens written and not yet answered, in order.
    pending: Vec<Receiver<(usize, Instant)>>,
    live: HashMap<u32, Live>,
    records: Vec<Option<SessionRecord>>,
    due: &'a [Instant],
    resolved: usize,
    log: Option<Vec<Frame>>,
}

impl Collector<'_> {
    fn resolve(
        &mut self,
        idx: usize,
        sent: Instant,
        opened: Option<Instant>,
        steps: Vec<(Instant, Instant)>,
        r: Resolution,
    ) {
        debug_assert!(self.records[idx].is_none(), "session {idx} resolved twice");
        self.records[idx] = Some(SessionRecord {
            due: self.due[idx],
            sent,
            opened,
            steps,
            end: Instant::now(),
            resolution: r,
        });
        self.resolved += 1;
    }

    fn on_frame(&mut self, f: Frame, partial: &mut HashMap<usize, Partial>) {
        let now = Instant::now();
        if let Some(log) = self.log.as_mut() {
            log.push(f.clone());
        }
        match f {
            Frame::Opened { id } => {
                let app = (id >> APP_SHIFT) as usize;
                let (idx, sent) = self.pending[app]
                    .recv()
                    .expect("an open written per Opened");
                partial.insert(idx, (sent, now, Vec::new()));
                self.live.insert(
                    id,
                    Live {
                        idx,
                        parked_before: false,
                        step_sent: None,
                    },
                );
            }
            Frame::Refused { session, reason } => {
                let idx = index_of(&session).expect("session names end in their index");
                let (head, sent) = self.pending[self.offered[idx].app]
                    .recv()
                    .expect("an open written per reply");
                debug_assert_eq!(head, idx, "replies arrive in request order per app");
                self.resolve(idx, sent, None, Vec::new(), Resolution::Refused(reason));
            }
            Frame::Stepped { id, .. } => {
                let Some(l) = self.live.get_mut(&id) else {
                    return;
                };
                if let (Some(s), Some(p)) = (l.step_sent.take(), partial.get_mut(&l.idx)) {
                    p.2.push((s, now));
                }
                let plan = self.offered[l.idx].plan;
                let mut sends = Vec::with_capacity(2);
                if !l.parked_before {
                    l.parked_before = true;
                    sends.push(Frame::Learn { id, enable: true });
                }
                sends.push(Frame::Step {
                    id,
                    n: plan.grant.unwrap_or(1).max(1),
                });
                l.step_sent = Some(Instant::now());
                for s in sends {
                    // A dead connection surfaces as a stall and times the
                    // remaining sessions out.
                    let _ = self.handle.send(&s);
                    if let Some(log) = self.log.as_mut() {
                        log.push(s);
                    }
                }
            }
            Frame::SessionShed { id } => {
                if let Some(l) = self.live.remove(&id) {
                    let (sent, opened, steps) = partial.remove(&l.idx).expect("opened session");
                    self.resolve(l.idx, sent, Some(opened), steps, Resolution::Shed);
                }
            }
            Frame::Done { id, summary } => {
                if let Some(l) = self.live.remove(&id) {
                    let (sent, opened, mut steps) = partial.remove(&l.idx).expect("opened session");
                    if let Some(s) = l.step_sent {
                        steps.push((s, now));
                    }
                    self.resolve(l.idx, sent, Some(opened), steps, Resolution::Done(summary));
                }
            }
            _ => {}
        }
    }

    /// Receive until every offered session resolved; sessions still open
    /// after a stall are timed out.
    fn run(mut self, events: &Receiver<Frame>) -> (Vec<SessionRecord>, Vec<Frame>) {
        let mut partial = HashMap::new();
        while self.resolved < self.offered.len() {
            match events.recv_timeout(STALL) {
                Ok(f) => self.on_frame(f, &mut partial),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        let now = Instant::now();
        let records = self
            .records
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    let (sent, opened, steps) = match partial.remove(&i) {
                        Some((s, o, st)) => (s, Some(o), st),
                        None => (self.due[i], None, Vec::new()),
                    };
                    SessionRecord {
                        due: self.due[i],
                        sent,
                        opened,
                        steps,
                        end: now,
                        resolution: Resolution::TimedOut,
                    }
                })
            })
            .collect();
        (records, self.log.unwrap_or_default())
    }
}

/// Offer `offered[i]` at `t0 + arrivals[i]` seconds whatever the server is
/// doing, over one connection. The pacing thread only sleeps and writes;
/// the calling thread receives. Returns one record per offered session, in
/// order, and (when `log_frames`) every frame written or received.
pub fn open_loop(
    conn: &Conn,
    offered: &[Offered],
    arrivals: &[f64],
    t0: Instant,
    prefix: &str,
    log_frames: bool,
) -> (Vec<SessionRecord>, Vec<Frame>) {
    assert_eq!(offered.len(), arrivals.len());
    let due: Vec<Instant> = arrivals
        .iter()
        .map(|&a| t0 + Duration::from_secs_f64(a))
        .collect();
    let (txs, rxs): (Vec<Sender<_>>, Vec<Receiver<_>>) = conn
        .apps
        .iter()
        .map(|_| channel::<(usize, Instant)>())
        .unzip();
    let collector = Collector {
        offered,
        handle: conn.handle(),
        pending: rxs,
        live: HashMap::new(),
        records: vec![None; offered.len()],
        due: &due,
        resolved: 0,
        log: log_frames.then(Vec::new),
    };
    let handle = conn.handle();
    let (due_ref, apps) = (&due, &conn.apps);
    std::thread::scope(|s| {
        let pacer = s.spawn(move || {
            let mut sent_log = Vec::new();
            for (i, o) in offered.iter().enumerate() {
                let now = Instant::now();
                if due_ref[i] > now {
                    std::thread::sleep(due_ref[i] - now);
                }
                let f = open_frame(apps, o, format!("{prefix}-{i}"));
                // Queue before writing, so the reply always finds its open.
                txs[o.app]
                    .send((i, Instant::now()))
                    .expect("collector outlives the pacer");
                if handle.send(&f).is_err() {
                    break;
                }
                if log_frames {
                    sent_log.push(f);
                }
            }
            sent_log
        });
        let (records, mut log) = collector.run(&conn.events);
        log.extend(pacer.join().expect("pacer panicked"));
        (records, log)
    })
}

/// Run one session to its resolution before returning: the closed-loop
/// client, and the one-in-flight TCP rung.
pub fn drive_one(
    conn: &Conn,
    offered: &Offered,
    name: String,
    log_frames: bool,
) -> (SessionRecord, Vec<Frame>) {
    let due = [Instant::now()];
    let (txs, rxs): (Vec<Sender<_>>, Vec<Receiver<_>>) = conn
        .apps
        .iter()
        .map(|_| channel::<(usize, Instant)>())
        .unzip();
    let one = std::slice::from_ref(offered);
    let collector = Collector {
        offered: one,
        handle: conn.handle(),
        pending: rxs,
        live: HashMap::new(),
        records: vec![None],
        due: &due,
        resolved: 0,
        log: log_frames.then(Vec::new),
    };
    // The collector indexes sessions by the number their name ends in.
    let f = open_frame(&conn.apps, offered, format!("{name}-0"));
    txs[offered.app]
        .send((0, Instant::now()))
        .expect("receiver is held by the collector");
    let sent_ok = conn.handle().send(&f).is_ok();
    let (mut records, mut log) = if sent_ok {
        collector.run(&conn.events)
    } else {
        (
            vec![SessionRecord {
                due: due[0],
                sent: due[0],
                opened: None,
                steps: Vec::new(),
                end: Instant::now(),
                resolution: Resolution::TimedOut,
            }],
            Vec::new(),
        )
    };
    if log_frames {
        log.push(f);
    }
    (records.pop().expect("one record per offered session"), log)
}

/// Timeline of one session through in-process `OpenServe`.
pub struct InProcRecord {
    pub start: Instant,
    pub end: Instant,
    /// `OpenServe::step` called, next `Parked`/`Retired` event received.
    pub steps: Vec<(Instant, Instant)>,
    /// `None` if the loop shed the session or stalled.
    pub report: Option<SessionReport>,
}

impl InProcRecord {
    pub fn sojourn_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Submit one session to an in-process serving loop and drive it to its
/// resolution, exactly as the TCP collector would: a `set_learning` at the
/// first park, a fresh grant at every park. Records `serve.session`,
/// `serve.submit` and `serve.step` spans.
pub fn drive_inproc(
    serve: &OpenServe,
    events: &Receiver<ServeEvent>,
    task: SoarTask,
    plan: Plan,
    name: String,
) -> InProcRecord {
    let start = Instant::now();
    trace::begin(Kind::ServeSession);
    let spec = SessionSpec {
        name,
        task,
        learning: plan.learning,
    };
    let id = trace::span(Kind::ServeSubmit, || serve.submit(spec, plan.grant))
        .expect("in-process submit: fresh name, open loop, id space sized for the run");
    let mut steps = Vec::new();
    let mut step_sent: Option<Instant> = None;
    let mut parked_before = false;
    let report = loop {
        let ev = match events.recv_timeout(STALL) {
            Ok(ev) => ev,
            Err(_) => break None,
        };
        let now = Instant::now();
        match ev {
            ServeEvent::Parked { id: pid, .. } if pid == id => {
                if let Some(s) = step_sent.take() {
                    trace::end();
                    steps.push((s, now));
                }
                if !parked_before {
                    parked_before = true;
                    serve.set_learning(id, true);
                }
                step_sent = Some(Instant::now());
                trace::begin(Kind::ServeStep);
                serve.step(id, plan.grant.unwrap_or(1).max(1));
            }
            ServeEvent::Retired { id: rid } if rid == id => {
                if let Some(s) = step_sent.take() {
                    trace::end();
                    steps.push((s, now));
                }
                break serve.report(id);
            }
            ServeEvent::Shed { id: sid } if sid == id => break None,
            _ => {}
        }
    };
    if step_sent.is_some() {
        trace::end();
    }
    trace::end();
    InProcRecord {
        start,
        end: Instant::now(),
        steps,
        report,
    }
}
