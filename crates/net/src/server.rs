//! The TCP front-end: acceptor, per-connection readers, per-app routers.
//!
//! ## Threading model
//!
//! * **Acceptor** — one thread blocked in `accept`; each accepted
//!   connection gets its own reader thread and a shared writer handle
//!   (`Arc<Mutex<TcpStream>>` — replies and notifications interleave at
//!   frame granularity). An error that leaves the listener usable (an
//!   aborted handshake, a signal, no file descriptor free) is retried;
//!   [`NetServer::finish`] wakes it with one loopback connection.
//! * **Connection readers** — one thread per connection: blocking frame
//!   reads, `Hello` answered inline, everything else routed to the owning
//!   app's router by session id (`app_index << APP_SHIFT | local id`).
//! * **App routers** — one thread per hosted app, the only owner of that
//!   app's [`OpenServe`] loop. It consumes a single command channel
//!   carrying both wire requests and the serve loop's own notifications
//!   (a forwarder thread funnels [`ServeEvent`]s into the same channel),
//!   so per-app decisions — submissions, credit grants, shed and retire
//!   notifications — are totally ordered without locks, and an `Opened`
//!   reply always precedes that session's `Stepped`/`Done`/`SessionShed`.
//! * **Serve workers** — each `OpenServe` runs `shards × workers` worker
//!   threads (the same pools as batch serving).
//!
//! Responses carry exactly what in-process serving reports — the loopback
//! differential test proves the `Done` summary bytes equal an in-process
//! [`psme_serve::serve`] run's, field for field.

use crate::apps::AppDef;
use crate::wire::{read_frame, write_frame, Frame, SessionSummary, APP_SHIFT, WIRE_VERSION};
use psme_serve::{OpenServe, ServeConfig, ServeEvent, ServeReport, SessionSpec};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Writer = Arc<Mutex<TcpStream>>;

/// One command on an app router's totally ordered queue.
enum Cmd {
    /// The acceptor took a connection (trace only).
    Accepted { conn: u32 },
    /// A decoded `OpenSession` for this app.
    Open {
        session: String,
        seed: u64,
        learning: bool,
        grant: Option<u64>,
        writer: Writer,
    },
    Step { local: u32, n: u64 },
    Learn { local: u32, enable: bool },
    Close { local: u32 },
    /// A serve-loop notification, funneled in by the forwarder.
    Event(ServeEvent),
    /// The forwarder drained the serve loop's event stream (sent after
    /// the loop finalized) — the router can reply to `Finish` and exit.
    EventsDone,
    /// Stop the app: finish the serve loop and report.
    Finish { reply: Sender<ServeReport> },
}

struct AppHandle {
    name: String,
    tx: Sender<Cmd>,
    router: JoinHandle<()>,
    forwarder: JoinHandle<()>,
}

/// The running server. [`NetServer::finish`] stops accepting, drains the
/// serve loops, and returns one [`ServeReport`] per app — the same report
/// type as batch serving, so wire-fed runs produce comparable artifacts.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    apps: Vec<AppHandle>,
}

/// An `accept` error that leaves the listener usable: the peer gave up
/// before it was taken, or a signal interrupted the call.
fn transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted};
    matches!(e.kind(), ConnectionAborted | ConnectionReset | Interrupted)
}

/// The process or the system is out of file descriptors (`EMFILE` 24,
/// `ENFILE` 23 on Linux and the BSDs): `accept` succeeds again once a
/// connection closes.
fn out_of_descriptors(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23 | 24))
}

fn send_to(writer: &Writer, frame: &Frame) {
    // A dead connection just loses its notification; sessions it opened
    // finish server-side regardless.
    let mut w = writer.lock().expect("writer lock");
    let _ = write_frame(&mut *w, frame);
}

/// The app router: sole owner of one app's serve loop. See module docs.
fn app_router(app: AppDef, app_idx: u32, opens: OpenServe, rx: Receiver<Cmd>) {
    let gid = |local: u32| (app_idx << APP_SHIFT) | local;
    let mut writers: Vec<Option<Writer>> = Vec::new();
    let mut opens = Some(opens);
    let mut final_report: Option<ServeReport> = None;
    let mut finish_reply: Option<Sender<ServeReport>> = None;
    for cmd in rx {
        match cmd {
            Cmd::Accepted { conn } => {
                if let Some(o) = &opens {
                    o.note_accepted(conn);
                }
            }
            Cmd::Open { session, seed, learning, grant, writer } => {
                let Some(o) = &opens else {
                    send_to(
                        &writer,
                        &Frame::Refused { session, reason: "server draining".into() },
                    );
                    continue;
                };
                let spec = SessionSpec {
                    name: session.clone(),
                    task: (app.instance)(seed),
                    learning,
                };
                match o.submit(spec, grant) {
                    Ok(local) => {
                        if writers.len() <= local as usize {
                            writers.resize(local as usize + 1, None);
                        }
                        writers[local as usize] = Some(writer.clone());
                        send_to(&writer, &Frame::Opened { id: gid(local) });
                    }
                    Err(e) => {
                        send_to(&writer, &Frame::Refused { session, reason: e.to_string() });
                    }
                }
            }
            Cmd::Step { local, n } => {
                if let Some(o) = &opens {
                    o.step(local, n);
                }
            }
            Cmd::Learn { local, enable } => {
                if let Some(o) = &opens {
                    o.set_learning(local, enable);
                }
            }
            Cmd::Close { local } => {
                if let Some(o) = &opens {
                    o.close_session(local);
                }
            }
            Cmd::Event(ev) => {
                // `Stepped` leaves the session open; `SessionShed` and `Done`
                // are its last frame, so its entry lets go of the connection
                // (the client may have said `Bye` already).
                let last_of = |ws: &mut [Option<Writer>], local: u32| {
                    ws.get_mut(local as usize).and_then(Option::take)
                };
                match ev {
                    ServeEvent::Parked { id, decisions } => {
                        if let Some(Some(w)) = writers.get(id as usize) {
                            send_to(w, &Frame::Stepped { id: gid(id), decisions });
                        }
                    }
                    ServeEvent::Shed { id } => {
                        if let Some(w) = last_of(&mut writers, id) {
                            send_to(&w, &Frame::SessionShed { id: gid(id) });
                        }
                    }
                    ServeEvent::Retired { id } => {
                        // Reports come from the live loop before Finish,
                        // from the finalized report during the drain.
                        let summary = match (&opens, &final_report) {
                            (Some(o), _) => o
                                .report(id)
                                .map(|r| SessionSummary::from_report(&r)),
                            (None, Some(rep)) => rep
                                .sessions
                                .get(id as usize)
                                .filter(|r| !r.was_shed())
                                .map(SessionSummary::from_report),
                            (None, None) => None,
                        };
                        if let (Some(w), Some(s)) = (last_of(&mut writers, id), summary) {
                            send_to(&w, &Frame::Done { id: gid(id), summary: s });
                        }
                    }
                }
            }
            Cmd::Finish { reply } => {
                if let Some(o) = opens.take() {
                    final_report = Some(o.finish());
                }
                finish_reply = Some(reply);
            }
            Cmd::EventsDone => break,
        }
    }
    if let (Some(reply), Some(rep)) = (finish_reply, final_report) {
        let _ = reply.send(rep);
    }
}

/// One connection's read loop: decode frames, answer `Hello`, route the
/// rest. Exits on `Bye`, EOF, or any read/decode error (a malformed frame
/// kills the connection, never the server).
fn conn_loop(
    stream: TcpStream,
    writer: Writer,
    app_names: Arc<Vec<String>>,
    app_txs: Arc<Vec<Sender<Cmd>>>,
) {
    let mut reader = stream;
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        match frame {
            Frame::Hello { proto, .. } => {
                if proto != WIRE_VERSION {
                    send_to(
                        &writer,
                        &Frame::Refused {
                            session: String::new(),
                            reason: format!(
                                "wire version mismatch: client {proto}, server {WIRE_VERSION}"
                            ),
                        },
                    );
                    break;
                }
                send_to(
                    &writer,
                    &Frame::HelloOk {
                        proto: WIRE_VERSION,
                        server: "psme-net".into(),
                        apps: app_names.as_ref().clone(),
                    },
                );
            }
            Frame::OpenSession { app, session, seed, learning, grant } => {
                match app_names.iter().position(|n| n == &app) {
                    Some(i) => {
                        let _ = app_txs[i].send(Cmd::Open {
                            session,
                            seed,
                            learning,
                            grant,
                            writer: writer.clone(),
                        });
                    }
                    None => send_to(
                        &writer,
                        &Frame::Refused { session, reason: format!("unknown app {app:?}") },
                    ),
                }
            }
            Frame::Step { id, n } => {
                if let Some(tx) = app_txs.get((id >> APP_SHIFT) as usize) {
                    let _ = tx.send(Cmd::Step { local: id & ((1 << APP_SHIFT) - 1), n });
                }
            }
            Frame::Learn { id, enable } => {
                if let Some(tx) = app_txs.get((id >> APP_SHIFT) as usize) {
                    let _ = tx.send(Cmd::Learn { local: id & ((1 << APP_SHIFT) - 1), enable });
                }
            }
            Frame::CloseSession { id } => {
                if let Some(tx) = app_txs.get((id >> APP_SHIFT) as usize) {
                    let _ = tx.send(Cmd::Close { local: id & ((1 << APP_SHIFT) - 1) });
                }
            }
            Frame::Bye => break,
            // Server-to-client frames arriving at the server are a
            // protocol violation; drop the connection.
            _ => break,
        }
    }
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), start
    /// one serving loop per app with `cfg` (so `shards × workers` threads
    /// per app — size accordingly), and start accepting.
    /// `max_sessions_per_app` bounds each app's id space; it must fit in
    /// [`APP_SHIFT`] bits. Each id costs 44 B of record up front per app
    /// ([`OpenServe::start`]), and a retired id keeps only its report.
    pub fn start(
        addr: &str,
        cfg: &ServeConfig,
        apps: Vec<AppDef>,
        max_sessions_per_app: usize,
    ) -> std::io::Result<NetServer> {
        assert!(
            max_sessions_per_app < (1 << APP_SHIFT),
            "session id space exceeds the wire id layout"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let mut handles = Vec::with_capacity(apps.len());
        let mut names = Vec::with_capacity(apps.len());
        let mut txs = Vec::with_capacity(apps.len());
        for (i, app) in apps.into_iter().enumerate() {
            let (opens, events) = OpenServe::start(app.topo.clone(), cfg.clone(), max_sessions_per_app);
            let (tx, rx) = channel::<Cmd>();
            let fwd_tx = tx.clone();
            let forwarder = std::thread::Builder::new()
                .name(format!("psm-net-fwd-{i}"))
                .spawn(move || {
                    for ev in events {
                        if fwd_tx.send(Cmd::Event(ev)).is_err() {
                            return;
                        }
                    }
                    let _ = fwd_tx.send(Cmd::EventsDone);
                })
                .expect("spawn event forwarder");
            let name = app.name.clone();
            let router = std::thread::Builder::new()
                .name(format!("psm-net-app-{i}"))
                .spawn(move || app_router(app, i as u32, opens, rx))
                .expect("spawn app router");
            names.push(name.clone());
            txs.push(tx.clone());
            handles.push(AppHandle { name, tx, router, forwarder });
        }
        let app_names = Arc::new(names);
        let app_txs = Arc::new(txs);

        let acceptor = {
            let stop = Arc::clone(&stop);
            let app_names = Arc::clone(&app_names);
            let app_txs = Arc::clone(&app_txs);
            std::thread::Builder::new()
                .name("psm-net-accept".into())
                .spawn(move || {
                    let mut next_conn = 0u32;
                    loop {
                        match listener.accept() {
                            // `finish` wakes a blocked `accept` with one
                            // connection of its own.
                            Ok(_) if stop.load(Ordering::Acquire) => return,
                            Ok((stream, _peer)) => {
                                let conn = next_conn;
                                next_conn += 1;
                                let _ = stream.set_nodelay(true);
                                for tx in app_txs.iter() {
                                    let _ = tx.send(Cmd::Accepted { conn });
                                }
                                let writer = match stream.try_clone() {
                                    Ok(w) => Arc::new(Mutex::new(w)),
                                    Err(_) => continue,
                                };
                                let names = Arc::clone(&app_names);
                                let txs = Arc::clone(&app_txs);
                                let _ = std::thread::Builder::new()
                                    .name(format!("psm-net-conn-{conn}"))
                                    .spawn(move || conn_loop(stream, writer, names, txs));
                            }
                            Err(_) if stop.load(Ordering::Acquire) => return,
                            Err(e) if out_of_descriptors(&e) => {
                                // Retrying at once would spin until some
                                // connection closes and frees one.
                                std::thread::sleep(std::time::Duration::from_millis(10));
                            }
                            Err(e) if transient(&e) => {}
                            Err(_) => return,
                        }
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(NetServer { addr: local, stop, acceptor: Some(acceptor), apps: handles })
    }

    /// The bound address (connect clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain every app's serve loop (open sessions retire
    /// with a `Closed` stop), and return `(app name, report)` pairs in
    /// app order.
    pub fn finish(mut self) -> Vec<(String, ServeReport)> {
        self.stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            // Wake the acceptor out of its blocking `accept`; it takes this
            // connection, sees `stop` and returns. If the connect fails the
            // acceptor has returned already.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            a.join().expect("acceptor panicked");
        }
        let mut out = Vec::with_capacity(self.apps.len());
        for app in self.apps.drain(..) {
            let (reply_tx, reply_rx) = channel();
            app.tx
                .send(Cmd::Finish { reply: reply_tx })
                .expect("app router alive until Finish");
            let report = reply_rx.recv().expect("app router reports before exit");
            app.forwarder.join().expect("forwarder panicked");
            app.router.join().expect("app router panicked");
            out.push((app.name, report));
        }
        out
    }
}
