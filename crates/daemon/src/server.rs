//! The `gedd` server: one writer thread owning the
//! [`IncrementalValidator`], one accept thread, and a detached handler
//! thread per connection (DESIGN.md §10).
//!
//! The threading model is the wire-level image of the engine's
//! one-writer/many-readers split (PR 9): `apply` requests are forwarded
//! over an mpsc channel to the single writer thread — the only code
//! that ever holds `&mut` on the validator — while every query request
//! is answered on the connection's own thread from a cloned
//! [`ReadView`], pinning one published snapshot per request. Queries
//! therefore never block behind a batch, and two clients racing `apply`
//! are serialized by the channel, not by a lock.
//!
//! Graceful shutdown: on a `shutdown` request the writer drains every
//! apply already queued (each still gets its normal reply), answers
//! with the final published epoch, and exits; the handler then flips
//! the shutdown flag and wakes the accept thread with a self-connect so
//! it drops the listener. Connections that were already open keep
//! answering queries off the final snapshot; their `apply`s get a
//! structured `shutting-down` error.

use ged_engine::validator::{ApplyStats, IncrementalValidator};
use ged_engine::view::ReadView;
use ged_ext::SigmaConstraint;
use ged_graph::{DeltaSet, Graph};
use ged_obs::Json;
use ged_proto::message::{
    code, err_response, ok_response, report_to_json, violation_to_json, Request, PROTOCOL_VERSION,
};
use ged_proto::wire::{read_frame, write_frame, WireError, DEFAULT_MAX_FRAME};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Per-frame byte cap enforced on incoming requests.
    pub max_frame: usize,
    /// Match threads for the validator's enumeration pool.
    pub threads: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame: DEFAULT_MAX_FRAME,
            threads: 1,
        }
    }
}

/// What the writer thread sends back for one applied batch.
#[derive(Debug)]
struct ApplyOutcome {
    epoch: u64,
    stats: ApplyStats,
    violations: usize,
}

/// Messages into the single writer thread.
enum WriterMsg {
    Apply(DeltaSet, mpsc::Sender<ApplyOutcome>),
    Shutdown(mpsc::Sender<u64>),
}

impl std::fmt::Debug for WriterMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriterMsg::Apply(ds, _) => f.debug_tuple("Apply").field(&ds.len()).finish(),
            WriterMsg::Shutdown(_) => f.write_str("Shutdown"),
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`DaemonHandle::stop`] (in-process) or send a `shutdown`
/// request over the wire, then [`DaemonHandle::join`].
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    tx: mpsc::Sender<WriterMsg>,
    shutting_down: Arc<AtomicBool>,
    /// Fallback epoch source when the writer has already exited (a wire
    /// shutdown won the race) — mirrors the wire path's fallback.
    view: ReadView<SigmaConstraint>,
    writer: Option<thread::JoinHandle<u64>>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The address the daemon is listening on (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger shutdown from the owning process: drain queued applies,
    /// publish the final epoch, close the listener. Returns the final
    /// epoch. Idempotent with a wire-side `shutdown`.
    pub fn stop(&self) -> u64 {
        let (reply_tx, reply_rx) = mpsc::channel();
        // Either fallback arm means the writer already exited (a wire
        // `shutdown` won the race), so the published epoch is final.
        let final_epoch = if self.tx.send(WriterMsg::Shutdown(reply_tx)).is_ok() {
            reply_rx.recv().unwrap_or_else(|_| self.view.epoch())
        } else {
            self.view.epoch()
        };
        wake_acceptor(&self.shutting_down, self.addr);
        final_epoch
    }

    /// Wait for the writer and accept threads to exit (shutdown must
    /// have been triggered, via [`stop`](DaemonHandle::stop) or a wire
    /// `shutdown` request). Returns the final published epoch.
    pub fn join(mut self) -> u64 {
        let final_epoch = self
            .writer
            .take()
            .map_or(0, |h| h.join().expect("writer thread panicked"));
        if let Some(h) = self.acceptor.take() {
            h.join().expect("accept thread panicked");
        }
        final_epoch
    }
}

/// Set the shutdown flag and unblock the accept thread's blocking
/// `accept()` with a throwaway self-connection.
fn wake_acceptor(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::SeqCst);
    // If the connect fails the listener is already gone — fine either way.
    drop(TcpStream::connect(addr));
}

/// Everything a connection handler needs, cheap to clone per connection.
struct ConnCtx {
    view: ReadView<SigmaConstraint>,
    tx: mpsc::Sender<WriterMsg>,
    shutting_down: Arc<AtomicBool>,
    rules: usize,
    max_frame: usize,
    addr: SocketAddr,
}

impl Clone for ConnCtx {
    fn clone(&self) -> ConnCtx {
        ConnCtx {
            view: self.view.clone(),
            tx: self.tx.clone(),
            shutting_down: Arc::clone(&self.shutting_down),
            rules: self.rules,
            max_frame: self.max_frame,
            addr: self.addr,
        }
    }
}

/// Start a daemon serving `sigma` over `graph` on `config.addr`.
///
/// The validator is seeded (initial full validation) and its read views
/// are activated before the listener opens, so the first query ever
/// answered already sees epoch 0 = the loaded graph.
pub fn spawn(
    graph: Graph,
    sigma: Vec<SigmaConstraint>,
    config: &DaemonConfig,
) -> std::io::Result<DaemonHandle> {
    let rules = sigma.len();
    let validator = IncrementalValidator::with_threads(graph, sigma, config.threads);
    let view = validator.read_view();

    let listener = TcpListener::bind(resolve(&config.addr)?)?;
    let addr = listener.local_addr()?;

    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = thread::Builder::new()
        .name("gedd-writer".to_string())
        .spawn(move || writer_loop(validator, &rx))?;

    let shutting_down = Arc::new(AtomicBool::new(false));
    let handle_view = view.clone();
    let ctx = ConnCtx {
        view,
        tx: tx.clone(),
        shutting_down: Arc::clone(&shutting_down),
        rules,
        max_frame: config.max_frame,
        addr,
    };
    let accept_flag = Arc::clone(&shutting_down);
    let acceptor = thread::Builder::new()
        .name("gedd-accept".to_string())
        .spawn(move || accept_loop(&listener, &ctx, &accept_flag))?;

    Ok(DaemonHandle {
        addr,
        tx,
        shutting_down,
        view: handle_view,
        writer: Some(writer),
        acceptor: Some(acceptor),
    })
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address {addr:?} resolved to nothing"),
        )
    })
}

/// The single writer: the only thread that ever mutates the validator.
/// Returns the final published epoch once a shutdown drains the queue.
fn writer_loop(
    mut validator: IncrementalValidator<SigmaConstraint>,
    rx: &mpsc::Receiver<WriterMsg>,
) -> u64 {
    let apply = |validator: &mut IncrementalValidator<SigmaConstraint>,
                 ds: DeltaSet,
                 reply: &mpsc::Sender<ApplyOutcome>| {
        let stats = validator.apply_all(&ds);
        // A dead reply sender means the client vanished mid-request; the
        // batch is still applied (it was accepted), the reply is dropped.
        reply
            .send(ApplyOutcome {
                epoch: validator.published_epoch(),
                stats,
                violations: validator.violation_count(),
            })
            .ok();
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Apply(ds, reply) => apply(&mut validator, ds, &reply),
            WriterMsg::Shutdown(reply) => {
                // Drain: every batch already accepted into the queue is
                // applied and answered before the final epoch is fixed.
                let mut shutdown_replies = vec![reply];
                while let Ok(queued) = rx.try_recv() {
                    match queued {
                        WriterMsg::Apply(ds, reply) => apply(&mut validator, ds, &reply),
                        WriterMsg::Shutdown(reply) => shutdown_replies.push(reply),
                    }
                }
                let final_epoch = validator.published_epoch();
                for reply in shutdown_replies {
                    reply.send(final_epoch).ok();
                }
                return final_epoch;
            }
        }
    }
    // All senders dropped without a shutdown (handle and conns gone).
    validator.published_epoch()
}

fn accept_loop(listener: &TcpListener, ctx: &ConnCtx, shutting_down: &AtomicBool) {
    loop {
        let conn = listener.accept();
        if shutting_down.load(Ordering::SeqCst) {
            // The wake connection (or any racer) is dropped unserved;
            // the listener closes when this function returns.
            return;
        }
        let Ok((stream, _peer)) = conn else { continue };
        let conn_ctx = ctx.clone();
        // Detached: the handler lives as long as its client (or the
        // process). Queries after shutdown still answer off the final
        // snapshot; nothing joins these.
        thread::Builder::new()
            .name("gedd-conn".to_string())
            .spawn(move || handle_conn(stream, &conn_ctx))
            .ok();
    }
}

/// Serve one connection: strict request→response per frame, in order.
fn handle_conn(stream: TcpStream, ctx: &ConnCtx) {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let frame = match read_frame(&mut reader, ctx.max_frame) {
            Ok(Some(frame)) => frame,
            // Clean EOF, a vanished peer, or transport failure: nothing
            // to answer, nobody to answer it to.
            Ok(None) | Err(WireError::Truncated | WireError::Io(_)) => return,
            Err(WireError::Oversized(n)) => {
                // The rest of the oversized line was not consumed, so the
                // stream cannot be re-synchronized: reply and hang up.
                let msg = format!("frame exceeds {} byte cap ({n}+ bytes)", ctx.max_frame);
                write_frame(&mut writer, &err_response(code::OVERSIZED, &msg)).ok();
                return;
            }
            Err(WireError::Malformed(m)) => {
                // The offending line was fully consumed; the connection
                // stays usable for the client's next request.
                if write_frame(&mut writer, &err_response(code::MALFORMED, &m)).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = respond(&frame, ctx);
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// Compute the response for one well-formed JSON request frame.
fn respond(frame: &Json, ctx: &ConnCtx) -> Json {
    let request = match Request::from_json(frame) {
        Ok(request) => request,
        Err(e) => return err_response(e.code, &e.message),
    };
    match request {
        Request::Apply(ds) => respond_apply(ds, ctx),
        Request::Violations => {
            let snap = ctx.view.snapshot();
            let report = snap.to_report();
            ok_response(vec![
                ("epoch", Json::from(snap.epoch())),
                ("count", Json::from(report.violations.len())),
                (
                    "violations",
                    report.violations.iter().map(violation_to_json).collect(),
                ),
            ])
        }
        Request::Report => {
            let snap = ctx.view.snapshot();
            report_to_json(snap.epoch(), &snap.to_report())
        }
        Request::IsSatisfied => {
            let snap = ctx.view.snapshot();
            ok_response(vec![
                ("epoch", Json::from(snap.epoch())),
                ("satisfied", Json::Bool(snap.is_satisfied())),
                ("violations", Json::from(snap.violation_count())),
            ])
        }
        Request::Metrics => ok_response(vec![
            ("epoch", Json::from(ctx.view.epoch())),
            ("metrics", ctx.view.metrics().to_json()),
        ]),
        Request::Health => ok_response(vec![
            ("protocol", Json::from(PROTOCOL_VERSION)),
            ("epoch", Json::from(ctx.view.epoch())),
            ("rules", Json::from(ctx.rules)),
            ("readers", Json::from(ctx.view.metrics().read_views)),
        ]),
        Request::Shutdown => {
            let (reply_tx, reply_rx) = mpsc::channel();
            let final_epoch = if ctx.tx.send(WriterMsg::Shutdown(reply_tx)).is_ok() {
                // A dropped reply means another shutdown won the race;
                // the published epoch is already final.
                reply_rx.recv().unwrap_or_else(|_| ctx.view.epoch())
            } else {
                ctx.view.epoch()
            };
            wake_acceptor(&ctx.shutting_down, ctx.addr);
            ok_response(vec![("final_epoch", Json::from(final_epoch))])
        }
    }
}

fn respond_apply(ds: DeltaSet, ctx: &ConnCtx) -> Json {
    if ctx.shutting_down.load(Ordering::SeqCst) {
        return err_response(code::SHUTTING_DOWN, "daemon is draining; writes refused");
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    if ctx.tx.send(WriterMsg::Apply(ds, reply_tx)).is_err() {
        return err_response(code::SHUTTING_DOWN, "writer has exited; writes refused");
    }
    match reply_rx.recv() {
        Ok(outcome) => ok_response(vec![
            ("epoch", Json::from(outcome.epoch)),
            ("applied", Json::from(outcome.stats.deltas_applied)),
            ("violations", Json::from(outcome.violations)),
            ("removed", Json::from(outcome.stats.violations_removed)),
            ("added", Json::from(outcome.stats.violations_added)),
            (
                "created",
                outcome
                    .stats
                    .created
                    .iter()
                    .map(|n| Json::from(u64::from(n.0)))
                    .collect(),
            ),
        ]),
        // The batch was queued but the writer exited (shutdown drained
        // past it): the write did not land in the final epoch.
        Err(_) => err_response(code::SHUTTING_DOWN, "batch dropped by shutdown drain"),
    }
}
