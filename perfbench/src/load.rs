//! The load generator: the request loops and the two ways a request
//! reaches the daemon.
//!
//! The untraced run talks through `ged_proto::Client`, as any client
//! would. The traced run sends the same bytes over a plain socket so it
//! can time the client-side codec steps on their own; it alternates
//! traced and untraced blocks of [`TRACE_BLOCK_NS`], and the ratio of
//! the two blocks' latencies is the tracing overhead.

use crate::workload::Inputs;
use ged_proto::client::unwrap_ok;
use ged_proto::message::{apply_from_json, report_from_json};
use ged_proto::{ApplyReply, Client, Json, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Length of one traced or untraced block of the traced run.
pub const TRACE_BLOCK_NS: u64 = 250_000_000;

/// Nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    /// Now, in nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A request kind the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `apply`.
    Apply,
    /// `report`.
    Report,
    /// `is_satisfied`.
    IsSatisfied,
}

/// The decoded reply, as much of it as the replay of the daemon's
/// reply encoding needs.
#[derive(Debug, Clone, Copy)]
pub enum Reply {
    /// An `apply` reply.
    Apply(ApplyReply),
    /// A `report` reply pinned at this epoch.
    Report(u64),
    /// An `is_satisfied` reply pinned at this epoch.
    IsSatisfied(u64),
}

/// Client-side timings of a traced request, beyond its start and end.
#[derive(Debug, Clone, Copy)]
pub struct Inline {
    /// Encoding done; the request is about to be written.
    pub sent: u64,
    /// The reply line has been read; decoding starts.
    pub received: u64,
    /// Request line length, newline included.
    pub request_bytes: usize,
    /// Reply line length, newline included.
    pub reply_bytes: usize,
    /// The decoded reply.
    pub reply: Reply,
}

/// One request as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Op {
    /// What was asked.
    pub kind: Kind,
    /// Stream position of an `apply` (0 for reads).
    pub seq: usize,
    /// When the request was due: its schedule slot in an open loop, the
    /// previous reply in a closed loop.
    pub due: u64,
    /// Whether it was sent on a schedule (open loop).
    pub scheduled: bool,
    /// When the generator began the request.
    pub start: u64,
    /// When the reply was decoded.
    pub end: u64,
    /// Whether the daemon answered `ok` with a decodable reply.
    pub ok: bool,
    /// Whether the request fell in a traced block.
    pub traced: bool,
    /// Client-side step timings of a traced request (boxed, so the
    /// untraced run's bookkeeping stays small next to the daemon's
    /// memory in `peak_rss_mb`).
    pub inline: Option<Box<Inline>>,
}

impl Op {
    /// Latency in microseconds: the round trip, or in an open loop the
    /// time since the request was due, which counts the wait a stall
    /// imposes on later requests. +∞ for a failure, so a failed request
    /// misses every latency limit.
    pub fn latency_us(&self) -> f64 {
        let from = if self.scheduled { self.due } else { self.start };
        if self.ok {
            (self.end - from) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// A connection to the daemon.
#[derive(Debug)]
pub enum Conn {
    /// Through the protocol's client.
    Client(Client),
    /// Through a plain socket, for the traced run.
    Raw {
        /// Write half.
        writer: TcpStream,
        /// Read half.
        reader: BufReader<TcpStream>,
        /// Reused request line.
        out: String,
        /// Reused reply line.
        line: String,
    },
}

impl Conn {
    /// Connect the way the run asks for.
    pub fn connect(addr: SocketAddr, raw: bool) -> std::io::Result<Conn> {
        if !raw {
            return Ok(Conn::Client(Client::connect(addr)?));
        }
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn::Raw {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            out: String::new(),
            line: String::new(),
        })
    }

    /// Send one request and wait for its reply, returning `(start, end,
    /// ok, inline)`. `traced` takes the client-side step timings.
    fn call(
        &mut self,
        clock: &Clock,
        kind: Kind,
        request: Request,
        traced: bool,
    ) -> (u64, u64, bool, Option<Box<Inline>>) {
        match self {
            Conn::Client(client) => {
                let start = clock.now();
                let (ok, reply) = match request {
                    Request::Apply(ds) => (client.apply(ds).is_ok(), None),
                    Request::Report => {
                        let r = client.report();
                        (r.is_ok(), Some(r))
                    }
                    _ => (client.is_satisfied().is_ok(), None),
                };
                let end = clock.now();
                drop(reply);
                (start, end, ok, None)
            }
            Conn::Raw {
                writer,
                reader,
                out,
                line,
            } => {
                let start = clock.now();
                out.clear();
                request.to_json().write(out);
                out.push('\n');
                let sent = if traced { clock.now() } else { 0 };
                line.clear();
                let io = writer
                    .write_all(out.as_bytes())
                    .and_then(|()| reader.read_line(line));
                let received = if traced { clock.now() } else { 0 };
                let decoded = match io {
                    Ok(n) if n > 0 => decode(kind, line.trim_end()),
                    _ => None,
                };
                let end = clock.now();
                let ok = decoded.is_some();
                let inline = decoded.filter(|_| traced).map(|(reply, _report)| {
                    Box::new(Inline {
                        sent,
                        received,
                        request_bytes: out.len(),
                        reply_bytes: line.len(),
                        reply,
                    })
                });
                (start, end, ok, inline)
            }
        }
    }
}

/// Decode a reply line the way `Client` does, keeping the decoded report
/// alive until the caller has read the clock.
fn decode(kind: Kind, line: &str) -> Option<(Reply, Option<ged_proto::ReportReply>)> {
    let body = unwrap_ok(Json::parse(line).ok()?).ok()?;
    match kind {
        Kind::Apply => Some((Reply::Apply(apply_from_json(&body).ok()?), None)),
        Kind::Report => {
            let report = report_from_json(&body).ok()?;
            Some((Reply::Report(report.epoch), Some(report)))
        }
        Kind::IsSatisfied => {
            body.get_bool("satisfied")?;
            body.get_u64("violations")?;
            Some((Reply::IsSatisfied(body.get_u64("epoch")?), None))
        }
    }
}

/// Whether a request starting now falls in a traced block.
fn in_traced_block(clock: &Clock, trace: bool) -> bool {
    trace && (clock.now() / TRACE_BLOCK_NS) % 2 == 1
}

fn send(
    conn: &mut Conn,
    clock: &Clock,
    (kind, request): (Kind, Request),
    seq: usize,
    (due, scheduled): (u64, bool),
    trace: bool,
) -> Op {
    let traced = in_traced_block(clock, trace);
    let (start, end, ok, inline) = conn.call(clock, kind, request, traced);
    Op {
        kind,
        seq,
        due,
        scheduled,
        start,
        end,
        ok,
        traced,
        inline,
    }
}

fn apply(inputs: &Inputs, seq: usize) -> (Kind, Request) {
    (Kind::Apply, Request::Apply(inputs.batch(seq).clone()))
}

/// Closed-loop writer over the stream positions `seqs`: each batch is
/// due when the previous reply arrives.
pub fn closed_writer(
    conn: &mut Conn,
    clock: &Clock,
    inputs: &Inputs,
    seqs: std::ops::Range<usize>,
    trace: bool,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(seqs.len());
    let mut due = clock.now();
    for seq in seqs {
        let op = send(conn, clock, apply(inputs, seq), seq, (due, false), trace);
        due = op.end;
        ops.push(op);
    }
    ops
}

/// Open-loop writer: the `k`-th batch of the stream is due at
/// `k × period` and sent then, however late the previous reply was.
/// Runs until `until`.
pub fn open_writer(
    conn: &mut Conn,
    clock: &Clock,
    inputs: &Inputs,
    (period, until): (u64, u64),
    trace: bool,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for seq in 0.. {
        let due = seq as u64 * period;
        if due >= until {
            break;
        }
        let now = clock.now();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        ops.push(send(
            conn,
            clock,
            apply(inputs, seq),
            seq,
            (due, true),
            trace,
        ));
    }
    ops
}

/// Closed-loop reader: one `report`, then four `is_satisfied`, repeated
/// until `until` or until `max` requests have been sent.
pub fn reader(conn: &mut Conn, clock: &Clock, (until, max): (u64, usize), trace: bool) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut due = clock.now();
    for k in 0..max {
        if due >= until {
            break;
        }
        let request = if k % 5 == 0 {
            (Kind::Report, Request::Report)
        } else {
            (Kind::IsSatisfied, Request::IsSatisfied)
        };
        let op = send(conn, clock, request, 0, (due, false), trace);
        due = op.end;
        ops.push(op);
    }
    ops
}
