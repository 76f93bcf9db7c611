//! In-memory spans of the traced run and the arithmetic on them.
//!
//! Every traced request gets a root `client.request` span. Its children
//! are the steps the benchmark timed around calls into each layer:
//! `proto.*` codec steps (client-side ones inline, daemon-side ones
//! replayed on the same bytes after the window), `engine.*` steps from
//! the in-process twin, and `daemon.residual`, the round trip that no
//! timed step accounts for. Spans stay in memory until the run ends.

use std::fmt::Write as _;

/// One timed interval, in nanoseconds since the run started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to; shared by all spans of one request.
    pub request: u64,
    /// Layer-qualified step name, e.g. `proto.encode_request`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// that the union of `children` covers.
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut cut: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    cut.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (s, e) in cut {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.len() - covered
}

/// Round trip minus every timed part of the request, signed: negative
/// when the replayed parts add up to more than the observed round trip.
pub fn residual(round_trip: u64, parts: &[u64]) -> i64 {
    round_trip as i64 - parts.iter().sum::<u64>() as i64
}

/// The spans of one traced request: the root, the client-side steps
/// timed inline, the daemon-side steps timed by replay and
/// `daemon.residual`. Replayed steps happened between the client's send
/// and its receive, so they are laid end to end from the send; the
/// residual span covers the root's self time, which the daemon layer
/// owns since it is the only layer not timed on its own.
#[derive(Debug, Clone)]
pub struct RequestSpans {
    /// `client.request`.
    pub root: Span,
    /// Children, in the order they are laid out.
    pub children: Vec<Span>,
    /// Round trip minus every timed part; negative when the replayed
    /// parts add up to more than the round trip.
    pub residual_ns: i64,
}

impl RequestSpans {
    /// Assemble a request from its inline timings and replayed steps.
    ///
    /// `start..sent` is the encode, `received..end` the decode; the
    /// replayed `(name, duration)` steps are laid from `sent`.
    pub fn assemble(
        request: u64,
        (start, sent, received, end): (u64, u64, u64, u64),
        encode: &'static str,
        decode: &'static str,
        replayed: &[(&'static str, u64)],
    ) -> RequestSpans {
        let span = |name, start, end| Span {
            request,
            name,
            start,
            end,
        };
        let root = span("client.request", start, end);
        let mut children = vec![span(encode, start, sent), span(decode, received, end)];
        let mut at = sent;
        for &(name, ns) in replayed {
            children.push(span(name, at, at + ns));
            at += ns;
        }
        let parts: Vec<u64> = children.iter().map(Span::len).collect();
        let residual_ns = residual(root.len(), &parts);
        let self_ns = self_time(&root, &children);
        children.push(span("daemon.residual", at, at + self_ns));
        RequestSpans {
            root,
            children,
            residual_ns,
        }
    }

    /// Duration of the child named `name` (0 when absent).
    pub fn part(&self, name: &str) -> u64 {
        self.children
            .iter()
            .filter(|c| c.name == name)
            .map(Span::len)
            .sum()
    }
}

/// Serialise spans as one JSON object per line.
pub fn to_jsonl<'a>(requests: impl IntoIterator<Item = &'a RequestSpans>) -> String {
    let mut out = String::new();
    for r in requests {
        for (s, parent) in
            std::iter::once((&r.root, "")).chain(r.children.iter().map(|c| (c, r.root.name)))
        {
            let _ = writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, parent, s.start, s.end
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            request: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(0, 100);
        assert_eq!(self_time(&root, &[]), 100);
        assert_eq!(self_time(&root, &[span(10, 20), span(30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(&root, &[span(10, 40), span(30, 50)]), 60);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time(&root, &[span(90, 150)]), 90);
        assert_eq!(self_time(&root, &[span(0, 100), span(20, 30)]), 0);
    }

    #[test]
    fn residual_is_round_trip_minus_parts() {
        assert_eq!(residual(100, &[10, 20, 30]), 40);
        assert_eq!(residual(50, &[40, 20]), -10);
        let r = RequestSpans::assemble(
            7,
            (0, 10, 90, 100),
            "proto.encode_request",
            "proto.decode_reply",
            &[("proto.decode_request", 15), ("engine.apply_all", 40)],
        );
        assert_eq!(r.residual_ns, 100 - 10 - 10 - 15 - 40);
        assert_eq!(r.part("engine.apply_all"), 40);
        // When the parts fit, the residual is the root's self time, and
        // the residual span accounts for all of it.
        assert_eq!(r.part("daemon.residual"), 25);
        assert_eq!(self_time(&r.root, &r.children), 0);
        assert!(r.children.iter().all(|c| c.request == 7));
    }

    #[test]
    fn parts_exceeding_the_round_trip_give_a_negative_residual() {
        let r = RequestSpans::assemble(
            1,
            (0, 10, 20, 30),
            "proto.encode_request",
            "proto.decode_reply",
            &[("engine.apply_all", 50)],
        );
        assert_eq!(r.residual_ns, -40);
        // The laid-out parts cover the whole root, so no self time is
        // left for the residual span.
        assert_eq!(r.part("daemon.residual"), 0);
    }
}
