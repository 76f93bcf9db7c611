//! Per-layer attribution of the traced run.
//!
//! The client-side codec steps were timed inline by the load generator.
//! The daemon-side steps are timed here, after the window, by replaying
//! each traced request's work through the same public functions the
//! daemon calls: `Json::parse` + `Request::from_json` on the bytes that
//! were sent, the engine step on an in-process twin validator fed the
//! same acknowledged batches (its state is deterministic), and the
//! reply encoding. The engine's phase means come from the daemon's own
//! `metrics` reply, diffed over the window.

use crate::load::{Kind, Op, Reply};
use crate::stats;
use crate::trace::{self, RequestSpans};
use crate::workload::Inputs;
use ged_engine::IncrementalValidator;
use ged_proto::message::{ok_response, report_to_json};
use ged_proto::{Json, Request};
use std::collections::HashMap;
use std::time::Instant;

/// `(name, value, unit)` of one reported metric.
pub type Metric = (String, f64, &'static str);

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_nanos() as u64)
}

fn encode(json: &Json) -> String {
    let mut out = String::new();
    json.write(&mut out);
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A field of the engine metrics object, by path.
fn field(m: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(m, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// `(count, sum_ns)` of one engine phase histogram.
fn phase(m: &Json, name: &str) -> (f64, f64) {
    m.get_arr("phases")
        .unwrap_or_default()
        .iter()
        .find(|p| p.get_str("phase") == Some(name))
        .map_or((0.0, 0.0), |p| {
            (field(p, &["count"]), field(p, &["sum_ns"]))
        })
}

fn prefilter_rejects(m: &Json) -> f64 {
    m.get_arr("rules")
        .unwrap_or_default()
        .iter()
        .map(|r| field(r, &["prefilter_rejects"]))
        .sum()
}

/// Replay the daemon-side work of every traced request and return the
/// per-layer metrics. Spans are written to `spans_path`.
pub fn per_layer(
    inputs: &Inputs,
    ops: &[Op],
    before: &Json,
    after: &Json,
    spans_path: &std::path::Path,
) -> Vec<Metric> {
    let mut twin =
        IncrementalValidator::with_threads(inputs.graph.clone(), inputs.sigma.clone(), 1);
    let view = twin.read_view();
    let mut acked: Vec<usize> = ops
        .iter()
        .filter(|o| o.kind == Kind::Apply && o.ok)
        .map(|o| o.seq)
        .collect();
    acked.sort_unstable();
    let apply_ns: HashMap<usize, u64> = acked
        .iter()
        .map(|&seq| (seq, timed(|| twin.apply_all(inputs.batch(seq))).1))
        .collect();

    let report_line = Request::Report.to_json().to_string();
    let is_sat_line = Request::IsSatisfied.to_json().to_string();
    let mut traced: Vec<(Kind, RequestSpans)> = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        let Some(inline) = &op.inline else { continue };
        let (request_line, engine, engine_ns, encode_ns) = match inline.reply {
            Reply::Apply(r) => {
                let reply = ok_response(vec![
                    ("epoch", Json::from(r.epoch)),
                    ("applied", Json::from(r.applied)),
                    ("violations", Json::from(r.violations)),
                    ("removed", Json::from(r.removed)),
                    ("added", Json::from(r.added)),
                    ("created", Json::Arr(Vec::new())),
                ]);
                let encoded = inputs.encoded[op.seq % inputs.encoded.len()].as_str();
                let engine_ns = apply_ns[&op.seq];
                (
                    encoded,
                    "engine.apply_all",
                    engine_ns,
                    timed(|| encode(&reply)).1,
                )
            }
            Reply::Report(epoch) => {
                let (report, engine_ns) = timed(|| view.snapshot().to_report());
                let encode_ns = timed(|| encode(&report_to_json(epoch, &report))).1;
                (
                    report_line.as_str(),
                    "engine.to_report",
                    engine_ns,
                    encode_ns,
                )
            }
            Reply::IsSatisfied(epoch) => {
                let ((satisfied, count), engine_ns) = timed(|| {
                    let snap = view.snapshot();
                    (snap.is_satisfied(), snap.violation_count())
                });
                let reply = ok_response(vec![
                    ("epoch", Json::from(epoch)),
                    ("satisfied", Json::Bool(satisfied)),
                    ("violations", Json::from(count)),
                ]);
                let encode_ns = timed(|| encode(&reply)).1;
                (
                    is_sat_line.as_str(),
                    "engine.is_satisfied",
                    engine_ns,
                    encode_ns,
                )
            }
        };
        let decode_ns = timed(|| {
            let json = Json::parse(request_line).expect("the benchmark sent valid JSON");
            Request::from_json(&json).expect("the benchmark sent a valid request")
        })
        .1;
        traced.push((
            op.kind,
            RequestSpans::assemble(
                id as u64,
                (op.start, inline.sent, inline.received, op.end),
                "proto.encode_request",
                "proto.decode_reply",
                &[
                    ("proto.decode_request", decode_ns),
                    (engine, engine_ns),
                    ("proto.encode_reply", encode_ns),
                ],
            ),
        ));
    }
    let jsonl = trace::to_jsonl(traced.iter().map(|(_, r)| r));
    match spans_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(spans_path, jsonl))
    {
        Ok(()) => println!(
            "spans of {} traced requests: {}",
            traced.len(),
            spans_path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", spans_path.display()),
    }

    print_shares(&traced);
    let part_us = |kind: Kind, name: &str| {
        let xs: Vec<f64> = traced
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r.part(name) as f64 / 1e3)
            .collect();
        stats::mean(&xs)
    };
    let bytes = |kind: Kind, reply: bool| {
        let xs: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == kind)
            .filter_map(|o| o.inline.as_deref())
            .map(|i| {
                (if reply {
                    i.reply_bytes
                } else {
                    i.request_bytes
                }) as f64
            })
            .collect();
        stats::mean(&xs)
    };
    let residuals: Vec<f64> = traced
        .iter()
        .map(|(_, r)| r.residual_ns as f64 / 1e3)
        .collect();
    let round_trip: f64 = traced.iter().map(|(_, r)| r.root.len() as f64 / 1e3).sum();
    println!(
        "daemon.residual median {:.1}us over {} traced requests",
        if residuals.is_empty() {
            0.0
        } else {
            stats::median(&residuals)
        },
        residuals.len()
    );

    let delta = |path: &[&str]| field(after, path) - field(before, path);
    let batches = delta(&["batches"]);
    let attempts = delta(&["match_attempts"]);
    let phase_us = |name: &str| {
        let ((c0, s0), (c1, s1)) = (phase(before, name), phase(after, name));
        ratio(s1 - s0, c1 - c0) / 1e3
    };
    let engine_apply: Vec<f64> = apply_ns.values().map(|&ns| ns as f64 / 1e3).collect();
    let late: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind == Kind::Apply)
        .map(|o| (o.start - o.due) as f64 / 1e3)
        .collect();
    let overhead: Vec<f64> = [Kind::Apply, Kind::Report]
        .into_iter()
        .filter_map(|kind| {
            let p50 = |traced: bool| {
                let xs: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.kind == kind && o.ok && o.traced == traced)
                    .map(|o| (o.end - o.start) as f64)
                    .collect();
                (!xs.is_empty()).then(|| stats::median(&xs))
            };
            Some(p50(true)? / p50(false)? - 1.0)
        })
        .collect();

    vec![
        (
            "proto.encode_request_us".into(),
            part_us(Kind::Apply, "proto.encode_request"),
            "us",
        ),
        (
            "proto.decode_request_us".into(),
            part_us(Kind::Apply, "proto.decode_request"),
            "us",
        ),
        (
            "proto.encode_reply_us".into(),
            part_us(Kind::Report, "proto.encode_reply"),
            "us",
        ),
        (
            "proto.decode_reply_us".into(),
            part_us(Kind::Report, "proto.decode_reply"),
            "us",
        ),
        (
            "proto.request_bytes".into(),
            bytes(Kind::Apply, false),
            "bytes",
        ),
        (
            "proto.reply_bytes".into(),
            bytes(Kind::Report, true),
            "bytes",
        ),
        ("daemon.residual_us".into(), stats::mean(&residuals), "us"),
        (
            "daemon.residual_share".into(),
            ratio(residuals.iter().sum(), round_trip),
            "fraction",
        ),
        (
            "engine.apply_all_us".into(),
            stats::mean(&engine_apply),
            "us",
        ),
        (
            "engine.witness_drop_us".into(),
            phase_us("witness-drop"),
            "us",
        ),
        (
            "engine.materialize_us".into(),
            phase_us("affected-materialize"),
            "us",
        ),
        (
            "engine.reenumerate_us".into(),
            phase_us("anchored-reenumerate"),
            "us",
        ),
        (
            "engine.store_insert_us".into(),
            phase_us("store-insert"),
            "us",
        ),
        (
            "engine.publish_us".into(),
            phase_us("snapshot-publish"),
            "us",
        ),
        (
            "engine.seeding_ms".into(),
            phase(after, "seeding").1 / 1e6,
            "ms",
        ),
        (
            "engine.touched_nodes".into(),
            ratio(delta(&["touched_nodes"]), batches),
            "count",
        ),
        (
            "engine.witnesses_dropped".into(),
            ratio(delta(&["witnesses", "dropped"]), batches),
            "count",
        ),
        (
            "engine.witness_retained_frac".into(),
            ratio(
                delta(&["witnesses", "retained"]),
                delta(&["witnesses", "dropped"]),
            ),
            "fraction",
        ),
        (
            "engine.to_report_us".into(),
            part_us(Kind::Report, "engine.to_report"),
            "us",
        ),
        ("graph.delta_apply_us".into(), phase_us("delta-apply"), "us"),
        (
            "pattern.match_attempts".into(),
            ratio(attempts, batches),
            "count",
        ),
        (
            "pattern.prefilter_reject_frac".into(),
            ratio(
                prefilter_rejects(after) - prefilter_rejects(before),
                attempts,
            ),
            "fraction",
        ),
        (
            "pattern.match_yield".into(),
            ratio(delta(&["matches_found"]), attempts),
            "fraction",
        ),
        (
            "bench.writer_late_p99_us".into(),
            if late.is_empty() {
                0.0
            } else {
                stats::Latency::of(&late).p99
            },
            "us",
        ),
        (
            "bench.trace_overhead_frac".into(),
            stats::mean(&overhead),
            "fraction",
        ),
    ]
}

/// Print, per request kind, the mean round trip and each step's share.
fn print_shares(traced: &[(Kind, RequestSpans)]) {
    for kind in [Kind::Apply, Kind::Report, Kind::IsSatisfied] {
        let of_kind: Vec<&RequestSpans> = traced
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r)
            .collect();
        if of_kind.is_empty() {
            continue;
        }
        let n = of_kind.len() as f64;
        let rtt = of_kind.iter().map(|r| r.root.len() as f64).sum::<f64>() / n;
        let mut names: Vec<&'static str> = Vec::new();
        for r in &of_kind {
            for c in &r.children {
                if !names.contains(&c.name) {
                    names.push(c.name);
                }
            }
        }
        let shares: Vec<String> = names
            .iter()
            .map(|name| {
                let mean = of_kind.iter().map(|r| r.part(name) as f64).sum::<f64>() / n;
                format!("{name} {:.1}us ({:.1}%)", mean / 1e3, 100.0 * mean / rtt)
            })
            .collect();
        println!(
            "{kind:?}: {} traced, mean round trip {:.1}us = {}",
            of_kind.len(),
            rtt / 1e3,
            shares.join(", ")
        );
    }
}
