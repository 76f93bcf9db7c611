//! Request/response messages of the `gedd` protocol.
//!
//! Every request is one JSON object with a `cmd` field; every response
//! is one JSON object with an `ok` field. Error responses carry a
//! machine-readable `code` from a small closed taxonomy plus a
//! human-readable `error` message, so clients can branch without
//! string-matching prose. [`Delta`]/[`DeltaSet`] and
//! [`ValidationReport`] get explicit codecs here — the daemon and the
//! CLI never hand-roll field names.
//!
//! The attribute-value codec preserves the [`Value::Int`] /
//! [`Value::Float`] distinction (literal satisfaction distinguishes
//! `2` from `2.0`): the JSON writer emits integral floats with a
//! trailing `.0` and the parser classifies by the presence of a
//! fraction/exponent, so values survive a round trip bit-for-bit.

use ged_core::constraint::ViolationKind;
use ged_core::reason::ValidationReport;
use ged_core::satisfy::Violation;
use ged_graph::{sym, Delta, DeltaSet, NodeId, Value};
use ged_obs::Json;

/// Wire protocol version, reported by `health`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes used in `{"ok":false,"code":...}`
/// responses.
pub mod code {
    /// The frame was not valid JSON (or not UTF-8).
    pub const MALFORMED: &str = "malformed";
    /// The frame exceeded the daemon's per-frame byte cap.
    pub const OVERSIZED: &str = "oversized";
    /// The `cmd` field named no known request.
    pub const UNKNOWN_CMD: &str = "unknown-cmd";
    /// The request object was structurally invalid (missing/mistyped
    /// fields, unknown delta op, …).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The daemon is draining and no longer accepts writes.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The daemon failed internally while serving the request.
    pub const INTERNAL: &str = "internal";
}

/// A structured request-decoding failure: an error `code` from
/// [`code`] plus a message suitable for the `error` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> RequestError {
        RequestError {
            code: code::BAD_REQUEST,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RequestError {}

/// One request a client can make of the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a batch of deltas (the single-writer path).
    Apply(DeltaSet),
    /// List the current violations with witnesses.
    Violations,
    /// Full validation report (per-rule summaries + witnesses).
    Report,
    /// Just the `G ⊨ Σ` bit and violation count.
    IsSatisfied,
    /// Engine metrics snapshot.
    Metrics,
    /// Liveness/identity probe.
    Health,
    /// Drain queued applies, publish the final epoch, stop serving.
    Shutdown,
}

impl Request {
    /// Encode as the wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Apply(ds) => Json::obj(vec![
                ("cmd", Json::from("apply")),
                ("deltas", ds.deltas().iter().map(delta_to_json).collect()),
            ]),
            Request::Violations => cmd_only("violations"),
            Request::Report => cmd_only("report"),
            Request::IsSatisfied => cmd_only("is_satisfied"),
            Request::Metrics => cmd_only("metrics"),
            Request::Health => cmd_only("health"),
            Request::Shutdown => cmd_only("shutdown"),
        }
    }

    /// Decode a wire object; failures carry the error code the daemon
    /// should reply with.
    pub fn from_json(json: &Json) -> Result<Request, RequestError> {
        let cmd = json
            .get_str("cmd")
            .ok_or_else(|| RequestError::bad("request object needs a string `cmd` field"))?;
        match cmd {
            "apply" => {
                let arr = json
                    .get_arr("deltas")
                    .ok_or_else(|| RequestError::bad("`apply` needs a `deltas` array"))?;
                let mut ds = DeltaSet::new();
                for (i, d) in arr.iter().enumerate() {
                    ds.push(
                        delta_from_json(d)
                            .map_err(|e| RequestError::bad(format!("deltas[{i}]: {e}")))?,
                    );
                }
                Ok(Request::Apply(ds))
            }
            "violations" => Ok(Request::Violations),
            "report" => Ok(Request::Report),
            "is_satisfied" => Ok(Request::IsSatisfied),
            "metrics" => Ok(Request::Metrics),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(RequestError {
                code: code::UNKNOWN_CMD,
                message: format!("unknown cmd {other:?}"),
            }),
        }
    }
}

fn cmd_only(cmd: &str) -> Json {
    Json::obj(vec![("cmd", Json::from(cmd))])
}

/// Encode one [`Value`]. `Int` and `Float` stay distinct on the wire
/// (the writer renders integral floats as `N.0`).
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

/// Decode one [`Value`]; arrays/objects/null are not attribute values.
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    match json {
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        other => Err(format!("not an attribute value: {other}")),
    }
}

fn node_to_json(n: NodeId) -> Json {
    Json::Int(i64::from(n.0))
}

fn node_from_json(json: &Json) -> Result<NodeId, String> {
    match json.as_u64() {
        Some(id) if id <= u64::from(u32::MAX) => Ok(NodeId(id as u32)),
        _ => Err(format!("not a node id: {json}")),
    }
}

/// Encode one [`Delta`] as a tagged object (`{"op":"add_edge",...}`).
pub fn delta_to_json(d: &Delta) -> Json {
    match d {
        Delta::AddNode { label } => Json::obj(vec![
            ("op", Json::from("add_node")),
            ("label", Json::Str(label.name())),
        ]),
        Delta::RemoveNode { node } => Json::obj(vec![
            ("op", Json::from("remove_node")),
            ("node", node_to_json(*node)),
        ]),
        Delta::AddEdge { src, label, dst } => Json::obj(vec![
            ("op", Json::from("add_edge")),
            ("src", node_to_json(*src)),
            ("label", Json::Str(label.name())),
            ("dst", node_to_json(*dst)),
        ]),
        Delta::RemoveEdge { src, label, dst } => Json::obj(vec![
            ("op", Json::from("remove_edge")),
            ("src", node_to_json(*src)),
            ("label", Json::Str(label.name())),
            ("dst", node_to_json(*dst)),
        ]),
        Delta::SetAttr { node, attr, value } => Json::obj(vec![
            ("op", Json::from("set_attr")),
            ("node", node_to_json(*node)),
            ("attr", Json::Str(attr.name())),
            ("value", value_to_json(value)),
        ]),
        Delta::DelAttr { node, attr } => Json::obj(vec![
            ("op", Json::from("del_attr")),
            ("node", node_to_json(*node)),
            ("attr", Json::Str(attr.name())),
        ]),
    }
}

/// Decode one [`Delta`] from its tagged-object form.
pub fn delta_from_json(json: &Json) -> Result<Delta, String> {
    let op = json
        .get_str("op")
        .ok_or_else(|| "delta object needs a string `op` field".to_string())?;
    let node = |field: &str| -> Result<NodeId, String> {
        node_from_json(
            json.get(field)
                .ok_or_else(|| format!("`{op}` needs `{field}`"))?,
        )
    };
    let name = |field: &str| -> Result<String, String> {
        json.get_str(field)
            .map(str::to_string)
            .ok_or_else(|| format!("`{op}` needs a string `{field}`"))
    };
    match op {
        "add_node" => Ok(Delta::AddNode {
            label: sym(&name("label")?),
        }),
        "remove_node" => Ok(Delta::RemoveNode {
            node: node("node")?,
        }),
        "add_edge" => Ok(Delta::AddEdge {
            src: node("src")?,
            label: sym(&name("label")?),
            dst: node("dst")?,
        }),
        "remove_edge" => Ok(Delta::RemoveEdge {
            src: node("src")?,
            label: sym(&name("label")?),
            dst: node("dst")?,
        }),
        "set_attr" => Ok(Delta::SetAttr {
            node: node("node")?,
            attr: sym(&name("attr")?),
            value: value_from_json(
                json.get("value")
                    .ok_or_else(|| "`set_attr` needs `value`".to_string())?,
            )?,
        }),
        "del_attr" => Ok(Delta::DelAttr {
            node: node("node")?,
            attr: sym(&name("attr")?),
        }),
        other => Err(format!("unknown delta op {other:?}")),
    }
}

/// Build the shared `{"ok":true,...}` envelope around response fields.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// Build an `{"ok":false,"code":...,"error":...}` response.
pub fn err_response(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::from(code)),
        ("error", Json::from(message)),
    ])
}

/// One violation as carried on the wire: rule name, the witness
/// assignment, and the failure kind rendered with `Debug` (exactly the
/// string the in-process lockstep ledgers use, so protocol-level tests
/// compare witness sets without a reverse codec for [`ViolationKind`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WireViolation {
    /// Name of the violated rule.
    pub rule: String,
    /// The witness match (pattern-variable order).
    pub assignment: Vec<NodeId>,
    /// `format!("{:?}", kind)` of the [`ViolationKind`].
    pub kind: String,
}

/// Encode one in-process [`Violation`] for the wire.
pub fn violation_to_json(v: &Violation) -> Json {
    wire_violation_to_json(&v.ged_name, &v.assignment, &v.kind)
}

fn wire_violation_to_json(rule: &str, assignment: &[NodeId], kind: &ViolationKind) -> Json {
    Json::obj(vec![
        ("rule", Json::from(rule)),
        (
            "assignment",
            assignment.iter().map(|n| node_to_json(*n)).collect(),
        ),
        ("kind", Json::Str(format!("{kind:?}"))),
    ])
}

/// Decode one wire violation object.
pub fn violation_from_json(json: &Json) -> Result<WireViolation, String> {
    let rule = json
        .get_str("rule")
        .ok_or_else(|| "violation needs a string `rule`".to_string())?
        .to_string();
    let assignment = json
        .get_arr("assignment")
        .ok_or_else(|| "violation needs an `assignment` array".to_string())?
        .iter()
        .map(node_from_json)
        .collect::<Result<Vec<NodeId>, String>>()?;
    let kind = json
        .get_str("kind")
        .ok_or_else(|| "violation needs a string `kind`".to_string())?
        .to_string();
    Ok(WireViolation {
        rule,
        assignment,
        kind,
    })
}

/// Encode a full [`ValidationReport`] plus the epoch it was pinned at.
pub fn report_to_json(epoch: u64, report: &ValidationReport) -> Json {
    ok_response(vec![
        ("epoch", Json::from(epoch)),
        ("satisfied", Json::Bool(report.satisfied())),
        ("total", Json::from(report.violations.len())),
        (
            "rules",
            report
                .per_ged
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("name", Json::from(r.name.as_str())),
                        ("violations", Json::from(r.violation_count)),
                        ("satisfied", Json::Bool(r.satisfied)),
                    ])
                })
                .collect(),
        ),
        (
            "violations",
            report.violations.iter().map(violation_to_json).collect(),
        ),
    ])
}

/// Decoded `report` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportReply {
    /// Batch boundary the report was pinned at.
    pub epoch: u64,
    /// `G ⊨ Σ`?
    pub satisfied: bool,
    /// Per-rule (name, violation count, satisfied) rows in Σ order.
    pub rules: Vec<(String, u64, bool)>,
    /// All witnesses, Σ order then per-rule sorted.
    pub violations: Vec<WireViolation>,
}

/// Decode a `report` response body (after the `ok` check).
pub fn report_from_json(json: &Json) -> Result<ReportReply, String> {
    let epoch = json
        .get_u64("epoch")
        .ok_or_else(|| "report needs `epoch`".to_string())?;
    let satisfied = json
        .get_bool("satisfied")
        .ok_or_else(|| "report needs `satisfied`".to_string())?;
    let rules = json
        .get_arr("rules")
        .ok_or_else(|| "report needs `rules`".to_string())?
        .iter()
        .map(|r| {
            Ok((
                r.get_str("name")
                    .ok_or_else(|| "rule row needs `name`".to_string())?
                    .to_string(),
                r.get_u64("violations")
                    .ok_or_else(|| "rule row needs `violations`".to_string())?,
                r.get_bool("satisfied")
                    .ok_or_else(|| "rule row needs `satisfied`".to_string())?,
            ))
        })
        .collect::<Result<Vec<(String, u64, bool)>, String>>()?;
    let violations = json
        .get_arr("violations")
        .ok_or_else(|| "report needs `violations`".to_string())?
        .iter()
        .map(violation_from_json)
        .collect::<Result<Vec<WireViolation>, String>>()?;
    Ok(ReportReply {
        epoch,
        satisfied,
        rules,
        violations,
    })
}

/// Decoded `apply` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReply {
    /// Epoch published by (or current after) this batch.
    pub epoch: u64,
    /// Deltas that actually changed the graph.
    pub applied: u64,
    /// Live violations after the batch.
    pub violations: u64,
    /// Witnesses dropped by the batch.
    pub removed: u64,
    /// Witnesses added by the batch.
    pub added: u64,
}

/// Decode an `apply` response body (after the `ok` check).
pub fn apply_from_json(json: &Json) -> Result<ApplyReply, String> {
    let field = |name: &str| {
        json.get_u64(name)
            .ok_or_else(|| format!("apply reply needs `{name}`"))
    };
    Ok(ApplyReply {
        epoch: field("epoch")?,
        applied: field("applied")?,
        violations: field("violations")?,
        removed: field("removed")?,
        added: field("added")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &Request) -> Request {
        let json = req.to_json();
        // The wire carries text, not `Json` values: go through it.
        let text = json.to_string();
        Request::from_json(&Json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn query_requests_roundtrip() {
        for req in [
            Request::Violations,
            Request::Report,
            Request::IsSatisfied,
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(roundtrip(&req), req);
        }
    }

    #[test]
    fn apply_roundtrips_every_delta_shape() {
        let ds: DeltaSet = vec![
            Delta::AddNode {
                label: sym("person"),
            },
            Delta::RemoveNode { node: NodeId(3) },
            Delta::AddEdge {
                src: NodeId(1),
                label: sym("knows"),
                dst: NodeId(2),
            },
            Delta::RemoveEdge {
                src: NodeId(2),
                label: sym("knows"),
                dst: NodeId(2),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("age"),
                value: Value::Int(2),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("rating"),
                value: Value::Float(2.0),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("name"),
                value: Value::Str("ann \"q\"".to_string()),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("fake"),
                value: Value::Bool(true),
            },
            Delta::DelAttr {
                node: NodeId(1),
                attr: sym("age"),
            },
        ]
        .into();
        assert_eq!(roundtrip(&Request::Apply(ds.clone())), Request::Apply(ds));
    }

    #[test]
    fn int_float_distinction_survives_the_wire() {
        let int = value_to_json(&Value::Int(2)).to_string();
        let float = value_to_json(&Value::Float(2.0)).to_string();
        assert_eq!(int, "2");
        assert_eq!(float, "2.0");
        assert_eq!(
            value_from_json(&Json::parse(&int).unwrap()).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            value_from_json(&Json::parse(&float).unwrap()).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn decode_failures_carry_codes() {
        let e = Request::from_json(&Json::parse("{\"cmd\":\"frobnicate\"}").unwrap()).unwrap_err();
        assert_eq!(e.code, code::UNKNOWN_CMD);
        let e = Request::from_json(&Json::parse("{\"cmd\":\"apply\"}").unwrap()).unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        let e = Request::from_json(
            &Json::parse("{\"cmd\":\"apply\",\"deltas\":[{\"op\":\"warp\"}]}").unwrap(),
        )
        .unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        assert!(e.message.contains("deltas[0]"), "{}", e.message);
        let e = Request::from_json(&Json::parse("[1,2]").unwrap()).unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
    }

    #[test]
    fn responses_carry_the_ok_envelope() {
        let ok = ok_response(vec![("epoch", Json::from(4u64))]);
        assert_eq!(ok.get_bool("ok"), Some(true));
        assert_eq!(ok.get_u64("epoch"), Some(4));
        let err = err_response(code::MALFORMED, "bad line");
        assert_eq!(err.get_bool("ok"), Some(false));
        assert_eq!(err.get_str("code"), Some(code::MALFORMED));
    }

    #[test]
    fn report_roundtrips() {
        use ged_core::reason::{GedReport, ValidationReport};
        let report = ValidationReport {
            per_ged: vec![
                GedReport {
                    name: "keys".to_string(),
                    violation_count: 1,
                    satisfied: false,
                },
                GedReport {
                    name: "ages".to_string(),
                    violation_count: 0,
                    satisfied: true,
                },
            ],
            violations: vec![Violation {
                ged_name: "keys".to_string(),
                assignment: vec![NodeId(4), NodeId(7)],
                kind: ViolationKind::Disjunction,
            }],
        };
        let json = Json::parse(&report_to_json(3, &report).to_string()).unwrap();
        let reply = report_from_json(&json).unwrap();
        assert_eq!(reply.epoch, 3);
        assert!(!reply.satisfied);
        assert_eq!(reply.rules.len(), 2);
        assert_eq!(reply.rules[0], ("keys".to_string(), 1, false));
        assert_eq!(reply.violations.len(), 1);
        assert_eq!(reply.violations[0].assignment, vec![NodeId(4), NodeId(7)]);
        assert_eq!(
            reply.violations[0].kind,
            format!("{:?}", ViolationKind::Disjunction)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::{run_cases, TestRng};

    const NAMES: &[&str] = &["person", "knows", "age", "a \"q\"", "t\\b", "ünï", "🦀", ""];

    fn node(rng: &mut TestRng) -> NodeId {
        NodeId(if rng.chance(0.2) {
            u32::MAX
        } else {
            rng.below(64) as u32
        })
    }

    fn name(rng: &mut TestRng) -> ged_graph::Symbol {
        sym(NAMES[rng.below(NAMES.len())])
    }

    fn value(rng: &mut TestRng) -> Value {
        match rng.below(6) {
            0 => Value::Int(rng.next_u64() as i64),
            1 => Value::Int(rng.below(5) as i64),
            2 => Value::Float(rng.below(5) as f64),
            3 => {
                let f = f64::from_bits(rng.next_u64());
                Value::Float(if f.is_finite() { f } else { -0.5 })
            }
            4 => Value::Bool(rng.chance(0.5)),
            _ => Value::Str(NAMES[rng.below(NAMES.len())].to_string()),
        }
    }

    fn delta(rng: &mut TestRng) -> Delta {
        match rng.below(6) {
            0 => Delta::AddNode { label: name(rng) },
            1 => Delta::RemoveNode { node: node(rng) },
            2 => Delta::AddEdge {
                src: node(rng),
                label: name(rng),
                dst: node(rng),
            },
            3 => Delta::RemoveEdge {
                src: node(rng),
                label: name(rng),
                dst: node(rng),
            },
            4 => Delta::SetAttr {
                node: node(rng),
                attr: name(rng),
                value: value(rng),
            },
            _ => Delta::DelAttr {
                node: node(rng),
                attr: name(rng),
            },
        }
    }

    /// Every request survives encode → one-line text → decode: random
    /// `Apply` batches over every delta op and value kind, and every
    /// query request.
    #[test]
    fn requests_roundtrip_through_the_wire_text() {
        run_cases("requests_roundtrip_through_the_wire_text", |rng| {
            let deltas: Vec<Delta> = (0..rng.below(24)).map(|_| delta(rng)).collect();
            for req in [
                Request::Apply(deltas.into()),
                Request::Violations,
                Request::Report,
                Request::IsSatisfied,
                Request::Metrics,
                Request::Health,
                Request::Shutdown,
            ] {
                let text = req.to_json().to_string();
                let json = Json::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
                let back = Request::from_json(&json)
                    .map_err(|e| TestCaseError::fail(format!("{e:?}: {text}")))?;
                prop_assert_eq!(back, req);
            }
            Ok(())
        });
    }
}
