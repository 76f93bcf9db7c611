//! Fault injection against a live `gedd`: malformed frames, oversized
//! and truncated payloads, abrupt disconnects mid-request, and two
//! racing `apply` writers. In every case the daemon must answer with a
//! structured error or drop just that connection — never panic — and
//! clients connecting afterwards must see an uncorrupted epoch whose
//! witness set equals a clean from-scratch validate of a local mirror.

use ged_daemon::{spawn, workload, DaemonConfig, DaemonHandle};
use ged_obs::Json;
use ged_proto::{code, Client, ClientError, Request, WireViolation};
use ged_repro::prelude::*;
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

type Witnesses = BTreeSet<(String, Vec<NodeId>, String)>;

fn witness_set(report: &ged_repro::core::ValidationReport) -> Witnesses {
    report
        .violations
        .iter()
        .map(|v| {
            (
                v.ged_name.clone(),
                v.assignment.clone(),
                format!("{:?}", v.kind),
            )
        })
        .collect()
}

fn wire_witness_set(violations: &[WireViolation]) -> Witnesses {
    violations
        .iter()
        .map(|v| (v.rule.clone(), v.assignment.clone(), v.kind.clone()))
        .collect()
}

/// Spawn a daemon plus its local mirror twin (the deterministic spec
/// loader yields identical state for both).
fn daemon_with_mirror(
    spec: &str,
    config: &DaemonConfig,
) -> (DaemonHandle, Graph, Vec<SigmaConstraint>) {
    let (daemon_graph, daemon_sigma) = workload::load(spec).unwrap();
    let (mirror, sigma) = workload::load(spec).unwrap();
    let handle = spawn(daemon_graph, daemon_sigma, config).unwrap();
    (handle, mirror, sigma)
}

fn fresh_client(handle: &DaemonHandle) -> Client {
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// A fresh client must see exactly the mirror's validate at `epoch`.
fn assert_uncorrupted(
    handle: &DaemonHandle,
    mirror: &Graph,
    sigma: &[SigmaConstraint],
    epoch: u64,
) {
    let mut probe = fresh_client(handle);
    let report = probe.report().expect("fresh client must be served");
    assert_eq!(report.epoch, epoch, "epoch corrupted by the fault");
    assert_eq!(
        wire_witness_set(&report.violations),
        witness_set(&validate(mirror, sigma, None)),
        "witness set corrupted by the fault"
    );
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let (handle, mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=41", &DaemonConfig::default());
    let mut client = fresh_client(&handle);

    for hostile in [
        "this is not json",
        "{\"cmd\":",
        "[1,2,3,,]",
        "{\"cmd\" \"health\"}",
        "\"just a string with no cmd\"[]trailing",
    ] {
        // The client type only sends valid JSON; deliver the hostile
        // bytes raw, then wrap the stream to read the structured reply.
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(hostile.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        let mut via = Client::from_stream(raw).unwrap();
        let reply = via.read_reply().expect("structured reply, not a hangup");
        assert_eq!(reply.get_bool("ok"), Some(false), "{hostile}");
        assert_eq!(reply.get_str("code"), Some(code::MALFORMED), "{hostile}");
        // The same connection stays usable after the bad line.
        let health = via.health().expect("connection must survive");
        assert_eq!(health.epoch, 0);
    }

    // Structurally-bad requests (valid JSON) get their own codes.
    let reply = client
        .round_trip(&Json::parse("{\"cmd\":\"frobnicate\"}").unwrap())
        .unwrap();
    assert_eq!(reply.get_str("code"), Some(code::UNKNOWN_CMD));
    let reply = client
        .round_trip(&Json::parse("{\"cmd\":\"apply\",\"deltas\":[{\"op\":\"warp\"}]}").unwrap())
        .unwrap();
    assert_eq!(reply.get_str("code"), Some(code::BAD_REQUEST));
    let reply = client.round_trip(&Json::parse("[]").unwrap()).unwrap();
    assert_eq!(reply.get_str("code"), Some(code::BAD_REQUEST));

    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

#[test]
fn a_blank_line_flood_does_not_kill_the_daemon() {
    // Regression: frame reading used to recurse once per blank line, so
    // a hostile client could overflow the handler thread's stack — a
    // process-level abort, not a dropped connection — with a few hundred
    // KB of '\n' bytes, each line comfortably under the frame cap.
    let (handle, mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=44", &DaemonConfig::default());

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&vec![b'\n'; 500_000]).unwrap();
    // The flood is skipped in O(1) stack; the next real frame answers.
    let mut via = Client::from_stream(raw).unwrap();
    let health = via.health().expect("daemon must survive the flood");
    assert_eq!(health.epoch, 0);

    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

#[test]
fn oversized_frames_are_refused_and_the_connection_dropped() {
    let config = DaemonConfig {
        max_frame: 4096,
        ..Default::default()
    };
    let (handle, mirror, sigma) = daemon_with_mirror("mixed:honest=10,plants=1,seed=42", &config);

    let mut client = fresh_client(&handle);
    let huge = format!("{{\"cmd\":\"health\",\"pad\":\"{}\"}}", "x".repeat(100_000));
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(huge.as_bytes()).unwrap();
    raw.write_all(b"\n").unwrap();
    let mut via = Client::from_stream(raw).unwrap();
    let reply = via.read_reply().expect("structured error before hangup");
    assert_eq!(reply.get_bool("ok"), Some(false));
    assert_eq!(reply.get_str("code"), Some(code::OVERSIZED));
    // The stream cannot be re-synchronized: the daemon hangs up.
    assert!(matches!(
        via.health(),
        Err(ClientError::ConnectionClosed | ClientError::Wire(_))
    ));

    // Other clients are unaffected.
    assert!(client.health().is_ok());
    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

#[test]
fn truncated_frames_and_abrupt_disconnects_leave_the_daemon_serving() {
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=43", &DaemonConfig::default());

    // Truncated: bytes with no newline, then the peer vanishes.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"{\"cmd\":\"appl").unwrap();
        drop(raw);
    }

    // Abrupt disconnect mid-request: a full apply frame, connection torn
    // down before reading the reply. The batch was accepted, so it must
    // still land; only the reply is lost.
    let batch: DeltaSet = vec![Delta::AddNode {
        label: sym("account"),
    }]
    .into();
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        let req = Request::Apply(batch.clone()).to_json().to_string();
        raw.write_all(req.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        drop(raw);
    }
    for d in &batch {
        mirror.apply_delta(d);
    }

    // The disconnected client's batch lands asynchronously: poll a fresh
    // connection until the epoch reaches the expected boundary.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut probe = fresh_client(&handle);
    loop {
        let (epoch, _, _) = probe.is_satisfied().unwrap();
        if epoch >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dropped client's accepted batch never published"
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert_uncorrupted(&handle, &mirror, &sigma, 1);
    handle.stop();
    handle.join();
}

#[test]
fn two_racing_apply_writers_serialize_without_corruption() {
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=12,plants=1,seed=44", &DaemonConfig::default());

    // Two disjoint, commutative batches: writes to different nodes with
    // fresh values, so the final state is interleaving-independent and
    // the mirror can apply them in either order.
    let nodes: Vec<NodeId> = mirror.nodes().take(4).collect();
    let batch_a: DeltaSet = vec![
        Delta::SetAttr {
            node: nodes[0],
            attr: sym("bio"),
            value: Value::from("written by a"),
        },
        Delta::SetAttr {
            node: nodes[1],
            attr: sym("age"),
            value: Value::from(7i64),
        },
    ]
    .into();
    let batch_b: DeltaSet = vec![
        Delta::SetAttr {
            node: nodes[2],
            attr: sym("bio"),
            value: Value::from("written by b"),
        },
        Delta::SetAttr {
            node: nodes[3],
            attr: sym("tier"),
            value: Value::from("gold"),
        },
    ]
    .into();

    let addr = handle.addr();
    let (epoch_a, epoch_b) = thread::scope(|s| {
        let a = {
            let batch = batch_a.clone();
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.apply(batch).expect("writer a").epoch
            })
        };
        let b = {
            let batch = batch_b.clone();
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.apply(batch).expect("writer b").epoch
            })
        };
        (a.join().unwrap(), b.join().unwrap())
    });

    // The single-writer channel serializes the two batches: both change
    // the store's graph, so they publish distinct epochs 1 and 2.
    let mut epochs = [epoch_a, epoch_b];
    epochs.sort_unstable();
    assert_eq!(epochs, [1, 2], "racing applies must serialize");

    for d in batch_a.deltas().iter().chain(batch_b.deltas()) {
        mirror.apply_delta(d);
    }
    assert_uncorrupted(&handle, &mirror, &sigma, 2);
    handle.stop();
    handle.join();
}
