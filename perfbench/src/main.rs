//! End-to-end benchmark of the `gedd` validation daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-ingest|match-ingest|read-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One invocation generates the
//! workload's graph, Σ and delta stream from the seed, starts a daemon
//! in-process on loopback with `ged_daemon::spawn`, drives it over TCP
//! for `--seconds`, cut into slices of identical work, and then checks
//! the daemon's final violations against a from-scratch validation of a
//! mirror graph. A mismatch exits non-zero without printing metrics.
//! The last line of standard output is one JSON object: the end-to-end
//! metrics over the least slowed slices with `--trace 0`, the per-layer
//! metrics over the whole run with `--trace 1`.

mod layers;
mod load;
mod stats;
mod trace;
mod workload;

use ged_core::reason::validate;
use ged_daemon::{spawn, DaemonConfig, DaemonHandle};
use ged_graph::NodeId;
use ged_proto::{Client, Json};
use layers::Metric;
use load::{Clock, Conn, Kind, Op};
use stats::Latency;
use std::collections::BTreeSet;
use std::ops::Range;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload};

/// Daemon start-ups timed per run, after one untimed warm-up; `setup_s`
/// is their median.
const SETUP_RUNS: usize = 41;

/// Pause between two start-ups. A start-up takes well under 10 ms, and
/// a shared host's speed changes every few seconds, so start-ups timed
/// back to back would all see the same few moments of the host; spread
/// over two seconds their median varies less from run to run.
const SETUP_GAP: Duration = Duration::from_millis(50);

/// Reads an ingest pass sends after its writes (one `report` to four
/// `is_satisfied`), so that the reads see the starting graph.
const READS_PER_PASS: usize = 250;

/// Slices the writes of an ingest pass are cut into, each a run of
/// consecutive batches of the cycle.
const WRITE_SLICES: usize = 8;

/// Requests in a slice of the reads of an ingest pass.
const READ_SLICE: usize = 50;

/// The `read-mix` writer's schedule: one batch every 5 ms.
const OPEN_LOOP_PERIOD_NS: u64 = 5_000_000;

/// Length of a `read-mix` slice: 50 of the writer's batches.
const READ_MIX_SLICE_NS: u64 = 250_000_000;

/// Share of the slices of each stratum that the end-to-end metrics are
/// taken over: for the write metrics the slices whose writes took least
/// time on average, for the read metrics those whose reads did. The
/// slices of a stratum repeat the same work, and other tenants of a
/// shared host only ever slow a slice down: on a shared 2-vCPU virtual
/// machine a fixed loop of arithmetic bound to one vCPU switches between
/// ~7 and ~10 ms every few seconds, and the same `match-ingest` batches
/// take up to 2× as long. So the fastest slices are the best estimate of
/// the program's own cost, and a change that slows the program slows
/// them too. A tenth rather than a quarter, because the fast stretches
/// can be rare in a run: over eight `bulk-ingest` seeds the spread
/// (IQR ÷ median) of the slices' mean `apply` latency was 0.19 for the
/// fastest tenth, 0.20 for the fastest quarter and 0.22 for the median.
const BEST_SHARE: f64 = 0.1;

/// A stretch of a run whose work every other slice of its stratum
/// repeats. In an ingest workload each pass of the batch cycle gives one
/// slice of each of the [`WRITE_SLICES`] write strata (the same batches
/// in every pass) and [`READS_PER_PASS`] / [`READ_SLICE`] slices of the
/// one read stratum (the reads all see the starting graph). In
/// `read-mix` every [`READ_MIX_SLICE_NS`] of both connections' traffic
/// is a slice of the one stratum: the writer's batches are alike.
#[derive(Debug)]
struct Slice {
    /// The slice's requests, as indices into the run's ops.
    ops: Range<usize>,
    stratum: usize,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let listed = Listed::read()?;
    let max_behind = listed.bound("deltas_per_s")?;
    if args.workload != Workload::ReadMix {
        // Before the daemon starts: its threads inherit the binding.
        let cpu = pin_to_current_cpu()?;
        println!("bound to CPU {cpu}");
    }
    let inputs = args.workload.inputs(args.seed);
    println!(
        "workload {} seed {}: |V|={} |E|={} rules={} batch={} deltas, cycle of {} batches, \
         stream hash {:016x}",
        args.workload.name(),
        args.seed,
        inputs.graph.node_count(),
        inputs.graph.edge_count(),
        inputs.sigma.len(),
        inputs.batch_size(),
        inputs.cycle.len(),
        inputs.stream_hash,
    );

    let (handle, setup) = setup(&inputs)?;
    let addr = handle.addr();
    let mut control = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let starting = control.is_satisfied().map_err(|e| e.to_string())?.2;
    println!("starting violations: {starting}");

    let window_ns = (args.seconds * 1e9) as u64;
    let metrics_before = control.metrics().map_err(|e| e.to_string())?;
    let ticks = cpu_ticks();
    let clock = Clock(Instant::now());
    let (ops, slices) = drive(
        args.workload,
        &inputs,
        addr,
        (&clock, window_ns),
        args.trace,
    )?;
    let steal = steal_share(ticks, cpu_ticks());
    let metrics_after = control.metrics().map_err(|e| e.to_string())?;
    // Before the correctness gate, whose mirror graph would count too.
    let peak_rss = peak_rss_mb()?;
    let (epoch, witnesses) = check(&mut control, &inputs, &ops)?;
    drop(control);
    handle.stop();
    handle.join();
    println!(
        "correctness: the final epoch {epoch} and {witnesses} witnesses match a from-scratch \
         validation of the mirror"
    );

    if args.workload == Workload::ReadMix {
        let due = window_ns.div_ceil(OPEN_LOOP_PERIOD_NS) as f64;
        let on_time = ops
            .iter()
            .filter(|o| o.kind == Kind::Apply && o.start < window_ns)
            .count() as f64;
        if on_time < (1.0 - max_behind) * due {
            return Err(format!(
                "run invalid: the open-loop writer sent {on_time} of {due} batches due in the \
                 window, more than {:.0}% behind",
                max_behind * 100.0
            ));
        }
    }

    println!(
        "{} slices, the hypervisor stole {:.1}% of CPU time",
        slices.len(),
        steal * 100.0
    );
    let writes = least_contended(&ops, &slices, ("writes", is_write));
    let reads = least_contended(&ops, &slices, ("reads", |o: &Op| !is_write(o)));

    // Failures in every slice count, not only in the kept ones.
    let attempted = ops.len();
    let failed = ops.iter().filter(|o| !o.ok).count();
    let metrics = if args.trace {
        layers::per_layer(
            &inputs,
            &ops,
            &metrics_before,
            &metrics_after,
            &std::path::Path::new("perfbench/out").join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            )),
        )
    } else {
        end_to_end(
            &inputs,
            &ops,
            (&writes, &reads),
            &setup,
            (failed, attempted),
            peak_rss,
        )?
    };
    for (name, value, unit) in &metrics {
        if value.is_nan() {
            println!("  {name:<30} {:>14} (too few samples)", "-");
        } else {
            println!("  {name:<30} {value:>14.3} {unit}");
        }
    }
    let metrics = listed.select(args.trace, &metrics)?;
    let line = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let value = if value.is_finite() { value } else { f64::MAX };
                        (
                            name,
                            Json::obj(vec![
                                ("value", Json::Float(value)),
                                ("unit", Json::from(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
    Ok(())
}

/// The metric lists of `BENCHMARK.json`, which name what the result
/// line reports.
struct Listed {
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<String>,
}

impl Listed {
    fn read() -> Result<Listed, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| json.get_arr(key).unwrap_or_default().to_vec();
        let name = |m: &Json| m.get_str("name").unwrap_or_default().to_string();
        Ok(Listed {
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| {
                    (
                        name(m),
                        m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    )
                })
                .collect(),
            per_layer: list("per_layer").iter().map(name).collect(),
        })
    }

    fn bound(&self, name: &str) -> Result<f64, String> {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, b)| b)
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))
    }

    /// The listed metrics of `measured`, in the file's order.
    fn select(&self, trace: bool, measured: &[Metric]) -> Result<Vec<Metric>, String> {
        let names: Vec<&String> = if trace {
            self.per_layer.iter().collect()
        } else {
            self.end_to_end.iter().map(|(n, _)| n).collect()
        };
        names
            .into_iter()
            .map(|n| {
                measured
                    .iter()
                    .find(|(m, ..)| m == n)
                    .cloned()
                    .ok_or_else(|| {
                        format!("BENCHMARK.json lists {n}, which this run does not measure")
                    })
            })
            .collect()
    }
}

/// Start the daemon once untimed and then [`SETUP_RUNS`] times,
/// [`SETUP_GAP`] apart, timing `spawn` to the first `health` reply; keep
/// the last one running.
fn setup(inputs: &Inputs) -> Result<(DaemonHandle, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_RUNS + 1);
    loop {
        let (graph, sigma) = (inputs.graph.clone(), inputs.sigma.clone());
        let t0 = Instant::now();
        let handle =
            spawn(graph, sigma, &DaemonConfig::default()).map_err(|e| format!("spawn: {e}"))?;
        let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        client.health().map_err(|e| format!("health: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        drop(client);
        if times.len() == SETUP_RUNS + 1 {
            times.remove(0);
            return Ok((handle, times));
        }
        handle.stop();
        handle.join();
        std::thread::sleep(SETUP_GAP);
    }
}

/// Run the workload's traffic for `window` nanoseconds of `clock`, in
/// whole passes of an ingest cycle. Returns the requests in the order
/// they started, and the slices they fall into.
fn drive(
    workload: Workload,
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    (clock, window): (&Clock, u64),
    trace: bool,
) -> Result<(Vec<Op>, Vec<Slice>), String> {
    let connect = || Conn::connect(addr, trace).map_err(|e| format!("connect: {e}"));
    let mut slices = Vec::new();
    // Cut `ops` into slices of `len`, the `j`-th of stratum `stratum(j)`.
    let mut cut = |ops: Range<usize>, len: usize, stratum: &dyn Fn(usize) -> usize| {
        for (j, start) in ops.clone().step_by(len).enumerate() {
            slices.push(Slice {
                ops: start..(start + len).min(ops.end),
                stratum: stratum(j),
            });
        }
    };
    match workload {
        Workload::BulkIngest | Workload::MatchIngest => {
            let mut conn = connect()?;
            let pass = inputs.cycle.len();
            let mut ops = Vec::new();
            for seq in (0..).step_by(pass) {
                if seq > 0 && clock.now() >= window {
                    break;
                }
                let first = ops.len();
                ops.extend(load::closed_writer(
                    &mut conn,
                    clock,
                    inputs,
                    seq..seq + pass,
                    trace,
                ));
                cut(first..ops.len(), pass.div_ceil(WRITE_SLICES), &|j| j);
                let first = ops.len();
                ops.extend(load::reader(
                    &mut conn,
                    clock,
                    (u64::MAX, READS_PER_PASS),
                    trace,
                ));
                cut(first..ops.len(), READ_SLICE, &|_| WRITE_SLICES);
            }
            Ok((ops, slices))
        }
        Workload::ReadMix => {
            let (mut writer, mut reader) = (connect()?, connect()?);
            let mut ops = std::thread::scope(|s| {
                let writes = s.spawn(|| {
                    load::open_writer(
                        &mut writer,
                        clock,
                        inputs,
                        (OPEN_LOOP_PERIOD_NS, window),
                        trace,
                    )
                });
                let mut ops = load::reader(&mut reader, clock, (window, usize::MAX), trace);
                ops.extend(writes.join().expect("writer thread panicked"));
                ops
            });
            ops.sort_by_key(|o| o.start);
            let mut first = 0;
            for chunk in
                ops.chunk_by(|a, b| a.start / READ_MIX_SLICE_NS == b.start / READ_MIX_SLICE_NS)
            {
                slices.push(Slice {
                    ops: first..first + chunk.len(),
                    stratum: 0,
                });
                first += chunk.len();
            }
            Ok((ops, slices))
        }
    }
}

type Witnesses = BTreeSet<(String, Vec<NodeId>, String)>;

/// The correctness gate: the daemon's epoch counts the acknowledged
/// batches, and its witness set equals a from-scratch validation of a
/// mirror graph with those batches applied. Returns the final epoch and
/// the number of witnesses.
fn check(control: &mut Client, inputs: &Inputs, ops: &[Op]) -> Result<(u64, usize), String> {
    let mut acked: Vec<usize> = ops
        .iter()
        .filter(|o| o.kind == Kind::Apply && o.ok)
        .map(|o| o.seq)
        .collect();
    acked.sort_unstable();
    let (epoch, wire) = control.violations().map_err(|e| e.to_string())?;
    if epoch != acked.len() as u64 {
        return Err(format!(
            "final epoch {epoch} but {} batches were acknowledged",
            acked.len()
        ));
    }
    let mut mirror = inputs.graph.clone();
    for &seq in &acked {
        for d in inputs.batch(seq).deltas() {
            mirror.apply_delta(d);
        }
    }
    let expected: Witnesses = validate(&mirror, &inputs.sigma, None)
        .violations
        .iter()
        .map(|v| {
            (
                v.ged_name.clone(),
                v.assignment.clone(),
                format!("{:?}", v.kind),
            )
        })
        .collect();
    let got: Witnesses = wire
        .into_iter()
        .map(|v| (v.rule, v.assignment, v.kind))
        .collect();
    if got != expected {
        return Err(format!(
            "the daemon reports {} witnesses, a from-scratch validation of the mirror {} \
             ({} differ)",
            got.len(),
            expected.len(),
            got.symmetric_difference(&expected).count()
        ));
    }
    Ok((epoch, got.len()))
}

fn is_write(op: &Op) -> bool {
    op.kind == Kind::Apply
}

/// The [`BEST_SHARE`] of each stratum's slices, among those holding
/// requests that `pick` selects, whose selected requests have the lowest
/// mean latency; each stratum's first slice, a warm-up, left out.
fn least_contended<'a>(
    ops: &[Op],
    slices: &'a [Slice],
    (what, pick): (&str, impl Fn(&Op) -> bool),
) -> Vec<&'a Slice> {
    let (mut picked, mut strata, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    for slice in slices {
        let xs: Vec<f64> = ops[slice.ops.clone()]
            .iter()
            .filter(|o| pick(o))
            .map(Op::latency_us)
            .collect();
        if !xs.is_empty() {
            picked.push(slice);
            strata.push(slice.stratum);
            costs.push(stats::mean(&xs));
        }
    }
    let kept = stats::least_by_stratum(&strata, &costs, BEST_SHARE);
    println!(
        "  {what}: mean latency per slice min {:.1}us median {:.1}us max {:.1}us; kept {} of {}",
        costs.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&costs),
        costs.iter().copied().fold(0.0, f64::max),
        kept.len(),
        costs.len(),
    );
    kept.into_iter().map(|i| picked[i]).collect()
}

/// The requests of `slices`.
fn in_slices<'a>(ops: &'a [Op], slices: &'a [&Slice]) -> impl Iterator<Item = &'a Op> {
    slices.iter().flat_map(|s| &ops[s.ops.clone()])
}

fn latencies(ops: &[Op], slices: &[&Slice], kind: Kind) -> Latency {
    let xs: Vec<f64> = in_slices(ops, slices)
        .filter(|o| o.kind == kind)
        .map(Op::latency_us)
        .collect();
    Latency::of(&xs)
}

/// Completed requests that `pick` selects per second of the wall time
/// they took, each counting `weight`. Each slice adds its completions and
/// the time from the first selected start to the last selected end in
/// it.
fn rate(ops: &[Op], slices: &[&Slice], pick: impl Fn(&Op) -> bool, weight: f64) -> f64 {
    let (mut done, mut ns) = (0, 0);
    for slice in slices {
        let (mut first, mut last) = (u64::MAX, 0);
        for o in ops[slice.ops.clone()].iter().filter(|o| pick(o)) {
            first = first.min(o.start);
            last = last.max(o.end);
            done += usize::from(o.ok);
        }
        ns += last.saturating_sub(first);
    }
    weight * done as f64 / (ns as f64 / 1e9)
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`.
fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings; 0 where
/// the kernel reports no steal.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Bind the calling thread, and every thread it starts from now on, to
/// the CPU it is running on. Returns that CPU.
///
/// The ingest workloads are sequential: one connection, and a daemon
/// whose request path hands each request from thread to thread with a
/// single match thread. On a shared virtual machine every hand-off to a
/// thread on another, idle vCPU waits for the hypervisor to run that
/// vCPU again, which adds tens of microseconds to each request and
/// swings 2× with other tenants' load (`is_satisfied` takes ~35 µs
/// across two vCPUs and ~11 µs on one). On one CPU the hand-offs are
/// plain context switches. `read-mix`, whose two connections run at
/// once, keeps both.
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: a libc call without arguments.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let word = usize::try_from(cpu)
        .ok()
        .filter(|&c| c < 64 * mask.len())
        .ok_or_else(|| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
    mask[word / 64] |= 1 << (word % 64);
    // SAFETY: `mask` is live for the call and `size` is its length in
    // bytes; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word)
}

/// Peak resident set of this process (daemon included), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics of an untraced run, as `(name, value, unit)`:
/// those of `apply` over the slices `writes`, those of reads over
/// `reads`.
fn end_to_end(
    inputs: &Inputs,
    ops: &[Op],
    (writes, reads): (&[&Slice], &[&Slice]),
    setup: &[f64],
    (failed, attempted): (usize, usize),
    peak_rss: f64,
) -> Result<Vec<Metric>, String> {
    let apply = latencies(ops, writes, Kind::Apply);
    let report = latencies(ops, reads, Kind::Report);
    let is_sat = latencies(ops, reads, Kind::IsSatisfied);
    for (name, l) in [
        ("apply", apply),
        ("report", report),
        ("is_satisfied", is_sat),
    ] {
        match l.tail {
            Some((p, tail)) => println!(
                "  {name}: n={} p50={:.1}us, highest supported percentile p{p}={tail:.1}us",
                l.n, l.p50
            ),
            None => println!("  {name}: n={}, too few samples for any percentile", l.n),
        }
    }
    println!("  setup: {} start-ups", setup.len());
    Ok(vec![
        ("setup_s".into(), stats::median(setup), "s"),
        ("apply_p50_us".into(), apply.p50, "us"),
        ("apply_p99_us".into(), apply.p99_or_nan(), "us"),
        (
            "deltas_per_s".into(),
            rate(ops, writes, is_write, inputs.batch_size() as f64),
            "1/s",
        ),
        ("report_p50_us".into(), report.p50, "us"),
        ("report_p99_us".into(), report.p99_or_nan(), "us"),
        ("is_satisfied_p50_us".into(), is_sat.p50, "us"),
        ("is_satisfied_p99_us".into(), is_sat.p99_or_nan(), "us"),
        (
            "reads_per_s".into(),
            rate(ops, reads, |o| !is_write(o), 1.0),
            "1/s",
        ),
        (
            "failed_frac".into(),
            failed as f64 / attempted as f64,
            "fraction",
        ),
        ("peak_rss_mb".into(), peak_rss, "MiB"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_comes_from_the_eighth_cpu_field() {
        let stat = "cpu  100 0 20 800 5 0 3 72 0 0\ncpu0 50 0 10 400 2 0 1 36 0 0\n";
        assert_eq!(parse_cpu_ticks(stat), Some((72, 1000)));
        assert_eq!(parse_cpu_ticks("cpu 1 2\n"), None);
        assert_eq!(steal_share(Some((72, 1000)), Some((82, 1100))), 0.1);
        assert_eq!(steal_share(None, Some((82, 1100))), 0.0);
    }
}
