//! `gedctl` — thin CLI client for the `gedd` validation daemon.
//!
//! See [`ged_ctl::USAGE`] for the grammar and the exit-code contract.

use ged_ctl::{exit, parse_cli, parse_deltas, Cli, Command, USAGE};
use ged_proto::{Client, ClientError, Request};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("gedctl: {message}\n\n{USAGE}");
            return ExitCode::from(exit::USAGE);
        }
    };
    let Some(command) = cli.command.clone() else {
        print!("{USAGE}");
        return ExitCode::from(exit::OK);
    };

    // Decode apply arguments before dialing: usage errors should not
    // require a reachable daemon.
    let batch = match &command {
        Command::Apply(args) => match parse_deltas(args, read_stdin) {
            Ok(ds) => Some(ds),
            Err(message) => {
                eprintln!("gedctl: {message}");
                return ExitCode::from(exit::USAGE);
            }
        },
        _ => None,
    };

    let mut client = match Client::connect(&cli.addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("gedctl: cannot connect to {}: {e}", cli.addr);
            return ExitCode::from(exit::CONNECTION);
        }
    };

    match run(&cli, &command, batch, &mut client) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("gedctl: {e}");
            let code = match e {
                ClientError::Server { .. } => exit::SERVER,
                _ => exit::CONNECTION,
            };
            ExitCode::from(code)
        }
    }
}

fn read_stdin() -> String {
    let mut buf = String::new();
    std::io::stdin().read_to_string(&mut buf).ok();
    buf
}

/// Run one command; `Ok` carries the exit code for successful protocol
/// exchanges (violations found is a *successful* exchange).
fn run(
    cli: &Cli,
    command: &Command,
    batch: Option<ged_graph::DeltaSet>,
    client: &mut Client,
) -> Result<u8, ClientError> {
    // --json: print the daemon's ok-reply verbatim, one line, but keep
    // the same exit-code semantics as the prose mode.
    if cli.json {
        let request = match command {
            Command::Health => Request::Health,
            Command::Status => Request::IsSatisfied,
            Command::Violations => Request::Violations,
            Command::Report => Request::Report,
            Command::Metrics => Request::Metrics,
            Command::Shutdown => Request::Shutdown,
            Command::Apply(_) => Request::Apply(batch.unwrap_or_default()),
        };
        let reply = client.request(&request)?;
        println!("{reply}");
        let unsatisfied = matches!(
            command,
            Command::Status | Command::Violations | Command::Report
        ) && reply.get_u64("violations").map(|n| n > 0).unwrap_or(false)
            || reply.get_bool("satisfied") == Some(false)
            || reply
                .get_arr("violations")
                .map(|v| !v.is_empty())
                .unwrap_or(false);
        return Ok(if unsatisfied {
            exit::VIOLATIONS
        } else {
            exit::OK
        });
    }

    match command {
        Command::Health => {
            let h = client.health()?;
            println!(
                "gedd at {}: protocol {}, epoch {}, {} rules, {} readers",
                cli.addr, h.protocol, h.epoch, h.rules, h.readers
            );
            Ok(exit::OK)
        }
        Command::Status => {
            let (epoch, satisfied, count) = client.is_satisfied()?;
            if satisfied {
                println!("epoch {epoch}: satisfied");
                Ok(exit::OK)
            } else {
                println!("epoch {epoch}: NOT satisfied ({count} violations)");
                Ok(exit::VIOLATIONS)
            }
        }
        Command::Violations => {
            let (epoch, violations) = client.violations()?;
            println!("epoch {epoch}: {} violations", violations.len());
            for v in &violations {
                let ids: Vec<String> = v.assignment.iter().map(|n| n.0.to_string()).collect();
                println!("  {} [{}] {}", v.rule, ids.join(", "), v.kind);
            }
            Ok(if violations.is_empty() {
                exit::OK
            } else {
                exit::VIOLATIONS
            })
        }
        Command::Report => {
            let report = client.report()?;
            println!(
                "epoch {}: {} ({} violations)",
                report.epoch,
                if report.satisfied {
                    "satisfied"
                } else {
                    "NOT satisfied"
                },
                report.violations.len()
            );
            for (name, count, satisfied) in &report.rules {
                let mark = if *satisfied { "ok " } else { "FAIL" };
                println!("  [{mark}] {name}: {count} violations");
            }
            Ok(if report.satisfied {
                exit::OK
            } else {
                exit::VIOLATIONS
            })
        }
        Command::Metrics => {
            let metrics = client.metrics()?;
            println!("{metrics:#}");
            Ok(exit::OK)
        }
        Command::Apply(_) => {
            let reply = client.apply(batch.unwrap_or_default())?;
            println!(
                "epoch {}: applied {} deltas (+{} / -{} violations, {} live)",
                reply.epoch, reply.applied, reply.added, reply.removed, reply.violations
            );
            Ok(exit::OK)
        }
        Command::Shutdown => {
            let final_epoch = client.shutdown()?;
            println!("daemon drained; final epoch {final_epoch}");
            Ok(exit::OK)
        }
    }
}
