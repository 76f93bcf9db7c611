//! Wire protocol shared by the validation daemon (`gedd`) and its CLI
//! client (`gedctl`).
//!
//! The build environment has no crates.io access, so the protocol is
//! std-only by construction: newline-delimited JSON frames over TCP.
//!
//! Layering, bottom up:
//!
//! * `ged_obs::json` (below this crate, re-exported as [`Json`] and
//!   [`JsonError`]) — the workspace's one JSON value type, shared with
//!   the engine's metrics and the analyzer's reports: a depth-limited
//!   parser and a writer whose single-line `{}` form keeps `Int`/`Float`
//!   distinct (`2` vs `2.0`), which the attribute-value codec relies on;
//! * [`wire`] — framing: one JSON document per `\n`-terminated line,
//!   with a per-frame byte cap and structured
//!   oversized/truncated/malformed errors;
//! * [`message`] — the request/response vocabulary: [`Request`]
//!   decode/encode, [`Delta`](ged_graph::Delta) and
//!   [`ValidationReport`](ged_core::reason::ValidationReport) codecs,
//!   the `ok`/error envelope and its [error-code taxonomy](message::code);
//! * [`client`] — a blocking [`Client`] used by `gedctl`, the examples,
//!   and the protocol-level test harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod message;
pub mod wire;

pub use client::{Client, ClientError, HealthReply};
pub use ged_obs::json::{Json, JsonError};
pub use message::{
    code, ApplyReply, ReportReply, Request, RequestError, WireViolation, PROTOCOL_VERSION,
};
pub use wire::{read_frame, write_frame, WireError, DEFAULT_MAX_FRAME};
