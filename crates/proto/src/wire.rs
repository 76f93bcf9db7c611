//! Newline-delimited JSON framing over any byte stream.
//!
//! One frame = one JSON document serialised to a single line (the writer
//! in `ged_obs::json` guarantees no raw newlines) followed by `\n`. The
//! reader enforces a byte cap per frame so an oversized (or endless)
//! line from a hostile client costs bounded memory and yields a
//! structured [`WireError::Oversized`] instead of an allocation storm,
//! and distinguishes a clean EOF (`Ok(None)`, the peer closed between
//! frames) from a truncated frame (bytes without the terminating
//! newline — the peer died mid-request).

use ged_obs::Json;
use std::io::{self, BufRead, Write};

/// Default per-frame byte cap. Large enough for a many-thousand-delta
/// `apply` batch or a full metrics snapshot, small enough to bound what
/// one connection can make the daemon buffer.
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The line exceeded the frame cap (payload bytes seen so far).
    Oversized(usize),
    /// The stream ended mid-frame (bytes but no terminating newline).
    Truncated,
    /// The line was not valid JSON.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Oversized(n) => write!(f, "frame exceeds cap ({n} bytes read)"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Serialise `frame` as one line and flush it.
///
/// Frames containing a NaN/Infinity float are rejected with
/// `InvalidInput`: JSON cannot represent them, and silently sending
/// `null` in their place would corrupt the value on the receiving side
/// with no indication to the writer.
pub fn write_frame(w: &mut impl Write, frame: &Json) -> io::Result<()> {
    if frame.has_non_finite() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame contains a non-finite float (JSON has no NaN/Infinity)",
        ));
    }
    let mut line = String::new();
    frame.write(&mut line);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read the next frame. `Ok(None)` is a clean EOF at a frame boundary;
/// `Err(Truncated)` means the peer vanished mid-line; `Err(Oversized)`
/// means the line blew the `max_frame` cap (the connection should be
/// dropped — the rest of the line was not consumed).
pub fn read_frame(r: &mut impl BufRead, max_frame: usize) -> Result<Option<Json>, WireError> {
    let mut buf: Vec<u8> = Vec::new();
    // Outer loop: one iteration per physical line. Blank keep-alive
    // lines are skipped by iterating, never by recursing — a hostile
    // stream of consecutive '\n' bytes must cost O(1) stack.
    loop {
        buf.clear();
        loop {
            let available = r.fill_buf()?;
            if available.is_empty() {
                // EOF: clean only at a frame boundary.
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            match available.iter().position(|b| *b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    r.consume(i + 1);
                    break;
                }
                None => {
                    buf.extend_from_slice(available);
                    let n = available.len();
                    r.consume(n);
                }
            }
            if buf.len() > max_frame {
                return Err(WireError::Oversized(buf.len()));
            }
        }
        if buf.len() > max_frame {
            return Err(WireError::Oversized(buf.len()));
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        let text = std::str::from_utf8(&buf)
            .map_err(|_| WireError::Malformed("frame is not UTF-8".to_string()))?;
        if text.trim().is_empty() {
            // Tolerate blank keep-alive lines between frames.
            continue;
        }
        return Json::parse(text)
            .map(Some)
            .map_err(|e| WireError::Malformed(e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], cap: usize) -> Vec<Result<Option<Json>, WireError>> {
        let mut r = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let item = read_frame(&mut r, cap);
            let done = matches!(item, Ok(None) | Err(_));
            out.push(item);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf: Vec<u8> = Vec::new();
        let a = Json::obj(vec![("cmd", Json::from("health"))]);
        let b = Json::Arr(vec![Json::Int(1), Json::Int(2)]);
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let frames = read_all(&buf, DEFAULT_MAX_FRAME);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].as_ref().unwrap().as_ref(), Some(&a));
        assert_eq!(frames[1].as_ref().unwrap().as_ref(), Some(&b));
        assert!(matches!(frames[2], Ok(None)), "clean EOF after frames");
    }

    #[test]
    fn non_finite_frames_are_refused_not_degraded() {
        let mut buf: Vec<u8> = Vec::new();
        let frame = Json::obj(vec![("value", Json::Float(f64::NAN))]);
        let err = write_frame(&mut buf, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn truncated_and_oversized_are_distinguished() {
        let frames = read_all(b"{\"cmd\":\"heal", DEFAULT_MAX_FRAME);
        assert!(matches!(frames[0], Err(WireError::Truncated)));

        let long = vec![b'x'; 64];
        let frames = read_all(&long, 16);
        assert!(matches!(frames[0], Err(WireError::Oversized(_))));
    }

    #[test]
    fn malformed_lines_report_but_do_not_consume_followers() {
        let mut input = b"not json at all\n".to_vec();
        write_frame(&mut input, &Json::Int(7)).unwrap();
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
        // The bad line was fully consumed; the next frame still parses.
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(Json::Int(7))
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut input = b"\n\r\n".to_vec();
        write_frame(&mut input, &Json::Bool(true)).unwrap();
        let mut r = BufReader::new(&input[..]);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(Json::Bool(true))
        );
    }

    #[test]
    fn a_flood_of_blank_lines_costs_constant_stack() {
        // Regression: blank-line skipping used to recurse once per line,
        // so a hostile client could overflow the handler stack with a
        // few hundred KB of '\n' bytes. 500k lines overflows any default
        // stack under the recursive scheme; iteration shrugs it off.
        let mut input = vec![b'\n'; 500_000];
        write_frame(&mut input, &Json::Int(9)).unwrap();
        let mut r = BufReader::new(&input[..]);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(Json::Int(9))
        );
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Ok(None)));
    }
}
