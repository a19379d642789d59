//! Wire protocol of the timing service: framing, request/response shapes,
//! and the severity/exit-code mapping.
//!
//! # Framing
//!
//! Every message — request or response — is one JSON document framed as
//!
//! ```text
//! [len: u32 little-endian][payload: len bytes of UTF-8 JSON]
//! ```
//!
//! Frames larger than [`MAX_FRAME`] are rejected before allocation, so a
//! corrupt peer cannot make the daemon allocate gigabytes off a garbage
//! length word.
//!
//! # Requests
//!
//! Objects with a `cmd` field; everything else is command-specific:
//!
//! | `cmd` | fields | effect |
//! |-------|--------|--------|
//! | `load` | `design`, `netlist`, `spef?` | load a design into a resident session |
//! | `analyze` | `design`, `mode?` | run (or replay) an analysis |
//! | `eco` | `design`, `edits` (array of script lines) | apply typed edits |
//! | `what-if` | `design`, `edits`, `mode?` | apply → analyze → roll back |
//! | `query` | `design`, `net`, `mode?`, `period_ns?` | one endpoint's arrivals/slack |
//! | `compact` | — | compact the on-disk solve store |
//! | `stats` | — | daemon, session, cache and store counters |
//! | `shutdown` | — | answer, then stop accepting and exit |
//!
//! `analyze`, `eco`, `what-if` and `query` additionally accept
//! `deadline_ms`: a per-request budget after which the analysis is
//! cooperatively cancelled, the session rolled back to its last committed
//! state, and a typed `deadline` failure returned.
//!
//! # Responses
//!
//! Objects with `ok: true` plus command-specific payload, or `ok: false`
//! with `error`, `severity` and `exit_code`. Successful analyses also carry
//! `severity`/`exit_code` keyed to the worst contained diagnostic, mirroring
//! the batch CLI (0 clean, 2 warnings, 3 conservative bounds substituted).
//! Delays cross the wire twice: human-readable `delay_ns` (a JSON number)
//! and bit-exact `delay_bits` (the IEEE-754 bits as 16 hex digits), so
//! clients can assert bit-identity against a batch run without a lossy
//! decimal round-trip.
//!
//! Degraded-service failures are *typed* so clients can react without
//! parsing prose: the `kind` field is `"deadline"` (request budget
//! expired, exit code [`EXIT_DEADLINE`], `retryable: true`),
//! `"busy"` (admission control rejected the request, exit code
//! [`EXIT_BUSY`], `retryable: true`, with `queue_depth`/`limit`), or
//! `"quarantined"` (the request panicked; the design's session was
//! dropped and will be rebuilt from the store on the next `load`).

use std::io::{Read, Write};

use crate::diag::Severity;
use crate::mode::AnalysisMode;
use crate::serve::json::Json;

/// Upper bound on one frame, requests and responses alike (16 MiB — a full
/// endpoint dump of the largest generated design fits with margin).
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects documents over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, doc: &Json) -> std::io::Result<()> {
    let payload = doc.write();
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame. `Ok(None)` is a clean EOF (the
/// peer closed between frames); a mid-frame EOF, an oversized length or
/// malformed JSON is an `InvalidData` error.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` on framing or JSON violations.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Json>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let doc =
        Json::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some(doc))
}

/// Exit code for the worst contained-fault severity — the same mapping the
/// batch CLI uses: 0 clean (or info only), 2 warnings contained, 3
/// conservative bounds substituted.
#[must_use]
pub fn exit_code_for(severity: Option<Severity>) -> i32 {
    match severity {
        None | Some(Severity::Info) => 0,
        Some(Severity::Warning) => 2,
        Some(Severity::Error) => 3,
    }
}

/// The protocol token of a severity (`"info"` / `"warning"` / `"error"`).
#[must_use]
pub fn severity_token(severity: Severity) -> &'static str {
    match severity {
        Severity::Info => "info",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// Parses a protocol mode token — same vocabulary as the batch CLI's
/// `--mode` flag: `best`, `doubled`, `worst`, `onestep`, `iterative`,
/// `esperance`, `min`.
#[must_use]
pub fn parse_mode(token: &str) -> Option<AnalysisMode> {
    Some(match token {
        "best" => AnalysisMode::BestCase,
        "doubled" => AnalysisMode::StaticDoubled,
        "worst" => AnalysisMode::WorstCase,
        "onestep" => AnalysisMode::OneStep,
        "iterative" => AnalysisMode::Iterative { esperance: false },
        "esperance" => AnalysisMode::Iterative { esperance: true },
        "min" => AnalysisMode::MinDelay,
        _ => return None,
    })
}

/// The protocol token of a mode (inverse of [`parse_mode`]).
#[must_use]
pub fn mode_token(mode: AnalysisMode) -> &'static str {
    match mode {
        AnalysisMode::BestCase => "best",
        AnalysisMode::StaticDoubled => "doubled",
        AnalysisMode::WorstCase => "worst",
        AnalysisMode::OneStep => "onestep",
        AnalysisMode::Iterative { esperance: false } => "iterative",
        AnalysisMode::Iterative { esperance: true } => "esperance",
        AnalysisMode::MinDelay => "min",
    }
}

/// Renders an `f64` as its 16-hex-digit IEEE-754 bit pattern — the
/// bit-exact transport for delays (JSON numbers round-trip through decimal
/// text and cannot be trusted to the last ulp).
#[must_use]
pub fn f64_bits_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses a [`f64_bits_hex`] string back to the exact `f64`.
#[must_use]
pub fn f64_from_bits_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Builds an `ok: false` response: `error` text, optional `severity`
/// token, and the matching `exit_code`.
#[must_use]
pub fn error_response(message: &str, severity: Option<Severity>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(false)), ("error", Json::str(message))];
    if let Some(s) = severity {
        pairs.push(("severity", Json::str(severity_token(s))));
    }
    pairs.push(("exit_code", Json::num(exit_code_for(severity) as f64)));
    Json::obj(pairs)
}

/// Exit code of a typed `deadline` failure: the request's time budget
/// expired and the analysis was cancelled (retry with a larger budget).
pub const EXIT_DEADLINE: i32 = 4;

/// Exit code of a typed `busy` rejection: admission control refused the
/// request (retry after a backoff).
pub const EXIT_BUSY: i32 = 5;

/// Builds the typed `deadline` failure: the request's budget of
/// `deadline_ms` expired, the analysis was cancelled cooperatively, and
/// the session was rolled back to its last committed state. Retryable.
#[must_use]
pub fn deadline_response(deadline_ms: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::str(format!(
                "deadline of {deadline_ms} ms exceeded; analysis cancelled, session rolled back"
            )),
        ),
        ("kind", Json::str("deadline")),
        ("retryable", Json::Bool(true)),
        ("deadline_ms", Json::num(deadline_ms as f64)),
        ("exit_code", Json::num(f64::from(EXIT_DEADLINE))),
    ])
}

/// Builds the typed `busy` rejection: `depth` requests (or connections)
/// already occupy the daemon's budget of `limit`. Retryable; the request
/// was never started, so no session state changed.
#[must_use]
pub fn busy_response(depth: u64, limit: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::str(format!(
                "daemon busy: {depth} of {limit} slots in use; retry after backoff"
            )),
        ),
        ("kind", Json::str("busy")),
        ("retryable", Json::Bool(true)),
        ("queue_depth", Json::num(depth as f64)),
        ("limit", Json::num(limit as f64)),
        ("exit_code", Json::num(f64::from(EXIT_BUSY))),
    ])
}

/// Builds the typed `quarantined` failure: the request body panicked, the
/// design's session was dropped, and the next `load` of that design will
/// rebuild it from the netlist and the on-disk solve store. Not
/// retryable as-is — the client must re-`load` first.
#[must_use]
pub fn quarantine_response(design: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::str(format!(
                "request panicked; session '{design}' quarantined — re-load to rebuild it"
            )),
        ),
        ("kind", Json::str("quarantined")),
        ("retryable", Json::Bool(false)),
        ("design", Json::str(design)),
        ("severity", Json::str(severity_token(Severity::Error))),
        (
            "exit_code",
            Json::num(f64::from(exit_code_for(Some(Severity::Error)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let doc = Json::obj(vec![
            ("cmd", Json::str("analyze")),
            ("design", Json::str("d")),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).expect("write");
        write_frame(&mut buf, &Json::Bool(true)).expect("write 2");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("frame 1"), Some(doc));
        assert_eq!(read_frame(&mut r).expect("frame 2"), Some(Json::Bool(true)));
        assert_eq!(read_frame(&mut r).expect("eof"), None, "clean EOF");
    }

    #[test]
    fn corrupt_frames_are_errors_not_hangs() {
        // Oversized length word.
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(b"xx");
        assert!(read_frame(&mut &bad[..]).is_err());
        // Truncated payload.
        let mut trunc = 10u32.to_le_bytes().to_vec();
        trunc.extend_from_slice(b"abc");
        assert!(read_frame(&mut &trunc[..]).is_err());
        // Valid framing, invalid JSON.
        let mut badjson = 3u32.to_le_bytes().to_vec();
        badjson.extend_from_slice(b"{{{");
        assert!(read_frame(&mut &badjson[..]).is_err());
    }

    #[test]
    fn exit_codes_match_the_batch_cli() {
        assert_eq!(exit_code_for(None), 0);
        assert_eq!(exit_code_for(Some(Severity::Info)), 0);
        assert_eq!(exit_code_for(Some(Severity::Warning)), 2);
        assert_eq!(exit_code_for(Some(Severity::Error)), 3);
        let resp = error_response("bounds substituted", Some(Severity::Error));
        assert_eq!(resp.get("exit_code").and_then(Json::as_u64), Some(3));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn typed_degradation_responses_carry_kind_and_exit_code() {
        let d = deadline_response(250);
        assert_eq!(d.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(d.get("kind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(d.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(
            d.get("exit_code").and_then(Json::as_u64),
            Some(EXIT_DEADLINE as u64)
        );

        let b = busy_response(8, 8);
        assert_eq!(b.get("kind").and_then(Json::as_str), Some("busy"));
        assert_eq!(b.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(b.get("queue_depth").and_then(Json::as_u64), Some(8));
        assert_eq!(b.get("limit").and_then(Json::as_u64), Some(8));
        assert_eq!(
            b.get("exit_code").and_then(Json::as_u64),
            Some(EXIT_BUSY as u64)
        );

        let q = quarantine_response("s27");
        assert_eq!(q.get("kind").and_then(Json::as_str), Some("quarantined"));
        assert_eq!(q.get("retryable").and_then(Json::as_bool), Some(false));
        assert_eq!(q.get("design").and_then(Json::as_str), Some("s27"));
        assert_eq!(q.get("exit_code").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn mode_tokens_round_trip() {
        for token in [
            "best",
            "doubled",
            "worst",
            "onestep",
            "iterative",
            "esperance",
            "min",
        ] {
            let mode = parse_mode(token).expect(token);
            assert_eq!(mode_token(mode), token);
        }
        assert!(parse_mode("warp").is_none());
    }

    #[test]
    fn delay_bits_round_trip_exactly() {
        for x in [0.0, -0.0, 1.234e-9, f64::MIN_POSITIVE, 123.456] {
            let hex = f64_bits_hex(x);
            let back = f64_from_bits_hex(&hex).expect("parse");
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert!(f64_from_bits_hex("zzzz").is_none());
        assert!(f64_from_bits_hex("abc").is_none());
    }
}
