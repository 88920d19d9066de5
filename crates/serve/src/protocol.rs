//! The `multiscalar-serve/v1` wire protocol.
//!
//! One JSON object per line, both directions. The daemon greets each
//! connection with a `hello` line, then answers every request line with
//! exactly one response line, in request order.
//!
//! ## Requests
//!
//! ```json
//! {"op":"run","id":1,"workload":"wc","scale":"test","kind":"multiscalar","units":4,"width":1,"ooo":false}
//! {"op":"sweep","id":2,"workloads":["wc","cmp"],"scale":"test","widths":[1],"order":"inorder","units":[4],"scalar":true}
//! {"op":"stats","id":3}
//! {"op":"ping","id":4}
//! {"op":"shutdown","id":5}
//! ```
//!
//! `id` is an opaque client token echoed in the response (default 0).
//! `run` defaults: scale `test`, kind `multiscalar`, units 4, width 1,
//! `ooo` false. `sweep` mirrors `mssweep`'s axes; `workloads: []` (the
//! default) means the full ten-benchmark suite, and `scalar` (default
//! true) includes the scalar baseline at each (width, order) point. An
//! optional `"proto"` field is verified against the protocol version if
//! present.
//!
//! ## Responses
//!
//! ```json
//! {"proto":"multiscalar-serve/v1","type":"hello","workers":4,"queue_depth":256}
//! {"proto":"multiscalar-serve/v1","type":"result","id":1,"result":{...}}
//! {"proto":"multiscalar-serve/v1","type":"sweep_result","id":2,"results":{...}}
//! {"proto":"multiscalar-serve/v1","type":"error","id":1,"code":"overloaded","retry_after_ms":100,"detail":"..."}
//! {"proto":"multiscalar-serve/v1","type":"stats","id":3,"stats":{...}}
//! {"proto":"multiscalar-serve/v1","type":"pong","id":4}
//! {"proto":"multiscalar-serve/v1","type":"bye","id":5}
//! ```
//!
//! The `result` payload is byte-for-byte the object
//! [`ms_sweep::artifacts::outcome_json`] renders — i.e. exactly one
//! entry of `mssweep`'s `results.json` `jobs` array — and the
//! `sweep_result` payload is byte-for-byte
//! [`ms_sweep::artifacts::results_envelope`] — i.e. exactly a
//! `results.json` document. Determinism checks rely on this: a served
//! response can be byte-compared against the artifact a cold `mssweep`
//! writes for the same design point. Error codes are `bad_request`,
//! `overloaded` (with a `retry_after_ms` hint), `shutting_down`, and
//! `timeout` (sent with id 0 when an idle connection is evicted).

use ms_sweep::{Job, JobKind, SweepSpec};
use ms_trace::json;
use ms_trace::jsonv::{self, JsonValue};
use ms_workloads::Scale;
use multiscalar::SimConfig;

/// Protocol identifier, stamped into every response line.
pub const PROTO: &str = "multiscalar-serve/v1";

/// A parsed request line: the client's echo token plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen token echoed in the response (default 0).
    pub id: u64,
    /// The requested operation.
    pub req: Request,
}

/// The operations a client can request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run one design point.
    Run(RunRequest),
    /// Run a full sweep.
    Sweep(SweepRequest),
    /// Report the daemon's counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain queued and in-flight work, then exit.
    Shutdown,
}

/// One design point: workload × scale × simulator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Workload name (case-insensitive, as `ms_workloads::by_name`).
    pub workload: String,
    /// Input scale.
    pub scale: Scale,
    /// Scalar baseline or multiscalar.
    pub kind: JobKind,
    /// Processing units (must be 1 for the scalar baseline).
    pub units: usize,
    /// Per-unit issue width (1 or 2).
    pub width: usize,
    /// Out-of-order issue within each unit.
    pub ooo: bool,
    /// Optional `ms_cfg::PartitionPolicy` stable key: auto-partition the
    /// workload (strip hand annotations, re-derive tasks) before
    /// simulating. Multiscalar only.
    pub partition: Option<String>,
}

impl RunRequest {
    /// The [`Job`] this request describes (same construction as
    /// [`SweepSpec::expand`], so cache keys and artifact bytes line up).
    pub fn job(&self) -> Job {
        let cfg = match self.kind {
            JobKind::Scalar => SimConfig::scalar(),
            JobKind::Multiscalar => SimConfig::multiscalar(self.units),
        };
        Job {
            workload: self.workload.clone(),
            scale: self.scale,
            kind: self.kind,
            cfg: cfg.issue(self.width).out_of_order(self.ooo),
            partition: self.partition.clone(),
        }
    }
}

/// A sweep request, mirroring `mssweep`'s axes.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// Workload names; empty means the full suite.
    pub workloads: Vec<String>,
    /// Input scale for every point.
    pub scale: Scale,
    /// Issue widths.
    pub widths: Vec<usize>,
    /// Issue orders (`false` = in-order).
    pub orders: Vec<bool>,
    /// Multiscalar unit counts.
    pub units: Vec<usize>,
    /// Include the scalar baseline at each (width, order) point.
    pub include_scalar: bool,
}

impl SweepRequest {
    /// The [`SweepSpec`] this request describes.
    pub fn spec(&self) -> SweepSpec {
        SweepSpec {
            workloads: self.workloads.clone(),
            scale: self.scale,
            widths: self.widths.clone(),
            orders: self.orders.clone(),
            unit_counts: self.units.clone(),
            include_scalar: self.include_scalar,
            partitions: Vec::new(),
        }
    }
}

fn parse_scale(v: Option<&JsonValue>) -> Result<Scale, String> {
    match v {
        None => Ok(Scale::Test),
        Some(s) => {
            let s = s.as_str().ok_or("`scale` must be a string")?;
            Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}` (use test|full)"))
        }
    }
}

fn parse_width(w: u64) -> Result<usize, String> {
    if w == 1 || w == 2 {
        Ok(w as usize)
    } else {
        Err(format!("width must be 1 or 2, got {w}"))
    }
}

fn parse_units(u: u64) -> Result<usize, String> {
    if (1..=64).contains(&u) {
        Ok(u as usize)
    } else {
        Err(format!("units must be in 1..=64, got {u}"))
    }
}

fn parse_run(doc: &JsonValue) -> Result<RunRequest, String> {
    let workload = doc
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("run needs a `workload` string")?
        .to_string();
    let scale = parse_scale(doc.get("scale"))?;
    let kind = match doc.get("kind") {
        None => JobKind::Multiscalar,
        Some(k) => match k.as_str() {
            Some("multiscalar") => JobKind::Multiscalar,
            Some("scalar") => JobKind::Scalar,
            _ => return Err("`kind` must be `scalar` or `multiscalar`".into()),
        },
    };
    let units = match doc.get("units") {
        None => match kind {
            JobKind::Scalar => 1,
            JobKind::Multiscalar => 4,
        },
        Some(u) => parse_units(u.as_u64().ok_or("`units` must be a non-negative integer")?)?,
    };
    if kind == JobKind::Scalar && units != 1 {
        return Err(format!("scalar baseline has exactly 1 unit, got units={units}"));
    }
    let width = match doc.get("width") {
        None => 1,
        Some(w) => parse_width(w.as_u64().ok_or("`width` must be a non-negative integer")?)?,
    };
    let ooo = match doc.get("ooo") {
        None => false,
        Some(b) => b.as_bool().ok_or("`ooo` must be a boolean")?,
    };
    let partition = match doc.get("partition") {
        None => None,
        Some(p) => Some(p.as_str().ok_or("`partition` must be a string")?.to_string()),
    };
    if partition.is_some() && kind == JobKind::Scalar {
        return Err("`partition` applies only to multiscalar runs".into());
    }
    Ok(RunRequest { workload, scale, kind, units, width, ooo, partition })
}

fn parse_sweep(doc: &JsonValue) -> Result<SweepRequest, String> {
    let workloads = match doc.get("workloads") {
        None => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or("`workloads` must be an array of strings")?
            .iter()
            .map(|w| w.as_str().map(str::to_string).ok_or("`workloads` must contain strings"))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let scale = parse_scale(doc.get("scale"))?;
    let num_list = |key: &str, default: &[u64]| -> Result<Vec<u64>, String> {
        match doc.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => {
                let items = v.as_arr().ok_or_else(|| format!("`{key}` must be an array"))?;
                if items.is_empty() {
                    return Err(format!("`{key}` must not be empty"));
                }
                items
                    .iter()
                    .map(|n| n.as_u64().ok_or_else(|| format!("`{key}` must contain integers")))
                    .collect()
            }
        }
    };
    let widths =
        num_list("widths", &[1])?.into_iter().map(parse_width).collect::<Result<Vec<_>, _>>()?;
    let units =
        num_list("units", &[4])?.into_iter().map(parse_units).collect::<Result<Vec<_>, _>>()?;
    let orders = match doc.get("order") {
        None => vec![false],
        Some(o) => match o.as_str() {
            Some("inorder") => vec![false],
            Some("ooo") => vec![true],
            Some("both") => vec![false, true],
            _ => return Err("`order` must be inorder|ooo|both".into()),
        },
    };
    let include_scalar = match doc.get("scalar") {
        None => true,
        Some(b) => b.as_bool().ok_or("`scalar` must be a boolean")?,
    };
    Ok(SweepRequest { workloads, scale, widths, orders, units, include_scalar })
}

/// Parses one request line.
///
/// # Errors
/// Returns a human-readable description of the first problem (malformed
/// JSON, wrong protocol version, unknown op, invalid field). The caller
/// answers with a `bad_request` error line.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let doc = jsonv::parse(line.trim_end())?;
    if let Some(proto) = doc.get("proto") {
        let p = proto.as_str().unwrap_or("<not a string>");
        if p != PROTO {
            return Err(format!("protocol mismatch: `{p}`, this daemon speaks `{PROTO}`"));
        }
    }
    let id = match doc.get("id") {
        None => 0,
        Some(v) => v.as_u64().ok_or("`id` must be a non-negative integer")?,
    };
    let op = doc.get("op").and_then(JsonValue::as_str).ok_or("request needs an `op` string")?;
    let req = match op {
        "run" => Request::Run(parse_run(&doc)?),
        "sweep" => Request::Sweep(parse_sweep(&doc)?),
        "stats" => Request::Stats,
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok(Envelope { id, req })
}

// ---------------------------------------------------------------------
// Response rendering (server side) and parsing (client side).
// ---------------------------------------------------------------------

/// The greeting the daemon writes when a connection opens.
pub fn hello_line(workers: usize, queue_depth: usize) -> String {
    format!(
        "{{\"proto\":{},\"type\":\"hello\",\"workers\":{workers},\"queue_depth\":{queue_depth}}}\n",
        json::string(PROTO)
    )
}

/// A single-point result response. `payload` must be an
/// [`ms_sweep::artifacts::outcome_json`] rendering.
pub fn result_line(id: u64, payload: &str) -> String {
    format!(
        "{{\"proto\":{},\"type\":\"result\",\"id\":{id},\"result\":{payload}}}\n",
        json::string(PROTO)
    )
}

/// A sweep result response. `payload` must be an
/// [`ms_sweep::artifacts::results_envelope`] rendering.
pub fn sweep_result_line(id: u64, payload: &str) -> String {
    format!(
        "{{\"proto\":{},\"type\":\"sweep_result\",\"id\":{id},\"results\":{payload}}}\n",
        json::string(PROTO)
    )
}

/// An error response; `retry_after_ms` is present for `overloaded`.
pub fn error_line(id: u64, code: &str, retry_after_ms: Option<u64>, detail: &str) -> String {
    let retry = match retry_after_ms {
        Some(ms) => format!(",\"retry_after_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"proto\":{},\"type\":\"error\",\"id\":{id},\"code\":{}{retry},\"detail\":{}}}\n",
        json::string(PROTO),
        json::string(code),
        json::string(detail)
    )
}

/// A stats response; `stats` must be a JSON object rendering.
pub fn stats_line(id: u64, stats: &str) -> String {
    format!(
        "{{\"proto\":{},\"type\":\"stats\",\"id\":{id},\"stats\":{stats}}}\n",
        json::string(PROTO)
    )
}

/// The liveness reply.
pub fn pong_line(id: u64) -> String {
    format!("{{\"proto\":{},\"type\":\"pong\",\"id\":{id}}}\n", json::string(PROTO))
}

/// The shutdown acknowledgement, written after the drain completes.
pub fn bye_line(id: u64) -> String {
    format!("{{\"proto\":{},\"type\":\"bye\",\"id\":{id}}}\n", json::string(PROTO))
}

/// A parsed response line, from the client's point of view.
///
/// `Result`/`SweepResult` carry the *raw payload bytes* sliced out of
/// the line (not a re-rendering), so clients can digest and
/// byte-compare them against `mssweep` artifacts.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The connection greeting.
    Hello {
        /// Worker-pool size the daemon reported.
        workers: u64,
        /// Compute-queue bound the daemon reported.
        queue_depth: u64,
    },
    /// A single-point result; `payload` is the raw outcome object.
    Result {
        /// Echoed request token.
        id: u64,
        /// Raw `outcome_json` bytes.
        payload: String,
    },
    /// A sweep result; `payload` is the raw results document.
    SweepResult {
        /// Echoed request token.
        id: u64,
        /// Raw `results_envelope` bytes.
        payload: String,
    },
    /// An error.
    Error {
        /// Echoed request token.
        id: u64,
        /// Error code (`bad_request`, `overloaded`, `shutting_down`,
        /// `timeout`).
        code: String,
        /// Backoff hint, present on `overloaded`.
        retry_after_ms: Option<u64>,
        /// Human-readable detail.
        detail: String,
    },
    /// A stats report; `raw` is the stats object as written.
    Stats {
        /// Echoed request token.
        id: u64,
        /// Raw stats object bytes.
        raw: String,
    },
    /// The liveness reply.
    Pong {
        /// Echoed request token.
        id: u64,
    },
    /// The shutdown acknowledgement.
    Bye {
        /// Echoed request token.
        id: u64,
    },
}

/// Slices the raw bytes of the final `"<field>":<payload>` object out of
/// a response line. Sound because the envelope writes the payload last
/// and every earlier field is a fixed token or a number.
fn raw_tail<'a>(line: &'a str, field: &str) -> Result<&'a str, String> {
    let marker = format!(",\"{field}\":");
    let at = line.find(&marker).ok_or_else(|| format!("response has no `{field}`"))?;
    let rest = line[at + marker.len()..].trim_end();
    rest.strip_suffix('}').ok_or_else(|| "unterminated response envelope".to_string())
}

/// Parses one response line (client side).
///
/// # Errors
/// Returns a description of the first structural problem, including a
/// protocol-version mismatch.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = jsonv::parse(line.trim_end())?;
    let proto = doc.get("proto").and_then(JsonValue::as_str).unwrap_or("<missing>");
    if proto != PROTO {
        return Err(format!("protocol mismatch: `{proto}`, this client speaks `{PROTO}`"));
    }
    let ty = doc.get("type").and_then(JsonValue::as_str).ok_or("response has no `type`")?;
    let id = doc.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
    match ty {
        "hello" => Ok(Response::Hello {
            workers: doc.get("workers").and_then(JsonValue::as_u64).unwrap_or(0),
            queue_depth: doc.get("queue_depth").and_then(JsonValue::as_u64).unwrap_or(0),
        }),
        "result" => Ok(Response::Result { id, payload: raw_tail(line, "result")?.to_string() }),
        "sweep_result" => {
            Ok(Response::SweepResult { id, payload: raw_tail(line, "results")?.to_string() })
        }
        "stats" => Ok(Response::Stats { id, raw: raw_tail(line, "stats")?.to_string() }),
        "error" => Ok(Response::Error {
            id,
            code: doc
                .get("code")
                .and_then(JsonValue::as_str)
                .ok_or("error response has no `code`")?
                .to_string(),
            retry_after_ms: doc.get("retry_after_ms").and_then(JsonValue::as_u64),
            detail: doc.get("detail").and_then(JsonValue::as_str).unwrap_or("").to_string(),
        }),
        "pong" => Ok(Response::Pong { id }),
        "bye" => Ok(Response::Bye { id }),
        other => Err(format!("unknown response type `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_requests_parse_with_defaults() {
        let e = parse_request(r#"{"op":"run","workload":"wc"}"#).unwrap();
        assert_eq!(e.id, 0);
        let Request::Run(r) = &e.req else { panic!("{e:?}") };
        assert_eq!(r.workload, "wc");
        assert_eq!(r.scale, Scale::Test);
        assert_eq!(r.kind, JobKind::Multiscalar);
        assert_eq!((r.units, r.width, r.ooo), (4, 1, false));
        assert_eq!(r.job().id(), "wc@test/ms4/w1/inorder");
    }

    #[test]
    fn run_requests_parse_explicit_fields() {
        let e = parse_request(
            r#"{"op":"run","id":7,"workload":"Cmp","scale":"full","kind":"multiscalar","units":8,"width":2,"ooo":true}"#,
        )
        .unwrap();
        assert_eq!(e.id, 7);
        let Request::Run(r) = &e.req else { panic!("{e:?}") };
        assert_eq!(r.job().id(), "cmp@full/ms8/w2/ooo");
    }

    #[test]
    fn scalar_run_requests_pin_units_to_one() {
        let e = parse_request(r#"{"op":"run","workload":"wc","kind":"scalar"}"#).unwrap();
        let Request::Run(r) = &e.req else { panic!("{e:?}") };
        assert_eq!(r.units, 1);
        assert_eq!(r.job().id(), "wc@test/scalar/w1/inorder");
        let err = parse_request(r#"{"op":"run","workload":"wc","kind":"scalar","units":4}"#);
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("{", "at byte"),
            (r#"{"op":"run"}"#, "workload"),
            (r#"{"op":"run","workload":"wc","width":3}"#, "width"),
            (r#"{"op":"run","workload":"wc","units":0}"#, "units"),
            (r#"{"op":"run","workload":"wc","units":65}"#, "units"),
            (r#"{"op":"run","workload":"wc","scale":"huge"}"#, "scale"),
            (r#"{"op":"teleport"}"#, "unknown op"),
            (r#"{"op":"run","workload":"wc","proto":"multiscalar-serve/v0"}"#, "mismatch"),
            (r#"{"op":"sweep","widths":[]}"#, "widths"),
            (r#"{"op":"sweep","order":"sideways"}"#, "order"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "`{line}` -> `{err}` (wanted `{needle}`)");
        }
    }

    #[test]
    fn sweep_requests_expand_like_mssweep() {
        let e = parse_request(
            r#"{"op":"sweep","id":3,"workloads":["wc","cmp"],"widths":[1],"units":[4],"order":"inorder"}"#,
        )
        .unwrap();
        let Request::Sweep(s) = &e.req else { panic!("{e:?}") };
        let jobs = s.spec().expand();
        assert_eq!(jobs.len(), 4); // 2 workloads x (scalar + ms4)
        assert_eq!(jobs[0].id(), "wc@test/scalar/w1/inorder");
        assert_eq!(jobs[3].id(), "cmp@test/ms4/w1/inorder");
    }

    #[test]
    fn nesting_is_bounded_on_a_connection_sized_stack() {
        // Connection threads run on 256 KiB stacks; the deepest request
        // the parser accepts must fit, and a deeper one must be refused
        // with a reason instead of overflowing the stack.
        let deepest = format!(
            r#"{{"op":"ping","pad":{}{}}}"#,
            "[".repeat(jsonv::MAX_DEPTH - 1),
            "]".repeat(jsonv::MAX_DEPTH - 1)
        );
        let hostile = "[".repeat(100_000);
        let (ok, err) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || (parse_request(&deepest), parse_request(&hostile)))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(ok.unwrap().req, Request::Ping);
        assert!(err.unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"stats","id":9}"#).unwrap().req, Request::Stats);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().req, Request::Ping);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap().req, Request::Shutdown);
    }

    #[test]
    fn response_lines_round_trip_with_raw_payloads() {
        let payload = r#"{"job":"wc@test/ms4/w1/inorder","ok":true,"stats":{"cycles":10}}"#;
        let line = result_line(42, payload);
        match parse_response(&line).unwrap() {
            Response::Result { id, payload: p } => {
                assert_eq!(id, 42);
                assert_eq!(p, payload, "payload bytes survive untouched");
            }
            other => panic!("{other:?}"),
        }

        let line = error_line(7, "overloaded", Some(100), "queue full (depth 8)");
        match parse_response(&line).unwrap() {
            Response::Error { id, code, retry_after_ms, detail } => {
                assert_eq!((id, code.as_str(), retry_after_ms), (7, "overloaded", Some(100)));
                assert!(detail.contains("queue full"));
            }
            other => panic!("{other:?}"),
        }

        match parse_response(&hello_line(4, 256)).unwrap() {
            Response::Hello { workers, queue_depth } => {
                assert_eq!((workers, queue_depth), (4, 256));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_response(&pong_line(1)).unwrap(), Response::Pong { id: 1 });
        assert_eq!(parse_response(&bye_line(2)).unwrap(), Response::Bye { id: 2 });
    }

    #[test]
    fn responses_from_other_protocols_are_rejected() {
        assert!(parse_response(r#"{"proto":"other/v9","type":"pong","id":1}"#).is_err());
        assert!(parse_response("not json").is_err());
    }
}
