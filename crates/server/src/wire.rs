//! The JSON-line wire codec: frame schemas, the request parser, the
//! client-side request renderer, and the reply-frame assemblers.
//!
//! The protocol is specified in `docs/PROTOCOL.md`; a doc-sync test
//! (`tests/protocol_doc.rs`) pins every worked example there to the real
//! output of this module, so the spec cannot drift from the code.
//!
//! Wire failures are reported through the same closed
//! [`ApiError`] taxonomy the in-process boundary uses: malformed frames
//! map to `invalid-request`, admission refusals to `overloaded`. The
//! embedded solution payload of a reply frame is byte-for-byte
//! [`Solution::to_json_line`](splitting_api::Solution::to_json_line) —
//! the server adds an envelope, never re-renders.

use crate::json::{self, Json, Number};
use degree_split::Engine;
use splitgraph::{BipartiteGraph, Graph, MultiGraph};
use splitting_api::render::JsonObject;
use splitting_api::{ApiError, Instance, Pipeline, Problem, Request};
use splitting_reductions::EdgeSplitEngine;
use std::ops::Range;

/// The wire protocol version this build speaks. Every frame carries
/// `"v":1`; other versions are rejected with a typed error.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on the `id` field, in bytes.
pub const MAX_ID_BYTES: usize = 128;

/// Hard cap on an instance's `left`, `right` and `nodes` counts, checked
/// before any graph is allocated. Instance fingerprints pack node ids
/// into 32 bits, so the cap must stay at or below 2^32.
pub const MAX_NODES: usize = 1 << 24;

/// Scheduling priority of a request. Workers always drain `high` before
/// `normal` before `low`; within one lane, requests run in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Served only when the other lanes are empty.
    Low,
}

impl Priority {
    /// Number of priority lanes.
    pub const COUNT: usize = 3;

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// The queue lane index (0 = most urgent).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// The envelope of a request frame: everything admission control needs,
/// extracted without parsing the (potentially large) problem/instance
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Client-chosen request id, echoed on the reply frame.
    pub id: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional wall-clock budget (ms, counted from admission). The
    /// envelope scan surfaces it so the queue can expire jobs without
    /// parsing their payloads.
    pub deadline_ms: Option<u64>,
    /// Optional client-supplied idempotency key. A request whose key
    /// matches an already-completed one is answered from the reply
    /// cache, flagged `"replayed":true`, instead of being solved twice
    /// — the retry-after-reconnect contract (see `docs/PROTOCOL.md`
    /// § Durability and idempotency). Absent key = no caching.
    pub idempotency_key: Option<String>,
    /// Optional instance handle (32-hex, see [`render_handle`]). When
    /// set, the frame carries no inline `instance`; the server resolves
    /// the handle against its interned-instance table at admission.
    /// Exactly one of handle / inline instance is present — the
    /// envelope scan enforces the exclusion.
    pub handle: Option<String>,
}

/// One scanned client frame, classified by `type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// A `request` frame (body not yet parsed — workers do that).
    Request(Envelope),
    /// An `upload` frame: intern the carried instance server-side and
    /// reply with its handle (body not yet parsed — ingest does that).
    Upload {
        /// Echoed id.
        id: String,
    },
    /// A `release` frame: drop an interned instance.
    Release {
        /// Echoed id.
        id: String,
        /// The 32-hex handle to drop (format-validated by the scan).
        handle: String,
    },
    /// A `mutate` frame: apply an edge-delta batch to an interned
    /// bipartite instance and reply with its re-derived handle (edit
    /// lists not yet parsed — ingest does that).
    Mutate {
        /// Echoed id.
        id: String,
        /// The 32-hex handle of the instance to patch.
        handle: String,
        /// Optional client retry token: a mutate whose key matches an
        /// already-delivered `mutated` reply replays it from the cache
        /// instead of re-patching (the handle has already moved, so a
        /// blind retry would otherwise fail `unknown instance handle`).
        idempotency_key: Option<String>,
    },
    /// A `ping` frame; the server replies with a heartbeat.
    Ping {
        /// Echoed id ("" when the ping carried none).
        id: String,
    },
    /// A `shutdown` frame; the server drains and closes the stream.
    Shutdown,
}

fn invalid(field: &'static str, reason: impl Into<String>) -> ApiError {
    ApiError::InvalidRequest {
        field,
        reason: reason.into(),
    }
}

/// The raw value of `key` among scanned `(key, raw-value)` fields.
fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// A raw JSON value parsed as a string.
fn json_string(raw: &str) -> Option<String> {
    json::parse(raw).ok()?.as_str().map(str::to_owned)
}

/// A raw JSON value parsed as a number.
fn json_number(raw: &str) -> Option<Number> {
    json::parse(raw).ok()?.as_number()
}

const REQUEST_KEYS: &[&str] = &[
    "v",
    "type",
    "id",
    "priority",
    "problem",
    "instance",
    "determinism",
    "seed",
    "force_pipeline",
    "max_rounds",
    "attempts",
    "deadline_ms",
    "idempotency_key",
    "handle",
];
const UPLOAD_KEYS: &[&str] = &["v", "type", "id", "instance"];
const RELEASE_KEYS: &[&str] = &["v", "type", "id", "handle"];
const MUTATE_KEYS: &[&str] = &[
    "v",
    "type",
    "id",
    "handle",
    "inserts",
    "deletes",
    "idempotency_key",
];
const PING_KEYS: &[&str] = &["v", "type", "id"];
const SHUTDOWN_KEYS: &[&str] = &["v", "type"];

fn check_version(raw: Option<&str>) -> Result<(), ApiError> {
    match raw {
        Some(raw) => {
            if json_number(raw).and_then(Number::as_u64) == Some(PROTOCOL_VERSION) {
                Ok(())
            } else {
                Err(invalid(
                    "v",
                    format!("unsupported protocol version {raw}; this server speaks v{PROTOCOL_VERSION}"),
                ))
            }
        }
        None => Err(invalid(
            "v",
            format!("missing protocol version; send \"v\":{PROTOCOL_VERSION}"),
        )),
    }
}

fn parse_id(raw: Option<&str>) -> Result<String, ApiError> {
    let Some(raw) = raw else {
        return Err(invalid(
            "id",
            "request frames must carry a client-chosen id",
        ));
    };
    let id = json_string(raw).ok_or_else(|| invalid("id", "id must be a JSON string"))?;
    if id.is_empty() {
        return Err(invalid("id", "id must be non-empty"));
    }
    if id.len() > MAX_ID_BYTES {
        return Err(invalid(
            "id",
            format!("id exceeds {MAX_ID_BYTES} bytes ({} given)", id.len()),
        ));
    }
    Ok(id)
}

fn parse_priority(raw: Option<&str>) -> Result<Priority, ApiError> {
    match raw {
        None => Ok(Priority::Normal),
        Some(raw) => {
            let s = json_string(raw)
                .ok_or_else(|| invalid("priority", "priority must be a JSON string"))?;
            Priority::parse(&s).ok_or_else(|| {
                invalid(
                    "priority",
                    format!("unknown priority \"{s}\"; use high, normal, or low"),
                )
            })
        }
    }
}

/// Parses a raw `"idempotency_key"` value (shared by request and mutate
/// frames): a non-empty JSON string of at most [`MAX_ID_BYTES`] bytes.
fn parse_idempotency_key(raw: Option<&str>) -> Result<Option<String>, ApiError> {
    let Some(raw) = raw else { return Ok(None) };
    let key =
        json_string(raw).ok_or_else(|| invalid("idempotency_key", "must be a JSON string"))?;
    if key.is_empty() {
        return Err(invalid(
            "idempotency_key",
            "must be non-empty (omit the field for no idempotency)",
        ));
    }
    if key.len() > MAX_ID_BYTES {
        return Err(invalid(
            "idempotency_key",
            format!("exceeds {MAX_ID_BYTES} bytes ({} given)", key.len()),
        ));
    }
    Ok(Some(key))
}

/// `(key, value)` byte ranges of one object's fields within a scanned
/// line.
type FieldRanges = Vec<(Range<usize>, Range<usize>)>;

/// One object's `(key, raw-value)` field slices.
type Fields<'l> = Vec<(&'l str, &'l str)>;

/// Everything the ingest scan harvested beyond the envelope, as byte
/// ranges into the scanned line (ranges survive the ingest copy of the
/// line into a job, slices would not). Every body parse reads from it —
/// [`parse_request_prescanned`] for inline requests, and the server's
/// parses of handle-form requests, uploads and mutations — so no line
/// is scanned or classified twice.
pub struct PreScan {
    /// The classified envelope, for `request` frames.
    envelope: Option<Envelope>,
    /// Top-level `(key, value)` ranges of the frame.
    fields: FieldRanges,
    /// The instance object's own field ranges and its edge pairs, when
    /// the canonical fast grammar served the whole object.
    instance: Option<(FieldRanges, Vec<(usize, usize)>)>,
}

/// Restores the field slices a [`PreScan`] recorded for `line`.
fn reslice<'l>(
    line: &'l str,
    ranges: &[(Range<usize>, Range<usize>)],
) -> Result<Fields<'l>, ApiError> {
    ranges
        .iter()
        .map(|(k, v)| Some((line.get(k.clone())?, line.get(v.clone())?)))
        .collect::<Option<_>>()
        .ok_or_else(|| invalid("frame", "the prescan was taken of a different line"))
}

/// Classifies one line and validates its envelope (`v`, `type`, `id`,
/// `priority`, and key-set strictness) **without** parsing the problem,
/// instance or edit-list payloads — those are brace-skipped, so
/// admission control on a megabyte-scale frame costs a single scan. The
/// [`PreScan`] comes back for `request`, `upload` and `mutate` frames
/// (`None` for the bodiless rest); their bodies are parsed from it, and
/// a body error comes back as a typed error frame under this envelope's
/// id.
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] for anything that is not a structurally
/// valid v1 client frame.
pub fn scan_envelope_prescanned(line: &str) -> Result<(ClientFrame, Option<PreScan>), ApiError> {
    let scan =
        json::scan_frame(line).map_err(|e| invalid("frame", format!("not a JSON object: {e}")))?;
    let frame = classify_frame(&scan.fields)?;
    let envelope = match &frame {
        ClientFrame::Request(envelope) => Some(envelope.clone()),
        ClientFrame::Upload { .. } | ClientFrame::Mutate { .. } => None,
        _ => return Ok((frame, None)),
    };
    let base = line.as_ptr() as usize;
    let to_ranges = |fields: &[(&str, &str)]| {
        fields
            .iter()
            .map(|(k, v)| {
                let ks = k.as_ptr() as usize - base;
                let vs = v.as_ptr() as usize - base;
                (ks..ks + k.len(), vs..vs + v.len())
            })
            .collect()
    };
    let prescan = PreScan {
        envelope,
        fields: to_ranges(&scan.fields),
        instance: scan
            .instance
            .map(|(fields, pairs)| (to_ranges(&fields), pairs)),
    };
    Ok((frame, Some(prescan)))
}

/// Parses a raw `"handle"` value: a JSON string of exactly 32 lowercase
/// hex digits (the rendering of [`instance_fingerprint`]).
fn parse_handle_field(raw: &str) -> Result<String, ApiError> {
    let handle = json_string(raw).ok_or_else(|| invalid("handle", "must be a JSON string"))?;
    if parse_handle(&handle).is_none() {
        return Err(invalid(
            "handle",
            format!("\"{handle}\" is not a 32-digit lowercase-hex instance handle"),
        ));
    }
    Ok(handle)
}

/// The envelope half of [`scan_envelope_prescanned`], over the scanned
/// top-level fields.
fn classify_frame(fields: &[(&str, &str)]) -> Result<ClientFrame, ApiError> {
    let get = |key: &str| field(fields, key);
    check_version(get("v"))?;
    let ty = match get("type") {
        Some(raw) => {
            json_string(raw).ok_or_else(|| invalid("type", "type must be a JSON string"))?
        }
        None => return Err(invalid("type", "missing frame type")),
    };
    let allowed: &[&str] = match ty.as_str() {
        "request" => REQUEST_KEYS,
        "upload" => UPLOAD_KEYS,
        "release" => RELEASE_KEYS,
        "mutate" => MUTATE_KEYS,
        "ping" => PING_KEYS,
        "shutdown" => SHUTDOWN_KEYS,
        other => return Err(invalid(
            "type",
            format!(
                "unknown frame type \"{other}\"; use request, upload, release, mutate, ping, or shutdown"
            ),
        )),
    };
    for (key, _) in fields {
        if !allowed.contains(key) {
            return Err(invalid(
                "frame",
                format!("unknown field \"{key}\" on a {ty} frame"),
            ));
        }
    }
    match ty.as_str() {
        "request" => {
            let id = parse_id(get("id"))?;
            let priority = parse_priority(get("priority"))?;
            let deadline_ms = get("deadline_ms")
                .map(|raw| {
                    json_number(raw).and_then(Number::as_u64).ok_or_else(|| {
                        invalid("deadline_ms", "must be an unsigned integer (milliseconds)")
                    })
                })
                .transpose()?;
            let idempotency_key = parse_idempotency_key(get("idempotency_key"))?;
            let handle = get("handle").map(parse_handle_field).transpose()?;
            if get("problem").is_none() {
                return Err(invalid("problem", "request frames must carry a problem"));
            }
            match (get("instance").is_some(), handle.is_some()) {
                (true, true) => {
                    return Err(invalid(
                        "instance",
                        "carry either an inline instance or a handle, not both",
                    ))
                }
                (false, false) => {
                    return Err(invalid(
                        "instance",
                        "request frames must carry an instance or an instance handle",
                    ))
                }
                _ => {}
            }
            Ok(ClientFrame::Request(Envelope {
                id,
                priority,
                deadline_ms,
                idempotency_key,
                handle,
            }))
        }
        "upload" => {
            let id = parse_id(get("id"))?;
            if get("instance").is_none() {
                return Err(invalid("instance", "upload frames must carry an instance"));
            }
            Ok(ClientFrame::Upload { id })
        }
        "release" => {
            let id = parse_id(get("id"))?;
            let handle = match get("handle") {
                Some(raw) => parse_handle_field(raw)?,
                None => {
                    return Err(invalid(
                        "handle",
                        "release frames must name the handle to drop",
                    ))
                }
            };
            Ok(ClientFrame::Release { id, handle })
        }
        "mutate" => {
            let id = parse_id(get("id"))?;
            let handle = match get("handle") {
                Some(raw) => parse_handle_field(raw)?,
                None => {
                    return Err(invalid(
                        "handle",
                        "mutate frames must name the handle to patch",
                    ))
                }
            };
            if get("inserts").is_none() && get("deletes").is_none() {
                return Err(invalid(
                    "frame",
                    "mutate frames must carry inserts and/or deletes",
                ));
            }
            let idempotency_key = parse_idempotency_key(get("idempotency_key"))?;
            Ok(ClientFrame::Mutate {
                id,
                handle,
                idempotency_key,
            })
        }
        "ping" => {
            let id = match get("id") {
                Some(raw) => parse_id(Some(raw))?,
                None => String::new(),
            };
            Ok(ClientFrame::Ping { id })
        }
        _ => Ok(ClientFrame::Shutdown),
    }
}

// ------------------------------------------------------- request parsing

fn field_str(fields: &[(&str, &str)], key: &'static str) -> Result<Option<String>, ApiError> {
    field(fields, key)
        .map(|raw| json_string(raw).ok_or_else(|| invalid(key, "must be a JSON string")))
        .transpose()
}

fn field_number(fields: &[(&str, &str)], key: &'static str) -> Result<Option<Number>, ApiError> {
    field(fields, key)
        .map(|raw| json_number(raw).ok_or_else(|| invalid(key, "must be a JSON number")))
        .transpose()
}

fn obj_str(obj: &Json, key: &'static str, ctx: &'static str) -> Result<Option<String>, ApiError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_owned())).ok_or_else(|| {
            invalid(
                ctx,
                format!("{key} must be a string, got {}", v.type_name()),
            )
        }),
    }
}

fn obj_number(
    obj: &Json,
    key: &'static str,
    ctx: &'static str,
) -> Result<Option<Number>, ApiError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_number().map(Some).ok_or_else(|| {
            invalid(
                ctx,
                format!("{key} must be a number, got {}", v.type_name()),
            )
        }),
    }
}

fn obj_usize(obj: &Json, key: &'static str, ctx: &'static str) -> Result<Option<usize>, ApiError> {
    match obj_number(obj, key, ctx)? {
        None => Ok(None),
        Some(n) => n
            .as_usize()
            .map(Some)
            .ok_or_else(|| invalid(ctx, format!("{key} must be a non-negative integer"))),
    }
}

fn check_keys(obj: &Json, allowed: &[&str], ctx: &'static str) -> Result<(), ApiError> {
    for (key, _) in obj.as_object().expect("checked object") {
        if !allowed.iter().any(|a| a == key) {
            return Err(invalid(ctx, format!("unknown field \"{key}\"")));
        }
    }
    Ok(())
}

fn parse_problem(raw: &str) -> Result<Problem, ApiError> {
    let obj = json::parse(raw).map_err(|e| invalid("problem", e.to_string()))?;
    if obj.as_object().is_none() {
        return Err(invalid("problem", "must be a JSON object"));
    }
    let name = obj_str(&obj, "name", "problem")?
        .ok_or_else(|| invalid("problem", "missing problem name"))?;
    match name.as_str() {
        "weak-splitting" => {
            check_keys(&obj, &["name", "thm12_constant"], "problem")?;
            let c = obj_number(&obj, "thm12_constant", "problem")?.map_or(3.0, Number::as_f64);
            Ok(Problem::WeakSplitting { thm12_constant: c })
        }
        "weak-multicolor" => {
            check_keys(&obj, &["name"], "problem")?;
            Ok(Problem::WeakMulticolor)
        }
        "multicolor-splitting" => {
            check_keys(&obj, &["name", "colors", "lambda"], "problem")?;
            let colors = obj_number(&obj, "colors", "problem")?
                .and_then(Number::as_u32)
                .ok_or_else(|| invalid("problem", "colors must be an integer palette bound"))?;
            let lambda = obj_number(&obj, "lambda", "problem")?
                .ok_or_else(|| invalid("problem", "missing per-color load cap lambda"))?
                .as_f64();
            Ok(Problem::MulticolorSplitting { colors, lambda })
        }
        "uniform-splitting" => {
            check_keys(&obj, &["name", "eps", "min_degree"], "problem")?;
            Ok(Problem::UniformSplitting {
                eps: obj_number(&obj, "eps", "problem")?.map(Number::as_f64),
                min_degree: obj_usize(&obj, "min_degree", "problem")?,
            })
        }
        "degree-splitting" => {
            check_keys(&obj, &["name", "eps", "engine"], "problem")?;
            let eps = obj_number(&obj, "eps", "problem")?
                .ok_or_else(|| invalid("problem", "missing contract accuracy eps"))?
                .as_f64();
            let engine = match obj_str(&obj, "engine", "problem")?.as_deref() {
                None | Some("eulerian-oracle") => Engine::EulerianOracle,
                Some("walk") => Engine::Walk,
                Some(other) => {
                    return Err(invalid(
                        "problem",
                        format!("unknown engine \"{other}\"; use eulerian-oracle or walk"),
                    ))
                }
            };
            Ok(Problem::DegreeSplitting { eps, engine })
        }
        "sinkless-orientation" => {
            check_keys(&obj, &["name"], "problem")?;
            Ok(Problem::SinklessOrientation)
        }
        "delta-coloring" => {
            check_keys(&obj, &["name", "base_degree", "max_eps"], "problem")?;
            Ok(Problem::DeltaColoring {
                base_degree: obj_usize(&obj, "base_degree", "problem")?,
                max_eps: obj_number(&obj, "max_eps", "problem")?.map(Number::as_f64),
            })
        }
        "edge-coloring" => {
            check_keys(&obj, &["name", "base_degree", "engine"], "problem")?;
            let engine = match obj_str(&obj, "engine", "problem")?.as_deref() {
                None | Some("eulerian") => EdgeSplitEngine::Eulerian,
                Some("walk") => EdgeSplitEngine::Walk,
                Some(other) => {
                    return Err(invalid(
                        "problem",
                        format!("unknown engine \"{other}\"; use eulerian or walk"),
                    ))
                }
            };
            Ok(Problem::EdgeColoring {
                base_degree: obj_usize(&obj, "base_degree", "problem")?,
                engine,
            })
        }
        "mis" => {
            check_keys(&obj, &["name", "base_degree"], "problem")?;
            Ok(Problem::Mis {
                base_degree: obj_usize(&obj, "base_degree", "problem")?,
            })
        }
        other => Err(invalid("problem", format!("unknown problem \"{other}\""))),
    }
}

/// Parses the `"instance"` object of a prescanned frame into a typed
/// [`Instance`], reporting whether the zero-copy edge scanner served the
/// edge list (`false` = the strict fallback parser ran; the server
/// counts those on its [`StatsSnapshot::parse_fallbacks`] gauge). The
/// ingest scan already decoded a canonically spelled instance; an
/// exotic one is parsed here from the kept slice.
///
/// Edge-list error offsets are reported in the coordinate system of the
/// instance object — the same one every other instance error uses —
/// not of the inner edges slice.
fn parse_instance(
    line: &str,
    fields: &[(&str, &str)],
    prescanned: Option<(FieldRanges, Vec<(usize, usize)>)>,
) -> Result<(Instance, bool), ApiError> {
    let raw = field(fields, "instance").ok_or_else(|| invalid("instance", "missing instance"))?;
    let (fields, mut fused_pairs) = match prescanned {
        Some((ranges, pairs)) => (reslice(line, &ranges)?, Some(pairs)),
        None => (
            json::scan_top_level(raw)
                .map_err(|e| invalid("instance", format!("not a JSON object: {e}")))?,
            None,
        ),
    };
    let get = |key: &str| field(&fields, key);
    let kind = match get("kind") {
        Some(raw) => {
            json_string(raw).ok_or_else(|| invalid("instance", "kind must be a JSON string"))?
        }
        None => return Err(invalid("instance", "missing instance kind")),
    };
    // every node count is bounded before a graph builder allocates for it
    let node_count = |key: &'static str, missing: &'static str| -> Result<usize, ApiError> {
        let raw = get(key).ok_or_else(|| invalid("instance", missing))?;
        let n = json_number(raw)
            .and_then(Number::as_usize)
            .ok_or_else(|| invalid("instance", format!("{key} must be a non-negative integer")))?;
        if n > MAX_NODES {
            return Err(invalid(
                "instance",
                format!("{key} = {n} exceeds the {MAX_NODES}-node limit"),
            ));
        }
        Ok(n)
    };
    let mut edges = || -> Result<(Vec<(usize, usize)>, bool), ApiError> {
        match get("edges") {
            // the fused scan already parsed the canonical fast grammar
            // in the same pass that located the value's end
            Some(_) if fused_pairs.is_some() => {
                Ok((fused_pairs.take().expect("checked above"), true))
            }
            Some(slice) => json::scan_edge_pairs(slice).map_err(|mut e| {
                // the edge parser reports offsets relative to the edges
                // slice; shift into the instance object so every
                // instance error shares one coordinate system
                e.offset += slice.as_ptr() as usize - raw.as_ptr() as usize;
                invalid("instance", format!("edges: {e}"))
            }),
            None => Err(invalid("instance", "missing edges array")),
        }
    };
    let check_keys = |allowed: &[&str]| -> Result<(), ApiError> {
        for (key, _) in &fields {
            if !allowed.contains(key) {
                return Err(invalid(
                    "instance",
                    format!("unknown field \"{key}\" on a {kind} instance"),
                ));
            }
        }
        Ok(())
    };
    match kind.as_str() {
        "bipartite" => {
            check_keys(&["kind", "left", "right", "edges"])?;
            let left = node_count("left", "missing left (constraint count)")?;
            let right = node_count("right", "missing right (variable count)")?;
            let (pairs, fast) = edges()?;
            let b = BipartiteGraph::from_edges_bulk(left, right, &pairs)
                .map_err(|e| invalid("instance", e.to_string()))?;
            Ok((Instance::Bipartite(b), fast))
        }
        "host" => {
            check_keys(&["kind", "nodes", "edges"])?;
            let n = node_count("nodes", "missing node count")?;
            let (pairs, fast) = edges()?;
            let g = Graph::from_edges_bulk(n, &pairs)
                .map_err(|e| invalid("instance", e.to_string()))?;
            Ok((Instance::Host(g), fast))
        }
        "multigraph" => {
            check_keys(&["kind", "nodes", "edges"])?;
            let n = node_count("nodes", "missing node count")?;
            let (endpoints, fast) = edges()?;
            // from_endpoints panics on out-of-range ids; validate first so
            // malformed frames stay typed errors
            for &(a, b) in &endpoints {
                if a >= n || b >= n {
                    return Err(invalid(
                        "instance",
                        format!("edge endpoint ({a}, {b}) out of range for {n} nodes"),
                    ));
                }
            }
            Ok((
                Instance::Multi(MultiGraph::from_endpoints(n, endpoints)),
                fast,
            ))
        }
        other => Err(invalid(
            "instance",
            format!("unknown instance kind \"{other}\"; use bipartite, host, or multigraph"),
        )),
    }
}

/// The envelope and top-level fields of a prescanned `request` frame,
/// checked for the instance form the caller handles.
fn request_fields<'l>(
    line: &'l str,
    pre: &PreScan,
    by_handle: bool,
) -> Result<(Envelope, Fields<'l>), ApiError> {
    let envelope = pre
        .envelope
        .clone()
        .ok_or_else(|| invalid("type", "expected a request frame"))?;
    match (by_handle, envelope.handle.is_some()) {
        (false, true) => Err(invalid(
            "handle",
            "instance handles are resolved by the server at admission; \
             this parser needs an inline instance",
        )),
        (true, false) => Err(invalid(
            "handle",
            "this frame carries an inline instance; use parse_request_prescanned",
        )),
        _ => Ok((envelope, reslice(line, &pre.fields)?)),
    }
}

/// Parses an inline-instance `request` frame from its ingest scan into
/// its envelope and the typed [`Request`] the in-process API solves,
/// plus the zero-copy tracing bit of the instance parse (`true` when
/// the fast edge scanner served it). Strict: unknown fields anywhere in
/// the frame, the problem object, or the instance object are typed
/// errors (typos must not silently become defaults).
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] describing the first offending field.
/// Handle-form frames are an error here: the handle table lives in the
/// server, which resolves handles at admission.
pub fn parse_request_prescanned(
    line: &str,
    pre: PreScan,
) -> Result<(Envelope, Request, bool), ApiError> {
    let (envelope, fields) = request_fields(line, &pre, false)?;
    let problem = parse_problem(field(&fields, "problem").expect("checked by classify_frame"))?;
    let (instance, fast) = parse_instance(line, &fields, pre.instance)?;
    let request = apply_policy_fields(&fields, &envelope, Request::new(problem, instance))?;
    Ok((envelope, request, fast))
}

/// Parses a handle-form `request` frame from its ingest scan against
/// its already-resolved shared instance: everything
/// [`parse_request_prescanned`] does, except that the instance comes
/// from the server's handle table (structurally shared, no per-request
/// graph allocation) instead of the frame body.
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] for frames that are not handle-form
/// requests or whose problem or policy fields are malformed.
pub(crate) fn parse_handle_request(
    line: &str,
    pre: &PreScan,
    instance: std::sync::Arc<Instance>,
) -> Result<Request, ApiError> {
    let (envelope, fields) = request_fields(line, pre, true)?;
    let problem = parse_problem(field(&fields, "problem").expect("checked by classify_frame"))?;
    apply_policy_fields(&fields, &envelope, Request::from_shared(problem, instance))
}

/// Parses the instance an `upload` frame carries from its ingest scan,
/// with the fast-path bit of [`parse_request_prescanned`].
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] on the `instance` field.
pub(crate) fn parse_upload(line: &str, pre: PreScan) -> Result<(Instance, bool), ApiError> {
    parse_instance(line, &reslice(line, &pre.fields)?, pre.instance)
}

/// Applies the policy tail of a request frame — determinism, seed,
/// pipeline override, budget — shared by the inline and handle-form
/// parsers.
fn apply_policy_fields(
    fields: &[(&str, &str)],
    envelope: &Envelope,
    mut request: Request,
) -> Result<Request, ApiError> {
    match field_str(fields, "determinism")?.as_deref() {
        None => {}
        Some("deterministic") => request = request.deterministic(),
        Some("randomized") => request = request.randomized(),
        Some(other) => {
            return Err(invalid(
                "determinism",
                format!("unknown policy \"{other}\"; use deterministic or randomized"),
            ))
        }
    }
    if let Some(n) = field_number(fields, "seed")? {
        let seed = n
            .as_u64()
            .ok_or_else(|| invalid("seed", "must be an unsigned 64-bit integer"))?;
        request = request.seed(seed);
    }
    if let Some(name) = field_str(fields, "force_pipeline")? {
        let pipeline = [
            Pipeline::Theorem27,
            Pipeline::Theorem25,
            Pipeline::ZeroRound,
            Pipeline::Theorem12,
        ]
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| {
            invalid(
                "force_pipeline",
                format!(
                    "unknown pipeline \"{name}\"; use theorem27, theorem25, zero-round, or theorem12"
                ),
            )
        })?;
        request = request.force_pipeline(pipeline);
    }
    if let Some(n) = field_number(fields, "max_rounds")? {
        request = request.max_rounds(n.as_f64());
    }
    if let Some(n) = field_number(fields, "attempts")? {
        let attempts = n
            .as_usize()
            .ok_or_else(|| invalid("attempts", "must be a non-negative integer"))?;
        request = request.attempts(attempts);
    }
    if let Some(ms) = envelope.deadline_ms {
        request = request.deadline_ms(ms);
    }
    Ok(request)
}

// ------------------------------------------------------ request rendering

fn render_edges(out: &mut String, edges: impl Iterator<Item = (usize, usize)>) {
    out.push('[');
    let mut first = true;
    for (u, v) in edges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('[');
        out.push_str(&u.to_string());
        out.push(',');
        out.push_str(&v.to_string());
        out.push(']');
    }
    out.push(']');
}

fn render_instance(instance: &Instance) -> String {
    let mut edges_buf = String::new();
    let mut obj = JsonObject::new();
    match instance {
        Instance::Bipartite(b) => {
            render_edges(&mut edges_buf, b.edges());
            obj.string("kind", "bipartite")
                .uint("left", b.left_count() as u64)
                .uint("right", b.right_count() as u64)
                .raw("edges", &edges_buf);
        }
        Instance::Host(g) => {
            render_edges(&mut edges_buf, g.edges());
            obj.string("kind", "host")
                .uint("nodes", g.node_count() as u64)
                .raw("edges", &edges_buf);
        }
        Instance::Multi(g) => {
            render_edges(&mut edges_buf, (0..g.edge_count()).map(|e| g.endpoints(e)));
            obj.string("kind", "multigraph")
                .uint("nodes", g.node_count() as u64)
                .raw("edges", &edges_buf);
        }
    }
    obj.finish()
}

fn render_problem(problem: &Problem) -> String {
    let mut obj = JsonObject::new();
    obj.string("name", problem.name());
    match *problem {
        Problem::WeakSplitting { thm12_constant } => {
            obj.float("thm12_constant", thm12_constant);
        }
        Problem::WeakMulticolor | Problem::SinklessOrientation => {}
        Problem::MulticolorSplitting { colors, lambda } => {
            obj.uint("colors", u64::from(colors))
                .float("lambda", lambda);
        }
        Problem::UniformSplitting { eps, min_degree } => {
            if let Some(eps) = eps {
                obj.float("eps", eps);
            }
            if let Some(d) = min_degree {
                obj.uint("min_degree", d as u64);
            }
        }
        Problem::DegreeSplitting { eps, engine } => {
            obj.float("eps", eps).string(
                "engine",
                match engine {
                    Engine::EulerianOracle => "eulerian-oracle",
                    Engine::Walk => "walk",
                },
            );
        }
        Problem::DeltaColoring {
            base_degree,
            max_eps,
        } => {
            if let Some(b) = base_degree {
                obj.uint("base_degree", b as u64);
            }
            if let Some(e) = max_eps {
                obj.float("max_eps", e);
            }
        }
        Problem::EdgeColoring {
            base_degree,
            engine,
        } => {
            if let Some(b) = base_degree {
                obj.uint("base_degree", b as u64);
            }
            obj.string(
                "engine",
                match engine {
                    EdgeSplitEngine::Eulerian => "eulerian",
                    EdgeSplitEngine::Walk => "walk",
                },
            );
        }
        Problem::Mis { base_degree } => {
            if let Some(b) = base_degree {
                obj.uint("base_degree", b as u64);
            }
        }
    }
    obj.finish()
}

/// Renders a [`Request`] as a canonical v1 `request` frame — the
/// client-side encoder. [`parse_request_prescanned`] inverts it exactly
/// (round-trip-tested), so in-process callers can go over the wire
/// without hand-writing JSON.
pub fn render_request(id: &str, priority: Priority, request: &Request) -> String {
    request_frame(id, priority, None, None, request)
}

/// [`render_request`] with an optional client-supplied idempotency key
/// (rendered right after `priority`; `None` renders the exact same
/// frame as the keyless variant).
pub fn render_request_with_key(
    id: &str,
    priority: Priority,
    idempotency_key: Option<&str>,
    request: &Request,
) -> String {
    request_frame(id, priority, idempotency_key, None, request)
}

/// Renders a `request` frame that references an interned instance by
/// handle instead of carrying it inline — the upload-once/solve-many
/// client encoder. The request's own instance is *not* serialized; the
/// server resolves `handle` against its table at admission.
pub fn render_request_with_handle(
    id: &str,
    priority: Priority,
    handle: &str,
    request: &Request,
) -> String {
    request_frame(id, priority, None, Some(handle), request)
}

/// The one `request` frame body: envelope, optional idempotency key,
/// problem, then the handle or the inline instance, then the policy
/// tail.
fn request_frame(
    id: &str,
    priority: Priority,
    idempotency_key: Option<&str>,
    handle: Option<&str>,
    request: &Request,
) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "request")
        .string("id", id)
        .string("priority", priority.name());
    if let Some(key) = idempotency_key {
        obj.string("idempotency_key", key);
    }
    obj.raw("problem", &render_problem(request.problem()));
    match handle {
        Some(handle) => obj.string("handle", handle),
        None => obj.raw("instance", &render_instance(request.instance())),
    };
    obj.string("determinism", request.determinism().name())
        .uint("seed", request.master_seed());
    if let Some(p) = request.pipeline_override() {
        obj.string("force_pipeline", p.name());
    }
    if let Some(r) = request.budget().max_rounds {
        obj.float("max_rounds", r);
    }
    if let Some(a) = request.budget().attempts {
        obj.uint("attempts", a as u64);
    }
    if let Some(ms) = request.budget().deadline_ms {
        obj.uint("deadline_ms", ms);
    }
    obj.finish()
}

/// Renders an `upload` frame interning `instance` server-side. The
/// reply is an `uploaded` frame carrying the handle.
pub fn render_upload(id: &str, instance: &Instance) -> String {
    let body = render_instance(instance);
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "upload")
        .string("id", id)
        .raw("instance", &body);
    obj.finish()
}

/// Renders a `release` frame dropping an interned instance.
pub fn render_release(id: &str, handle: &str) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "release")
        .string("id", id)
        .string("handle", handle);
    obj.finish()
}

/// Renders a `mutate` frame applying an edge-delta batch to an interned
/// bipartite instance. Empty lists are omitted (the frame must carry at
/// least one non-empty list to classify).
pub fn render_mutate(
    id: &str,
    handle: &str,
    inserts: &[(usize, usize)],
    deletes: &[(usize, usize)],
) -> String {
    render_mutate_with_key(id, handle, None, inserts, deletes)
}

/// [`render_mutate`] with an optional client-supplied idempotency key
/// (`None` renders the exact same frame as the keyless variant). A keyed
/// mutate whose reply is lost can be retried verbatim: the server
/// replays the cached `mutated` frame instead of failing on the
/// already-moved handle.
pub fn render_mutate_with_key(
    id: &str,
    handle: &str,
    idempotency_key: Option<&str>,
    inserts: &[(usize, usize)],
    deletes: &[(usize, usize)],
) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "mutate")
        .string("id", id)
        .string("handle", handle);
    if let Some(key) = idempotency_key {
        obj.string("idempotency_key", key);
    }
    let mut buf = String::new();
    if !inserts.is_empty() {
        render_edges(&mut buf, inserts.iter().copied());
        obj.raw("inserts", &buf);
    }
    if !deletes.is_empty() {
        buf.clear();
        render_edges(&mut buf, deletes.iter().copied());
        obj.raw("deletes", &buf);
    }
    obj.finish()
}

/// One edit list of a `mutate` frame: `(left, right)` edge endpoints.
pub type EditList = Vec<(usize, usize)>;

/// Parses the edit lists of a `mutate` frame from its ingest scan:
/// `(inserts, deletes)`, each `[]` when the frame omitted the list.
/// Edits ride the same `[[u,v],...]` grammar as instance edge lists
/// (and the same fast scanner).
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] on a malformed list.
pub(crate) fn parse_mutate_edits(
    line: &str,
    pre: &PreScan,
) -> Result<(EditList, EditList), ApiError> {
    let fields = reslice(line, &pre.fields)?;
    let list = |key: &'static str| -> Result<EditList, ApiError> {
        match field(&fields, key) {
            None => Ok(Vec::new()),
            Some(slice) => json::scan_edge_pairs(slice)
                .map(|(pairs, _)| pairs)
                .map_err(|e| invalid(key, format!("malformed edit list: {e}"))),
        }
    };
    Ok((list("inserts")?, list("deletes")?))
}

/// Feeds an instance's structural content into a hasher: a kind/shape
/// tag word followed by the packed edge list. Shared by
/// [`request_fingerprint`] (journal payload interning) and
/// [`instance_fingerprint`] (instance handles), which differ only in
/// their domain tags.
fn hash_instance(h: &mut crate::journal::PayloadHasher, instance: &Instance) {
    // an edge fits one word in any graph that fits in memory; the
    // packing cannot alias across edges because positions line up
    let mut edge = |(u, v): (usize, usize)| {
        debug_assert!(u >> 32 == 0 && v >> 32 == 0, "node id exceeds 32 bits");
        h.word(((u as u64) << 32) | (v as u64 & 0xFFFF_FFFF));
    };
    match instance {
        Instance::Bipartite(b) => {
            edge((b.left_count(), b.right_count()));
            b.edges().for_each(&mut edge);
        }
        Instance::Host(g) => {
            edge((1, g.node_count()));
            g.edges().for_each(&mut edge);
        }
        Instance::Multi(g) => {
            edge((2, g.node_count()));
            (0..g.edge_count())
                .map(|e| g.endpoints(e))
                .for_each(&mut edge);
        }
    }
}

/// 128-bit structural fingerprint of an instance's *content* — exactly
/// what [`render_request`] serializes as the `"instance"` object. Two
/// instances with equal fingerprints render byte-identical canonical
/// encodings; the hex rendering of this hash ([`render_handle`]) **is**
/// the wire-level instance handle, so re-uploading an instance is
/// idempotent by construction. Hashed in its own domain
/// ([`crate::journal::DOMAIN_INSTANCE`]) so handles can never alias
/// journal payload fingerprints.
pub fn instance_fingerprint(instance: &Instance) -> crate::journal::PayloadHash {
    use crate::journal;
    let mut h = journal::PayloadHasher::new(journal::DOMAIN_INSTANCE);
    hash_instance(&mut h, instance);
    h.finish()
}

/// Encodes an instance fingerprint as the 32-digit lowercase-hex wire
/// handle string. [`parse_handle`] inverts it exactly.
pub fn render_handle(hash: crate::journal::PayloadHash) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(32);
    for b in hash {
        write!(s, "{b:02x}").expect("writing hex to a String cannot fail");
    }
    s
}

/// Decodes a wire handle back into the fingerprint it names. `None`
/// unless the string is exactly 32 lowercase hex digits.
pub fn parse_handle(s: &str) -> Option<crate::journal::PayloadHash> {
    let bytes = s.as_bytes();
    if bytes.len() != 32 {
        return None;
    }
    let nib = |b: u8| match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    };
    let mut hash = [0u8; 16];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        hash[i] = nib(pair[0])? * 16 + nib(pair[1])?;
    }
    Some(hash)
}

/// 128-bit structural fingerprint of a request's *content* — exactly
/// the fields [`render_request`] serializes, minus the envelope (id,
/// priority, idempotency key). Two requests with equal fingerprints
/// render byte-identical canonical payloads, which is what lets the
/// write-ahead journal intern one payload blob for many admissions
/// without paying for a JSON rendering per admission (see
/// [`crate::journal`]).
///
/// The hash is a fast non-cryptographic content address in its own
/// domain ([`crate::journal::DOMAIN_REQUEST`]); the journal trusts its
/// in-process writers, so the bar is accidental collisions, not
/// adversarial ones.
pub fn request_fingerprint(request: &Request) -> crate::journal::PayloadHash {
    use crate::journal;
    let mut h = journal::PayloadHasher::new(journal::DOMAIN_REQUEST);
    hash_instance(&mut h, request.instance());
    hash_policy(&mut h, request);
    h.finish()
}

/// 128-bit fingerprint of a request's *policy* — everything
/// [`request_fingerprint`] hashes except the instance. Two requests with
/// equal policy fingerprints solve identically on any given instance,
/// which is what keys the server's held-solution cache: `(instance
/// fingerprint, policy fingerprint)` identifies "the same solve" across
/// mutations that move the instance to a new content hash.
pub fn policy_fingerprint(request: &Request) -> crate::journal::PayloadHash {
    use crate::journal;
    let mut h = journal::PayloadHasher::new(journal::DOMAIN_REQUEST);
    // a fixed tag word in place of the instance keeps policy
    // fingerprints from aliasing full request fingerprints
    h.word(u64::MAX);
    hash_policy(&mut h, request);
    h.finish()
}

fn hash_policy(h: &mut crate::journal::PayloadHasher, request: &Request) {
    // every problem field the renderer serializes, with presence tags
    // for the optional ones; the variant name separates the variants
    let problem = request.problem();
    h.bytes(problem.name().as_bytes());
    let mut opt_word = |v: Option<u64>| match v {
        Some(v) => {
            h.word(1);
            h.word(v);
        }
        None => h.word(0),
    };
    match *problem {
        Problem::WeakSplitting { thm12_constant } => opt_word(Some(thm12_constant.to_bits())),
        Problem::WeakMulticolor | Problem::SinklessOrientation => {}
        Problem::MulticolorSplitting { colors, lambda } => {
            opt_word(Some(u64::from(colors)));
            opt_word(Some(lambda.to_bits()));
        }
        Problem::UniformSplitting { eps, min_degree } => {
            opt_word(eps.map(f64::to_bits));
            opt_word(min_degree.map(|d| d as u64));
        }
        Problem::DegreeSplitting { eps, engine } => {
            opt_word(Some(eps.to_bits()));
            opt_word(Some(engine as u64));
        }
        Problem::DeltaColoring {
            base_degree,
            max_eps,
        } => {
            opt_word(base_degree.map(|b| b as u64));
            opt_word(max_eps.map(f64::to_bits));
        }
        Problem::EdgeColoring {
            base_degree,
            engine,
        } => {
            opt_word(base_degree.map(|b| b as u64));
            opt_word(Some(engine as u64));
        }
        Problem::Mis { base_degree } => opt_word(base_degree.map(|b| b as u64)),
    }
    h.bytes(request.determinism().name().as_bytes());
    h.word(request.master_seed());
    match request.pipeline_override() {
        Some(p) => h.bytes(p.name().as_bytes()),
        None => h.word(0),
    }
    let budget = request.budget();
    let mut opt_word = |v: Option<u64>| match v {
        Some(v) => {
            h.word(1);
            h.word(v);
        }
        None => h.word(0),
    };
    opt_word(budget.max_rounds.map(f64::to_bits));
    opt_word(budget.attempts.map(|a| a as u64));
    opt_word(budget.deadline_ms);
}

/// Renders a `ping` frame.
pub fn render_ping(id: &str) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION).string("type", "ping");
    if !id.is_empty() {
        obj.string("id", id);
    }
    obj.finish()
}

/// Renders a `shutdown` frame.
pub fn render_shutdown() -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION).string("type", "shutdown");
    obj.finish()
}

// -------------------------------------------------------- reply assembly

/// Per-request service timings attached to reply frames (omitted when the
/// server runs with timings disabled, e.g. for byte-reproducible streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Nanoseconds between admission and a worker picking the job up.
    pub queued_ns: u64,
    /// Nanoseconds the worker spent parsing + solving + rendering.
    pub solve_ns: u64,
}

/// The one reply-frame body: envelope, optional timings and replay
/// marker, then the payload under a key named like the frame type.
fn reply_frame(
    frame_type: &str,
    id: &str,
    seq: u64,
    timing: Option<Timing>,
    replayed: bool,
    payload: &str,
) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", frame_type)
        .string("id", id)
        .uint("seq", seq);
    if let Some(t) = timing {
        obj.uint("queued_ns", t.queued_ns)
            .uint("solve_ns", t.solve_ns);
    }
    if replayed {
        obj.bool("replayed", true);
    }
    // the payload is always the LAST field so tests and clients can
    // extract it byte-exactly with `embedded_payload`
    obj.raw(frame_type, payload);
    obj.finish()
}

/// Assembles a `solution` reply frame around a rendered
/// [`Solution::to_json_line`](splitting_api::Solution::to_json_line)
/// payload (embedded verbatim).
pub fn solution_frame(id: &str, seq: u64, timing: Option<Timing>, payload: &str) -> String {
    reply_frame("solution", id, seq, timing, false, payload)
}

/// Assembles an `error` reply frame around a rendered
/// [`ApiError::to_json_line`] payload (embedded verbatim).
pub fn error_frame(id: &str, seq: u64, timing: Option<Timing>, payload: &str) -> String {
    reply_frame("error", id, seq, timing, false, payload)
}

/// Assembles a reply frame served from the idempotency cache: the
/// cached reply's `frame_type` (`solution`, `error` or `mutated`) with
/// its payload embedded byte-for-byte, still the last field, plus a
/// `"replayed":true` marker before it. Timings are omitted — nothing
/// was queued, solved or re-patched.
pub fn replayed_frame(frame_type: &str, id: &str, seq: u64, payload: &str) -> String {
    reply_frame(frame_type, id, seq, None, true, payload)
}

/// Renders the payload of an `uploaded` reply: the handle, the interned
/// instance's shape (so the client can sanity-check what the server
/// holds), and the table size after interning.
pub fn uploaded_payload(handle: &str, instance: &Instance, held: usize) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "uploaded").string("handle", handle);
    match instance {
        Instance::Bipartite(b) => {
            obj.string("kind", "bipartite")
                .uint("left", b.left_count() as u64)
                .uint("right", b.right_count() as u64)
                .uint("edges", b.edges().count() as u64);
        }
        Instance::Host(g) => {
            obj.string("kind", "host")
                .uint("nodes", g.node_count() as u64)
                .uint("edges", g.edge_count() as u64);
        }
        Instance::Multi(g) => {
            obj.string("kind", "multigraph")
                .uint("nodes", g.node_count() as u64)
                .uint("edges", g.edge_count() as u64);
        }
    }
    obj.uint("held", held as u64);
    obj.finish()
}

/// Renders the payload of a `released` reply: the dropped handle and
/// the table size after the drop.
pub fn released_payload(handle: &str, held: usize) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "released")
        .string("handle", handle)
        .uint("held", held as u64);
    obj.finish()
}

/// Renders the payload of a `mutated` reply: the patched handle moves
/// from `handle` to `new_handle` (handles are content hashes, so the
/// hash is re-derived after the patch), with the edit counts applied,
/// the patched instance's edge count, and the table size.
pub fn mutated_payload(
    handle: &str,
    new_handle: &str,
    inserted: usize,
    deleted: usize,
    edges: usize,
    held: usize,
) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "mutated")
        .string("handle", handle)
        .string("new_handle", new_handle)
        .uint("inserted", inserted as u64)
        .uint("deleted", deleted as u64)
        .uint("edges", edges as u64)
        .uint("held", held as u64);
    obj.finish()
}

/// Assembles an `uploaded` reply frame around a rendered
/// [`uploaded_payload`] (embedded verbatim, last field like every reply
/// payload). Timings are omitted — interning happens at ingest, nothing
/// is queued or solved.
pub fn uploaded_frame(id: &str, seq: u64, payload: &str) -> String {
    reply_frame("uploaded", id, seq, None, false, payload)
}

/// Assembles a `released` reply frame around a rendered
/// [`released_payload`].
pub fn released_frame(id: &str, seq: u64, payload: &str) -> String {
    reply_frame("released", id, seq, None, false, payload)
}

/// Assembles a `mutated` reply frame around a rendered
/// [`mutated_payload`] (embedded verbatim, last field like every reply
/// payload). Timings are omitted — patching happens at ingest, nothing
/// is queued or solved.
pub fn mutated_frame(id: &str, seq: u64, payload: &str) -> String {
    reply_frame("mutated", id, seq, None, false, payload)
}

/// A point-in-time service snapshot, reported on heartbeat frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests solved (or typed-failed) and reported.
    pub served: u64,
    /// Requests refused admission.
    pub rejected: u64,
    /// Connections evicted for consuming replies too slowly.
    pub evicted: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Deepest the queue has been since startup.
    pub queue_high_water: usize,
    /// Jobs being solved right now.
    pub inflight: usize,
    /// Persistent worker count.
    pub workers: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Requests answered from the idempotency cache instead of solved.
    pub replayed: u64,
    /// Admissions appended to the journal since startup (0 when the
    /// server runs without `--journal`).
    pub journal_appended: u64,
    /// Current journal file size in bytes (0 without a journal).
    pub journal_bytes: u64,
    /// Incomplete jobs recovered from the journal at startup.
    pub journal_recovered: u64,
    /// Instance edge lists that fell off the zero-copy fast scanner
    /// onto the strict fallback parser. Canonical encodings never fall
    /// back, so a non-zero value means a client is sending exotic (but
    /// valid) edge spellings — the bench smoke job fails on it.
    pub parse_fallbacks: u64,
    /// Instances currently interned in the upload-handle table.
    pub handles_held: u64,
    /// Edge-delta batches applied to interned instances (`mutate`
    /// frames that succeeded).
    pub mutations_applied: u64,
    /// Held-solution updates served by the incremental repair path.
    pub repairs: u64,
    /// Held-solution updates that fell back to a from-scratch solve.
    pub full_resolves: u64,
    /// Mean fraction of constraints re-examined per repair, in
    /// permille (‰, 0–1000; integral so heartbeat frames stay
    /// byte-stable).
    pub refix_mean_permille: u64,
}

/// Assembles a `heartbeat` reply frame.
pub fn heartbeat_frame(id: &str, seq: u64, stats: StatsSnapshot) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "heartbeat")
        .string("id", id)
        .uint("seq", seq)
        .uint("served", stats.served)
        .uint("rejected", stats.rejected)
        .uint("evicted", stats.evicted)
        .uint("queue_depth", stats.queue_depth as u64)
        .uint("queue_high_water", stats.queue_high_water as u64)
        .uint("inflight", stats.inflight as u64)
        .uint("workers", stats.workers as u64)
        .uint("queue_capacity", stats.queue_capacity as u64)
        .uint("replayed", stats.replayed)
        .uint("journal_appended", stats.journal_appended)
        .uint("journal_bytes", stats.journal_bytes)
        .uint("journal_recovered", stats.journal_recovered)
        .uint("parse_fallbacks", stats.parse_fallbacks)
        .uint("handles_held", stats.handles_held)
        .uint("mutations_applied", stats.mutations_applied)
        .uint("repairs", stats.repairs)
        .uint("full_resolves", stats.full_resolves)
        .uint("refix_mean_permille", stats.refix_mean_permille);
    obj.finish()
}

/// Renders the reserved wire-level panic report (see `docs/PROTOCOL.md`):
/// not part of the [`ApiError`] taxonomy because it certifies a server
/// bug, not a request failure.
pub fn internal_panic_payload(detail: &str) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "error")
        .string("kind", "internal-panic")
        .string("detail", detail);
    obj.finish()
}

/// A reply frame split back into its parts — the client-side decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply<'a> {
    /// `"solution"`, `"error"`, or `"heartbeat"`.
    pub frame_type: String,
    /// The echoed request id.
    pub id: String,
    /// Per-connection reporting sequence number.
    pub seq: u64,
    /// Optional service timings (absent when the server disables them).
    pub timing: Option<Timing>,
    /// `true` when the frame was served from the idempotency cache
    /// instead of a fresh solve.
    pub replayed: bool,
    /// The **byte-exact slice** of the embedded `solution`/`error`
    /// object; `None` for heartbeats. This is how the conformance
    /// harness asserts that server output equals direct `Session::solve`
    /// rendering byte for byte.
    pub payload: Option<&'a str>,
}

/// Splits a reply frame into its envelope and embedded payload slice.
/// Returns `None` when `frame` is not a well-formed v1 reply frame.
pub fn split_reply(frame: &str) -> Option<Reply<'_>> {
    let fields = json::scan_top_level(frame).ok()?;
    let get = |key: &str| field(&fields, key);
    let v = json::parse(get("v")?).ok()?.as_number()?.as_u64()?;
    if v != PROTOCOL_VERSION {
        return None;
    }
    let frame_type = json::parse(get("type")?).ok()?.as_str()?.to_owned();
    let id = json::parse(get("id")?).ok()?.as_str()?.to_owned();
    let seq = json::parse(get("seq")?).ok()?.as_number()?.as_u64()?;
    let field_u64 =
        |key: &str| -> Option<u64> { json::parse(get(key)?).ok()?.as_number()?.as_u64() };
    let timing = match (field_u64("queued_ns"), field_u64("solve_ns")) {
        (Some(queued_ns), Some(solve_ns)) => Some(Timing {
            queued_ns,
            solve_ns,
        }),
        _ => None,
    };
    // heartbeats reuse `replayed` as a counter (total cache hits served),
    // so the boolean reading applies only to solution/error frames
    let replayed = frame_type != "heartbeat"
        && match get("replayed") {
            None => false,
            Some(raw) => json::parse(raw).ok()?.as_bool()?,
        };
    let payload = match frame_type.as_str() {
        "solution" | "error" | "uploaded" | "released" | "mutated" => Some(get(&frame_type)?),
        "heartbeat" => None,
        _ => return None,
    };
    Some(Reply {
        frame_type,
        id,
        seq,
        timing,
        replayed,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    /// The envelope half of the ingest scan.
    fn classify(line: &str) -> Result<ClientFrame, ApiError> {
        scan_envelope_prescanned(line).map(|(frame, _)| frame)
    }

    /// The whole ingest path of an inline request frame: one scan, then
    /// the body parse from it.
    fn parse(line: &str) -> Result<(Envelope, Request), ApiError> {
        let pre = scan_envelope_prescanned(line)?
            .1
            .expect("request frames carry a prescan");
        parse_request_prescanned(line, pre).map(|(envelope, request, _)| (envelope, request))
    }

    /// Parses a bare instance object through an `upload` frame, so its
    /// error offsets stay relative to the instance text.
    fn instance(raw: &str) -> Result<(Instance, bool), ApiError> {
        let line = format!(r#"{{"v":1,"type":"upload","id":"i","instance":{raw}}}"#);
        let pre = scan_envelope_prescanned(&line)?
            .1
            .expect("uploads carry a prescan");
        parse_upload(&line, pre)
    }

    #[test]
    fn envelope_scan_classifies_frames() {
        let line = r#"{"v":1,"type":"request","id":"r1","priority":"high","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;
        assert_eq!(
            classify(line).unwrap(),
            ClientFrame::Request(Envelope {
                id: "r1".into(),
                priority: Priority::High,
                deadline_ms: None,
                idempotency_key: None,
                handle: None,
            })
        );
        assert_eq!(
            classify(r#"{"v":1,"type":"ping"}"#).unwrap(),
            ClientFrame::Ping { id: String::new() }
        );
        assert_eq!(
            classify(r#"{"v":1,"type":"shutdown"}"#).unwrap(),
            ClientFrame::Shutdown
        );
    }

    #[test]
    fn envelope_scan_rejects_bad_frames() {
        for (line, field) in [
            ("not json", "frame"),
            ("[1,2]", "frame"),
            (r#"{"type":"request"}"#, "v"),
            (r#"{"v":2,"type":"request"}"#, "v"),
            (r#"{"v":1}"#, "type"),
            (r#"{"v":1,"type":"nope"}"#, "type"),
            (r#"{"v":1,"type":"request"}"#, "id"),
            (r#"{"v":1,"type":"request","id":""}"#, "id"),
            (r#"{"v":1,"type":"request","id":"x","bogus":1}"#, "frame"),
            (
                r#"{"v":1,"type":"request","id":"x","priority":"urgent"}"#,
                "priority",
            ),
            (r#"{"v":1,"type":"request","id":"x"}"#, "problem"),
            (
                r#"{"v":1,"type":"request","id":"x","deadline_ms":"soon"}"#,
                "deadline_ms",
            ),
            (
                r#"{"v":1,"type":"request","id":"x","deadline_ms":-5}"#,
                "deadline_ms",
            ),
            (
                r#"{"v":1,"type":"request","id":"x","idempotency_key":7}"#,
                "idempotency_key",
            ),
            (
                r#"{"v":1,"type":"request","id":"x","idempotency_key":""}"#,
                "idempotency_key",
            ),
            (r#"{"v":1,"type":"shutdown","id":"x"}"#, "frame"),
        ] {
            match classify(line) {
                Err(ApiError::InvalidRequest { field: f, .. }) => {
                    assert_eq!(f, field, "line {line}")
                }
                other => panic!("{line}: expected invalid-request on {field}, got {other:?}"),
            }
        }
    }

    fn roundtrip(request: Request) {
        let line = render_request("rt", Priority::Low, &request);
        let (envelope, parsed) = parse(&line).expect(&line);
        assert_eq!(envelope.id, "rt");
        assert_eq!(envelope.priority, Priority::Low);
        assert_eq!(&parsed, &request, "wire round-trip changed the request");
    }

    #[test]
    fn every_problem_variant_roundtrips() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let g = generators::cycle(6).unwrap();
        let m = MultiGraph::from_endpoints(3, vec![(0, 1), (0, 1), (1, 2)]);
        roundtrip(Request::new(Problem::weak_splitting(), b.clone()).seed(7));
        roundtrip(
            Request::new(
                Problem::WeakSplitting {
                    thm12_constant: 1.5,
                },
                b.clone(),
            )
            .deterministic()
            .force_pipeline(Pipeline::Theorem25)
            .max_rounds(1e6)
            .attempts(3)
            .deadline_ms(30_000),
        );
        roundtrip(Request::new(Problem::WeakMulticolor, b.clone()));
        roundtrip(Request::new(
            Problem::MulticolorSplitting {
                colors: 6,
                lambda: 0.6,
            },
            b.clone(),
        ));
        roundtrip(Request::new(
            Problem::UniformSplitting {
                eps: Some(0.25),
                min_degree: Some(4),
            },
            g.clone(),
        ));
        roundtrip(Request::new(
            Problem::UniformSplitting {
                eps: None,
                min_degree: None,
            },
            g.clone(),
        ));
        roundtrip(Request::new(
            Problem::DegreeSplitting {
                eps: 0.25,
                engine: Engine::Walk,
            },
            m.clone(),
        ));
        roundtrip(Request::new(Problem::SinklessOrientation, g.clone()));
        roundtrip(Request::new(
            Problem::DeltaColoring {
                base_degree: Some(8),
                max_eps: Some(0.2),
            },
            g.clone(),
        ));
        roundtrip(Request::new(
            Problem::EdgeColoring {
                base_degree: None,
                engine: EdgeSplitEngine::Walk,
            },
            g.clone(),
        ));
        roundtrip(Request::new(Problem::Mis { base_degree: None }, g).seed(u64::MAX));
    }

    // The contract `request_fingerprint` must keep for journal payload
    // interning: fingerprints agree exactly when the canonical
    // renderings agree. Every variant pair here differs in one field
    // the renderer serializes, so a fingerprint that skipped any field
    // would collide two distinct payloads and fail this test.
    #[test]
    fn fingerprint_equality_tracks_canonical_rendering() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let b2 = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let g = generators::cycle(6).unwrap();
        let m = MultiGraph::from_endpoints(3, vec![(0, 1), (0, 1), (1, 2)]);
        let mis = |instance: Instance| Request::new(Problem::Mis { base_degree: None }, instance);
        let variants: Vec<Request> = vec![
            Request::new(Problem::weak_splitting(), b.clone()),
            Request::new(Problem::weak_splitting(), b2.clone()),
            Request::new(Problem::weak_splitting(), b.clone()).seed(7),
            Request::new(
                Problem::WeakSplitting {
                    thm12_constant: 1.5,
                },
                b.clone(),
            ),
            Request::new(Problem::WeakMulticolor, b.clone()),
            Request::new(
                Problem::MulticolorSplitting {
                    colors: 6,
                    lambda: 0.6,
                },
                b.clone(),
            ),
            Request::new(
                Problem::MulticolorSplitting {
                    colors: 7,
                    lambda: 0.6,
                },
                b.clone(),
            ),
            Request::new(
                Problem::UniformSplitting {
                    eps: None,
                    min_degree: None,
                },
                g.clone(),
            ),
            Request::new(
                Problem::UniformSplitting {
                    eps: Some(0.25),
                    min_degree: None,
                },
                g.clone(),
            ),
            Request::new(
                Problem::UniformSplitting {
                    eps: None,
                    min_degree: Some(4),
                },
                g.clone(),
            ),
            Request::new(
                Problem::DegreeSplitting {
                    eps: 0.25,
                    engine: Engine::Walk,
                },
                m.clone(),
            ),
            Request::new(
                Problem::DegreeSplitting {
                    eps: 0.25,
                    engine: Engine::EulerianOracle,
                },
                m.clone(),
            ),
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(4),
                    engine: EdgeSplitEngine::Walk,
                },
                g.clone(),
            ),
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(4),
                    engine: EdgeSplitEngine::Eulerian,
                },
                g.clone(),
            ),
            Request::new(
                Problem::DeltaColoring {
                    base_degree: None,
                    max_eps: Some(0.2),
                },
                g.clone(),
            ),
            mis(Instance::from(g.clone())),
            mis(Instance::from(g.clone())).deterministic(),
            mis(Instance::from(g.clone())).force_pipeline(Pipeline::Theorem25),
            mis(Instance::from(g.clone())).max_rounds(1e6),
            mis(Instance::from(g.clone())).attempts(3),
            mis(Instance::from(g.clone())).deadline_ms(30_000),
        ];
        for (i, a) in variants.iter().enumerate() {
            let line_a = render_request("interned", Priority::Normal, a);
            for (j, bq) in variants.iter().enumerate() {
                let line_b = render_request("interned", Priority::Normal, bq);
                assert_eq!(
                    request_fingerprint(a) == request_fingerprint(bq),
                    line_a == line_b,
                    "fingerprint/render disagreement between variants {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn idempotency_keys_ride_the_envelope_not_the_request() {
        let g = generators::cycle(6).unwrap();
        let request = Request::new(Problem::Mis { base_degree: None }, g).seed(3);
        let keyed = render_request_with_key("k1", Priority::Normal, Some("retry-abc"), &request);
        assert!(
            keyed.contains(r#""idempotency_key":"retry-abc""#),
            "{keyed}"
        );
        let (envelope, parsed) = parse(&keyed).unwrap();
        assert_eq!(envelope.idempotency_key.as_deref(), Some("retry-abc"));
        // the key is transport metadata: the solved Request is identical
        // to the keyless rendering's, so the solve (and its bytes)
        // cannot depend on it
        let plain = render_request("k1", Priority::Normal, &request);
        let (plain_env, plain_parsed) = parse(&plain).unwrap();
        assert_eq!(plain_env.idempotency_key, None);
        assert_eq!(parsed, plain_parsed);
    }

    #[test]
    fn mutate_frames_carry_an_optional_idempotency_key() {
        let handle = "0123456789abcdef0123456789abcdef";
        let keyed = render_mutate_with_key("m1", handle, Some("retry-m"), &[(0, 1)], &[]);
        assert!(keyed.contains(r#""idempotency_key":"retry-m""#), "{keyed}");
        match classify(&keyed).unwrap() {
            ClientFrame::Mutate {
                id,
                handle: h,
                idempotency_key,
            } => {
                assert_eq!(id, "m1");
                assert_eq!(h, handle);
                assert_eq!(idempotency_key.as_deref(), Some("retry-m"));
            }
            other => panic!("expected a mutate frame, got {other:?}"),
        }
        // the keyless renderings are byte-identical (doc-sync transcripts
        // rely on this), and scan to a None key
        let plain = render_mutate("m1", handle, &[(0, 1)], &[]);
        assert_eq!(
            plain,
            render_mutate_with_key("m1", handle, None, &[(0, 1)], &[])
        );
        match classify(&plain).unwrap() {
            ClientFrame::Mutate {
                idempotency_key, ..
            } => assert_eq!(idempotency_key, None),
            other => panic!("expected a mutate frame, got {other:?}"),
        }
        // malformed keys are typed errors, same rules as request keys
        let empty = format!(
            r#"{{"v":1,"type":"mutate","id":"m","handle":"{handle}","idempotency_key":"","inserts":[[0,1]]}}"#
        );
        assert_eq!(classify(&empty).unwrap_err().kind(), "invalid-request");
        let non_string = format!(
            r#"{{"v":1,"type":"mutate","id":"m","handle":"{handle}","idempotency_key":7,"inserts":[[0,1]]}}"#
        );
        assert_eq!(classify(&non_string).unwrap_err().kind(), "invalid-request");
    }

    #[test]
    fn envelope_scan_surfaces_the_deadline_budget() {
        let line = r#"{"v":1,"type":"request","id":"d1","deadline_ms":250,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;
        match classify(line).unwrap() {
            ClientFrame::Request(envelope) => assert_eq!(envelope.deadline_ms, Some(250)),
            other => panic!("expected a request frame, got {other:?}"),
        }
        let (_, request) = parse(line).unwrap();
        assert_eq!(request.budget().deadline_ms, Some(250));
    }

    #[test]
    fn unknown_problem_and_instance_fields_are_typed_errors() {
        let bad_problem = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis","basedegree":4},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;
        assert_eq!(parse(bad_problem).unwrap_err().kind(), "invalid-request");
        let bad_instance = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[],"n":1}}"#;
        assert_eq!(parse(bad_instance).unwrap_err().kind(), "invalid-request");
        let bad_edge = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"multigraph","nodes":2,"edges":[[0,5]]}}"#;
        let err = parse(bad_edge).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn reply_frames_embed_payload_last() {
        let frame = solution_frame("r9", 4, None, r#"{"event":"solution","x":1}"#);
        assert_eq!(
            frame,
            r#"{"v":1,"type":"solution","id":"r9","seq":4,"solution":{"event":"solution","x":1}}"#
        );
        let timed = error_frame(
            "r9",
            5,
            Some(Timing {
                queued_ns: 10,
                solve_ns: 20,
            }),
            r#"{"event":"error"}"#,
        );
        assert_eq!(
            timed,
            r#"{"v":1,"type":"error","id":"r9","seq":5,"queued_ns":10,"solve_ns":20,"error":{"event":"error"}}"#
        );
    }

    #[test]
    fn replayed_frames_keep_the_payload_last_and_flag_before_it() {
        let payload = r#"{"event":"solution","x":1}"#;
        let frame = replayed_frame("solution", "r9", 4, payload);
        assert_eq!(
            frame,
            r#"{"v":1,"type":"solution","id":"r9","seq":4,"replayed":true,"solution":{"event":"solution","x":1}}"#
        );
        let reply = split_reply(&frame).unwrap();
        assert!(reply.replayed);
        assert_eq!(reply.payload, Some(payload));
        // fresh frames parse as not-replayed
        assert!(
            !split_reply(&solution_frame("r9", 4, None, payload))
                .unwrap()
                .replayed
        );
    }

    #[test]
    fn split_reply_recovers_envelope_and_exact_payload() {
        let payload = r#"{"event":"solution","rounds":0}"#;
        let frame = solution_frame(
            "abc",
            17,
            Some(Timing {
                queued_ns: 3,
                solve_ns: 9,
            }),
            payload,
        );
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "solution");
        assert_eq!(reply.id, "abc");
        assert_eq!(reply.seq, 17);
        assert_eq!(
            reply.timing,
            Some(Timing {
                queued_ns: 3,
                solve_ns: 9
            })
        );
        assert_eq!(reply.payload, Some(payload));

        let hb = heartbeat_frame("", 0, StatsSnapshot::default());
        let reply = split_reply(&hb).unwrap();
        assert_eq!(reply.frame_type, "heartbeat");
        assert_eq!(reply.payload, None);

        assert!(split_reply("not json").is_none());
        assert!(
            split_reply(r#"{"v":2,"type":"solution","id":"x","seq":0,"solution":{}}"#).is_none()
        );
    }

    #[test]
    fn handles_roundtrip_through_render_and_parse() {
        let g = generators::cycle(6).unwrap();
        let hash = instance_fingerprint(&Instance::from(g));
        let handle = render_handle(hash);
        assert_eq!(handle.len(), 32);
        assert!(handle
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        assert_eq!(parse_handle(&handle), Some(hash));
        // rejects: wrong length, uppercase, non-hex
        assert_eq!(parse_handle(&handle[1..]), None);
        assert_eq!(parse_handle(&handle.to_uppercase()), None);
        assert_eq!(parse_handle(&format!("{}g", &handle[..31])), None);
    }

    #[test]
    fn instance_fingerprints_separate_structure_and_domain() {
        let g = generators::cycle(6).unwrap();
        let g2 = generators::cycle(7).unwrap();
        let a = instance_fingerprint(&Instance::from(g.clone()));
        assert_eq!(a, instance_fingerprint(&Instance::from(g.clone())));
        assert_ne!(a, instance_fingerprint(&Instance::from(g2)));
        // the instance domain must not collide with the request domain
        // over the same underlying graph content
        let request = Request::new(Problem::Mis { base_degree: None }, g);
        assert_ne!(a, request_fingerprint(&request));
    }

    #[test]
    fn handle_requests_scan_and_render_consistently() {
        let g = generators::cycle(6).unwrap();
        let request = Request::new(Problem::Mis { base_degree: None }, g).seed(3);
        let handle = render_handle(instance_fingerprint(request.instance()));
        let line = render_request_with_handle("h1", Priority::Normal, &handle, &request);
        match classify(&line).unwrap() {
            ClientFrame::Request(envelope) => {
                assert_eq!(envelope.id, "h1");
                assert_eq!(envelope.handle.as_deref(), Some(handle.as_str()));
            }
            other => panic!("expected a request frame, got {other:?}"),
        }
        // the inline-only parser refuses handle frames with a typed error
        let err = parse(&line).unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        assert!(err.to_string().contains("handle"), "{err}");
        // the resolved-instance parser reconstructs the same request
        let pre = scan_envelope_prescanned(&line).unwrap().1.unwrap();
        let shared = std::sync::Arc::new(request.instance().clone());
        assert_eq!(parse_handle_request(&line, &pre, shared).unwrap(), request);
        // and refuses inline frames, pointing callers at the inline parser
        let inline = render_request("h1", Priority::Normal, &request);
        let pre = scan_envelope_prescanned(&inline).unwrap().1.unwrap();
        let shared = std::sync::Arc::new(request.instance().clone());
        let err = parse_handle_request(&inline, &pre, shared).unwrap_err();
        assert!(err.to_string().contains("inline"), "{err}");
    }

    #[test]
    fn upload_and_release_frames_classify_and_reject() {
        let g = generators::cycle(6).unwrap();
        let instance = Instance::from(g);
        let upload = render_upload("u1", &instance);
        assert_eq!(
            classify(&upload).unwrap(),
            ClientFrame::Upload { id: "u1".into() }
        );
        let handle = render_handle(instance_fingerprint(&instance));
        let release = render_release("u2", &handle);
        assert_eq!(
            classify(&release).unwrap(),
            ClientFrame::Release {
                id: "u2".into(),
                handle: handle.clone(),
            }
        );
        for (line, field) in [
            // a request may not carry both an inline instance and a handle
            (
                format!(
                    r#"{{"v":1,"type":"request","id":"x","problem":{{"name":"mis"}},"handle":"{handle}","instance":{{"kind":"host","nodes":1,"edges":[]}}}}"#
                ),
                "instance",
            ),
            // ... and must carry at least one of them
            (
                r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"}}"#.to_owned(),
                "instance",
            ),
            // malformed handle strings are typed errors, not lookups
            (
                r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"nope"}"#
                    .to_owned(),
                "handle",
            ),
            (r#"{"v":1,"type":"upload","id":"x"}"#.to_owned(), "instance"),
            (r#"{"v":1,"type":"release","id":"x"}"#.to_owned(), "handle"),
            (
                r#"{"v":1,"type":"release","id":"x","handle":"XYZ"}"#.to_owned(),
                "handle",
            ),
            (
                format!(r#"{{"v":1,"type":"upload","id":"x","handle":"{handle}"}}"#),
                "frame",
            ),
        ] {
            match classify(&line) {
                Err(ApiError::InvalidRequest { field: f, .. }) => {
                    assert_eq!(f, field, "line {line}")
                }
                other => panic!("{line}: expected invalid-request on {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn uploaded_and_released_frames_keep_the_payload_last() {
        let g = generators::cycle(6).unwrap();
        let instance = Instance::from(g);
        let handle = render_handle(instance_fingerprint(&instance));
        let payload = uploaded_payload(&handle, &instance, 1);
        assert!(
            payload.starts_with(r#"{"event":"uploaded","handle":""#),
            "{payload}"
        );
        assert!(payload.ends_with(r#","held":1}"#), "{payload}");
        let frame = uploaded_frame("u1", 3, &payload);
        assert!(
            frame.ends_with(&format!(r#","uploaded":{payload}}}"#)),
            "{frame}"
        );
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "uploaded");
        assert_eq!(reply.id, "u1");
        assert_eq!(reply.seq, 3);
        assert_eq!(reply.payload, Some(payload.as_str()));

        let payload = released_payload(&handle, 0);
        assert_eq!(
            payload,
            format!(r#"{{"event":"released","handle":"{handle}","held":0}}"#)
        );
        let frame = released_frame("u2", 4, &payload);
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "released");
        assert_eq!(reply.payload, Some(payload.as_str()));
    }

    // Satellite bugfix pin: edge errors deep inside an instance object
    // must report offsets relative to the whole instance text, not the
    // inner edges slice the parser happens to re-scan.
    #[test]
    fn edge_errors_report_offsets_into_the_instance_text() {
        let raw = r#"{"kind":"host","nodes":4,"edges":[[0,1],[1,x]]}"#;
        let err = instance(raw).unwrap_err();
        let expected = raw.find('x').unwrap();
        assert!(
            err.to_string().contains(&format!("at byte {expected}")),
            "expected offset {expected} in: {err}"
        );
        // canonical encodings ride the fast scanner; exotic-but-valid
        // ones fall back but still parse
        let (_, fast) = instance(r#"{"kind":"host","nodes":4,"edges":[[0,1],[1,2]]}"#).unwrap();
        assert!(fast);
        let (_, slow) = instance(r#"{"kind":"host","nodes":4,"edges":[[0,1],[1,2.0]]}"#).unwrap();
        assert!(!slow);
    }

    #[test]
    fn prescans_survive_the_line_copy_and_cover_every_body_frame() {
        let mut rng = StdRng::seed_from_u64(41);
        let b = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), b).seed(9);
        let line = render_request("pre", Priority::High, &request);
        let (frame, prescan) = scan_envelope_prescanned(&line).unwrap();
        let prescan = prescan.expect("request frames carry a prescan");
        // the job stores a copy of the line; ranges must survive it
        let copied = line.clone();
        let (envelope, parsed, fast) = parse_request_prescanned(&copied, prescan).unwrap();
        assert_eq!(frame, ClientFrame::Request(envelope));
        assert!(fast, "canonical instances are decoded by the scan");
        assert_eq!(parsed, request);

        // an exotic edge spelling still prescans its envelope and fields;
        // the instance is parsed from the kept slice on the strict path
        let canonical = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":4,"edges":[[0,1],[1,2]]}}"#;
        let exotic = canonical.replace("[1,2]", "[1,2.0]");
        let pre = scan_envelope_prescanned(&exotic).unwrap().1.unwrap();
        let (_, slow, fast) = parse_request_prescanned(&exotic, pre).unwrap();
        assert!(!fast, "exotic spellings take the strict fallback");
        assert_eq!(slow, parse(canonical).unwrap().1);

        // uploads and mutates carry a prescan; bodiless frames do not
        let upload = render_upload("u", request.instance());
        assert!(scan_envelope_prescanned(&upload).unwrap().1.is_some());
        let handle = render_handle(instance_fingerprint(request.instance()));
        let mutate = render_mutate("m", &handle, &[(0, 1)], &[]);
        assert!(scan_envelope_prescanned(&mutate).unwrap().1.is_some());
        let release = render_release("r", &handle);
        assert!(scan_envelope_prescanned(&release).unwrap().1.is_none());
        let (_, none) = scan_envelope_prescanned(r#"{"v":1,"type":"ping","id":"p"}"#).unwrap();
        assert!(none.is_none(), "pings carry no body");

        // a prescan applied to a different (shorter) line is a typed error
        let pre = scan_envelope_prescanned(&line).unwrap().1.unwrap();
        let err = parse_request_prescanned(r#"{"v":1}"#, pre).unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        // and an upload's prescan is not a request's
        let pre = scan_envelope_prescanned(&upload).unwrap().1.unwrap();
        assert!(parse_request_prescanned(&upload, pre).is_err());
    }

    #[test]
    fn node_counts_past_the_wire_cap_are_typed_errors() {
        let over = MAX_NODES + 1;
        for raw in [
            format!(r#"{{"kind":"bipartite","left":{over},"right":1,"edges":[]}}"#),
            format!(r#"{{"kind":"bipartite","left":1,"right":{over},"edges":[]}}"#),
            format!(r#"{{"kind":"host","nodes":{over},"edges":[]}}"#),
            format!(r#"{{"kind":"multigraph","nodes":{over},"edges":[]}}"#),
        ] {
            let err = instance(&raw).unwrap_err();
            assert_eq!(err.kind(), "invalid-request", "{raw}");
            assert!(err.to_string().contains("node limit"), "{raw}: {err}");
        }
        assert!(instance(r#"{"kind":"bipartite","left":3,"right":2,"edges":[[0,1]]}"#).is_ok());
    }
}
