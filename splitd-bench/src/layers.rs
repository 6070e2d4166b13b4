//! The traced run: per-layer times and counts.
//!
//! Two sources, both outside the program:
//!
//! * the timed phase's replies (`queued_ns`/`solve_ns` stamps), its
//!   client-side latencies, and the heartbeat counter deltas;
//! * an in-process replay of the same inputs through each layer's
//!   public functions, with a span recorded around every call.
//!
//! Spans are keyed by `(name, parent)`. A key's self time is the median
//! of its per-operation duration minus the medians of its children; a
//! layer's self time sums its keys. The root span `op` is the client
//! latency, so its self time is the residual no layer accounts for.

use crate::stats::median;
use crate::workload::{churn_request, Inputs, Phase};
use splitgraph::EdgeDelta;
use splitting_api::{Certificate, Instance, Session, Solution};
use splitting_server::journal::FsyncPolicy;
use splitting_server::wire::{self, Timing};
use splitting_server::{Journal, Priority};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// In-process passes over the distinct inline inputs.
const INLINE_PASSES: usize = 3;

/// The module each span's self time is charged to, by its metric name
/// (`server.overhead` is the transport pumps, admission and delivery
/// that no finer span covers).
const LAYERS: &[(&str, &str)] = &[
    ("server.overhead", "self.transport_ms"),
    ("wire.scan", "self.wire_ms"),
    ("wire.parse", "self.wire_ms"),
    ("wire.fingerprint", "self.wire_ms"),
    ("server.queued", "self.queue_ms"),
    ("server.worker", "self.server_ms"),
    ("server.mutate", "self.server_ms"),
    ("journal.append", "self.journal_ms"),
    ("api.solve", "self.api_session_ms"),
    ("api.verify", "self.api_solution_ms"),
    ("api.render", "self.api_solution_ms"),
    ("hold.apply", "self.api_hold_ms"),
    ("delta.validate", "self.delta_ms"),
    ("delta.apply", "self.delta_ms"),
];

/// Per-operation span durations, keyed by `(name, parent)`.
#[derive(Default)]
struct Spans {
    ops: BTreeMap<(&'static str, &'static str), Vec<f64>>,
}

impl Spans {
    /// Records one operation's `ns` under `(name, parent)`.
    fn push(&mut self, name: &'static str, parent: &'static str, ns: u64) {
        self.ops
            .entry((name, parent))
            .or_default()
            .push(ns as f64 / 1e6);
    }

    /// Times `f` as one span.
    fn time<T>(&mut self, name: &'static str, parent: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.push(name, parent, t.elapsed().as_nanos() as u64);
        out
    }

    fn median(&self, key: (&'static str, &'static str)) -> f64 {
        self.ops.get(&key).map_or(0.0, |v| median(v))
    }

    /// Sum of the medians of every key named `name`.
    fn total(&self, name: &str) -> f64 {
        self.ops
            .keys()
            .filter(|k| k.0 == name)
            .map(|&k| self.median(k))
            .sum()
    }

    /// Self time of every key: its median minus its children's medians.
    fn self_times(&self) -> Vec<((&'static str, &'static str), f64)> {
        self.ops
            .keys()
            .map(|&key| {
                let children: f64 = self
                    .ops
                    .keys()
                    .filter(|c| c.1 == key.0)
                    .map(|&c| self.median(c))
                    .sum();
                (key, self.median(key) - children)
            })
            .collect()
    }
}

/// Every per-layer metric of a traced run, in `BENCHMARK.json` order,
/// plus the self-time metric of the layer with the largest self time.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub dominant: &'static str,
}

/// Builds the per-layer report from a finished timed phase plus an
/// in-process replay of the same inputs. `scratch` is a directory for
/// the replay's journal.
pub fn report(inputs: &Inputs, phase: &Phase, scratch: &Path) -> LayerReport {
    let mut spans = Spans::default();
    let mut rounds = (Vec::new(), Vec::new());
    let mut request_bytes = Vec::new();
    // server-side spans from the timed phase's replies
    for op in &phase.ops {
        let timing = wire::split_reply(&op.reply)
            .and_then(|r| r.timing)
            .unwrap_or(Timing {
                queued_ns: 0,
                solve_ns: 0,
            });
        let solve_half = op.latency_ns - op.mutate_ns;
        spans.push("op", "", op.latency_ns);
        spans.push("server.queued", "op", timing.queued_ns);
        spans.push("server.worker", "op", timing.solve_ns);
        spans.push(
            "server.overhead",
            "op",
            solve_half.saturating_sub(timing.queued_ns + timing.solve_ns),
        );
        if op.mutate_ns > 0 {
            spans.push("server.mutate", "op", op.mutate_ns);
        }
    }
    let session = Session::with_threads(1);
    // verification runs inside `Session::solve` for inline requests and
    // inside `HeldSolution::apply` for churn repairs
    let verify_parent = match inputs {
        Inputs::Inline(_) => "api.solve",
        Inputs::Churn(_) => "hold.apply",
    };
    let mut record = |spans: &mut Spans, solution: &Solution, instance: &Instance| {
        spans.time("api.verify", verify_parent, || {
            Certificate::verify(
                solution.certificate.kind().clone(),
                instance,
                &solution.output,
            )
            .expect("the certificate kind fits the output")
        });
        spans.time("api.render", "server.worker", || {
            let payload = solution.to_json_line();
            wire::solution_frame(
                "id",
                1,
                Some(Timing {
                    queued_ns: 1,
                    solve_ns: 1,
                }),
                &payload,
            )
        });
        rounds.0.push(solution.ledger.measured_total());
        rounds.1.push(solution.ledger.charged_total());
    };
    match inputs {
        Inputs::Inline(inline) => {
            request_bytes.extend(inline.lines.iter().map(|l| l.len() as f64));
            for _ in 0..INLINE_PASSES {
                for line in &inline.lines {
                    let (_, pre) = spans.time("wire.scan", "server.overhead", || {
                        wire::scan_envelope_prescanned(line).expect("benchmark frames scan")
                    });
                    let pre = pre.expect("inline frames take the prescanned path");
                    let (_, request, _) = spans.time("wire.parse", "server.worker", || {
                        wire::parse_request_prescanned(line, pre).expect("benchmark frames parse")
                    });
                    let solution = spans.time("api.solve", "server.worker", || {
                        session.solve(&request).expect("benchmark requests solve")
                    });
                    record(&mut spans, &solution, request.instance());
                }
            }
        }
        Inputs::Churn(churn) => {
            let journal = Journal::open(&scratch.join("replay.journal"), FsyncPolicy::Batch)
                .expect("open replay journal");
            let mut helds: Vec<_> = churn
                .bases
                .iter()
                .map(|b| {
                    let request = churn_request(&churn.policy, b.clone());
                    session.hold(&request).expect("base instance solves")
                })
                .collect();
            for step in &churn.steps {
                let held = &mut helds[step.handle];
                request_bytes.push((step.mutate.len() + step.solve.len()) as f64);
                // mutate half: what the ingest thread does in `mutate`
                let (inserts, deletes) = (step.delta.inserts(), step.delta.deletes());
                let mut patched = held.instance().clone();
                let delta = spans.time("delta.validate", "server.mutate", || {
                    EdgeDelta::new(&patched, inserts, deletes).expect("chain deltas validate")
                });
                spans.time("delta.apply", "server.mutate", || {
                    delta.apply(&mut patched).expect("chain deltas apply")
                });
                let instance = Instance::Bipartite(patched);
                spans.time("wire.fingerprint", "server.mutate", || {
                    wire::instance_fingerprint(&instance)
                });
                spans.time("journal.append", "server.mutate", || {
                    journal
                        .append_admitted("m", Priority::Normal, None, None, &step.mutate)
                        .expect("journal append")
                });
                // solve half: the admission append, then the repair
                let request = churn_request(
                    &churn.policy,
                    instance.bipartite().expect("built as bipartite").clone(),
                );
                spans.time("journal.append", "server.overhead", || {
                    journal
                        .append_admitted_interned(
                            "s",
                            Priority::Normal,
                            None,
                            None,
                            wire::request_fingerprint(&request),
                            || wire::render_request("interned", Priority::Normal, &request),
                        )
                        .expect("journal append")
                });
                let solution = spans.time("hold.apply", "server.worker", || {
                    held.apply(&step.delta).expect("chain deltas repair")
                });
                record(&mut spans, &solution, &instance);
            }
        }
    }
    let steps = phase.ops.len().max(1) as f64;
    let counters = &phase.counters;
    let served = counters.served.max(1) as f64;
    let (repairs, fulls) = (counters.repairs as f64, counters.full_resolves as f64);
    let self_times = spans.self_times();
    let self_of = |name: &str| -> f64 {
        self_times
            .iter()
            .filter(|(k, _)| k.0 == name)
            .map(|(_, t)| t)
            .sum()
    };
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for &(span, metric) in LAYERS {
        match layers.iter_mut().find(|(m, _)| *m == metric) {
            Some((_, t)) => *t += self_of(span),
            None => layers.push((metric, self_of(span))),
        }
    }
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(metric, _)| metric)
        .expect("layer list is not empty");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics = vec![
        ("wire.scan_ms", spans.total("wire.scan"), "ms"),
        ("wire.parse_ms", spans.total("wire.parse"), "ms"),
        ("wire.request_bytes", median(&request_bytes), "bytes"),
        (
            "wire.fast_path_share",
            1.0 - counters.parse_fallbacks as f64 / served,
            "ratio",
        ),
        ("wire.fingerprint_ms", spans.total("wire.fingerprint"), "ms"),
        ("api.solve_ms", self_of("api.solve"), "ms"),
        ("api.verify_ms", spans.total("api.verify"), "ms"),
        ("api.render_ms", spans.total("api.render"), "ms"),
        ("core.rounds_measured", median(&rounds.0), "rounds"),
        ("core.rounds_charged", median(&rounds.1), "rounds"),
        ("server.queued_ms", spans.total("server.queued"), "ms"),
        ("server.worker_ms", spans.total("server.worker"), "ms"),
        ("server.overhead_ms", spans.total("server.overhead"), "ms"),
        ("server.mutate_ms", spans.total("server.mutate"), "ms"),
        ("delta.validate_ms", spans.total("delta.validate"), "ms"),
        ("delta.apply_ms", spans.total("delta.apply"), "ms"),
        ("hold.apply_ms", spans.total("hold.apply"), "ms"),
        (
            "hold.repair_share",
            ratio(repairs, repairs + fulls),
            "ratio",
        ),
        (
            "hold.refix_permille",
            counters.refix_mean_permille as f64,
            "permille",
        ),
        (
            "journal.bytes_per_op",
            counters.journal_bytes as f64 / steps,
            "bytes",
        ),
        (
            "journal.appends_per_op",
            counters.journal_appended as f64 / steps,
            "count",
        ),
        ("journal.append_ms", spans.total("journal.append"), "ms"),
    ];
    metrics.extend(layers.iter().map(|&(metric, t)| (metric, t, "ms")));
    metrics.push(("trace.unattributed_ms", self_of("op"), "ms"));
    metrics.push((
        "trace.overhead_ms",
        span_cost_ms() * spans_per_op(&spans),
        "ms",
    ));
    LayerReport { metrics, dominant }
}

/// In-process spans recorded per replayed operation.
fn spans_per_op(spans: &Spans) -> f64 {
    let replayed = spans
        .ops
        .get(&("api.render", "server.worker"))
        .map_or(1, Vec::len);
    let recorded: usize = spans
        .ops
        .iter()
        .filter(|(k, _)| !k.0.starts_with("server.") && k.0 != "op")
        .map(|(_, v)| v.len())
        .sum();
    recorded as f64 / replayed.max(1) as f64
}

/// Cost of recording one span around an empty call, in ms.
fn span_cost_ms() -> f64 {
    const N: usize = 20_000;
    let mut spans = Spans::default();
    let t = Instant::now();
    for _ in 0..N {
        spans.time("probe", "", || ());
    }
    t.elapsed().as_nanos() as f64 / 1e6 / N as f64
}
