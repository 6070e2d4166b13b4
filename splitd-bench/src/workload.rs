//! The three workloads: seeded input generation, the set-up pass, the
//! closed-loop timed phase, and the output check.

use crate::daemon::{Daemon, Heartbeat};
use crate::stats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use splitgraph::delta::{random_delta, ChurnStyle};
use splitgraph::{generators, BipartiteGraph, EdgeDelta};
use splitting_api::{HeldSolution, Instance, Pipeline, Problem, Request, Session};
use splitting_server::{wire, Priority};
use std::path::Path;
use std::time::{Duration, Instant};

/// Route of a churn step answered by incremental repair.
const REPAIR_ROUTE: &str = "weak-splitting/repair";

/// Inline replies whose payload is compared byte for byte with an
/// in-process solve of the same input, per run (every churn reply is).
const SAMPLED_REPLIES: usize = 8;

/// Handles the churn workload uploads and mutates round robin.
const CHURN_HANDLES: usize = 4;

/// Churn steps per handle in one daemon's share of the timed phase.
/// Every post-mutation handle solve journals the whole patched instance
/// (~1.15 MB), so one daemon writes ~85 MB of journal before the phase
/// replaces it with a fresh one; unbounded, a 30 s run would leave
/// gigabytes on disk.
const CHURN_STEPS_PER_HANDLE: usize = 16;

/// Which traffic a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Codec-bound: small randomized zero-round solves sent inline.
    WireInline,
    /// Solver-bound: deterministic Theorem 2.5 solves sent inline.
    SolveDet,
    /// State-bound: journaled `mutate` + handle-solve churn steps.
    Churn,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "wire_inline" => Some(Kind::WireInline),
            "solve_det" => Some(Kind::SolveDet),
            "churn_journaled" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WireInline => "wire_inline",
            Kind::SolveDet => "solve_det",
            Kind::Churn => "churn_journaled",
        }
    }

    /// Daemon start-ups per run whose median is `setup_s`.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::WireInline | Kind::SolveDet => 9,
            Kind::Churn => 5,
        }
    }
}

/// Inline-instance requests, one per distinct input.
pub struct InlineInputs {
    pub requests: Vec<Request>,
    pub lines: Vec<String>,
    pub route: &'static str,
}

/// One churn step: a 2-edit rewire of one held handle, then a handle
/// solve of the handle the mutation moves it to.
pub struct ChurnStep {
    pub handle: usize,
    pub delta: EdgeDelta,
    pub mutate: String,
    pub solve: String,
    pub new_handle: String,
}

/// Uploaded base instances and the precomputed mutation chain.
pub struct ChurnInputs {
    pub policy: Request,
    pub bases: Vec<BipartiteGraph>,
    pub uploads: Vec<String>,
    pub base_handles: Vec<String>,
    pub warmups: Vec<String>,
    /// One daemon's chain from the uploaded bases, round robin over the
    /// handles: step `k` mutates handle `k % CHURN_HANDLES`.
    pub steps: Vec<ChurnStep>,
}

/// A workload's generated inputs.
pub enum Inputs {
    Inline(InlineInputs),
    Churn(ChurnInputs),
}

fn biregular(n: usize, d: usize, rng: &mut StdRng) -> BipartiteGraph {
    generators::random_biregular(n, n, d, rng).expect("biregular parameters are feasible")
}

fn handle_of(graph: BipartiteGraph) -> (String, BipartiteGraph) {
    let instance = Instance::Bipartite(graph);
    let handle = wire::render_handle(wire::instance_fingerprint(&instance));
    match instance {
        Instance::Bipartite(g) => (handle, g),
        _ => unreachable!("built as bipartite"),
    }
}

/// Generates the inputs of `kind` from `seed` (the same seed gives the
/// same inputs).
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        Kind::WireInline | Kind::SolveDet => {
            let (count, n, route) = match kind {
                Kind::WireInline => (64, 500, "zero-round"),
                _ => (8, 1000, "theorem25"),
            };
            let requests: Vec<Request> = (0..count)
                .map(|_| {
                    let b = biregular(n, 24, &mut rng);
                    let r = Request::new(Problem::weak_splitting(), b).seed(rng.random());
                    match kind {
                        Kind::WireInline => r.randomized().force_pipeline(Pipeline::ZeroRound),
                        _ => r.deterministic().force_pipeline(Pipeline::Theorem25),
                    }
                })
                .collect();
            let lines = requests
                .iter()
                .enumerate()
                .map(|(i, r)| wire::render_request(&format!("r{i}"), Priority::Normal, r))
                .collect();
            Inputs::Inline(InlineInputs {
                requests,
                lines,
                route,
            })
        }
        Kind::Churn => Inputs::Churn(generate_churn(&mut rng)),
    }
}

fn generate_churn(rng: &mut StdRng) -> ChurnInputs {
    let policy = Request::new(Problem::weak_splitting(), BipartiteGraph::new(1, 1))
        .deterministic()
        .seed(rng.random());
    let bases: Vec<BipartiteGraph> = (0..CHURN_HANDLES)
        .map(|_| biregular(3000, 32, rng))
        .collect();
    let uploads = bases
        .iter()
        .enumerate()
        .map(|(h, b)| wire::render_upload(&format!("up{h}"), &Instance::Bipartite(b.clone())))
        .collect();
    let (mut handles, mut mirrors): (Vec<String>, Vec<BipartiteGraph>) =
        bases.iter().cloned().map(handle_of).unzip();
    let base_handles = handles.clone();
    let warmups = handles
        .iter()
        .enumerate()
        .map(|(h, handle)| {
            wire::render_request_with_handle(&format!("w{h}"), Priority::Normal, handle, &policy)
        })
        .collect();
    let steps = (0..CHURN_HANDLES * CHURN_STEPS_PER_HANDLE)
        .map(|k| {
            let h = k % CHURN_HANDLES;
            let delta = loop {
                let d = random_delta(&mirrors[h], ChurnStyle::Rewire, 2, rng);
                if !d.is_empty() {
                    break d;
                }
            };
            let mut graph = std::mem::replace(&mut mirrors[h], BipartiteGraph::new(0, 0));
            delta
                .apply(&mut graph)
                .expect("delta drawn against the mirror");
            let (new_handle, graph) = handle_of(graph);
            mirrors[h] = graph;
            let old_handle = std::mem::replace(&mut handles[h], new_handle.clone());
            ChurnStep {
                handle: h,
                mutate: wire::render_mutate(
                    &format!("m{k}"),
                    &old_handle,
                    delta.inserts(),
                    delta.deletes(),
                ),
                solve: wire::render_request_with_handle(
                    &format!("s{k}"),
                    Priority::Normal,
                    &new_handle,
                    &policy,
                ),
                delta,
                new_handle,
            }
        })
        .collect();
    ChurnInputs {
        policy,
        bases,
        uploads,
        base_handles,
        warmups,
        steps,
    }
}

/// `"key":"value"` string field of a frame.
pub fn str_field<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    let rest = frame.split(&format!("\"{key}\":\"")).nth(1)?;
    rest.split('"').next()
}

/// Whether a reply is a solution on `routes` whose certificate holds.
fn solution_ok(frame: &str, routes: &[&str]) -> bool {
    let Some(reply) = wire::split_reply(frame) else {
        return false;
    };
    let Some(payload) = reply.payload else {
        return false;
    };
    reply.frame_type == "solution"
        && payload.contains("\"holds\":true,\"violations\":0")
        && str_field(payload, "route").is_some_and(|r| routes.contains(&r))
}

/// Spawns a daemon and brings it to the first timed operation: journal
/// open, uploads, and one warm-up pass over every distinct input.
/// Returns the daemon, the time that took, and whether every set-up
/// reply was right.
pub fn set_up(bin: &Path, kind: Kind, inputs: &Inputs) -> (Daemon, Duration, bool) {
    let started = Instant::now();
    let mut daemon = Daemon::spawn(bin, kind.name(), kind == Kind::Churn);
    let mut ok = true;
    match inputs {
        Inputs::Inline(inline) => {
            for line in &inline.lines {
                ok &= solution_ok(daemon.call(line), &[inline.route]);
            }
        }
        Inputs::Churn(churn) => {
            for (upload, handle) in churn.uploads.iter().zip(&churn.base_handles) {
                let reply = daemon.call(upload);
                ok &= reply.contains("\"type\":\"uploaded\"")
                    && str_field(reply, "handle") == Some(handle.as_str());
            }
            for line in &churn.warmups {
                ok &= solution_ok(daemon.call(line), &["theorem25"]);
            }
        }
    }
    (daemon, started.elapsed(), ok)
}

/// One timed operation's record.
pub struct Op {
    /// Input index (inline) or step index in the chain (churn).
    pub input: usize,
    /// Client-observed latency of the whole operation.
    pub latency_ns: u64,
    /// When the operation completed, from the start of the phase.
    pub done_ns: u64,
    /// The slice of the phase the operation completed in.
    pub slice: usize,
    /// Latency of a churn step's `mutate` half (0 for inline ops).
    pub mutate_ns: u64,
    /// The `mutated` reply of a churn step (empty for inline ops).
    pub mutated: String,
    /// The `solution` (or `error`) reply.
    pub reply: String,
}

/// The closed-loop timed phase and the heartbeats around it.
pub struct Phase {
    pub ops: Vec<Op>,
    /// Host steal counter ([`stats::host_steal_ticks`]) at the start of
    /// every slice, plus one reading at the end of the phase.
    pub slice_steal: Vec<u64>,
    /// Timed length of the phase; daemon replacements are not timed.
    pub wall: Duration,
    /// Heartbeat growth over the timed phase, summed over its daemons
    /// ([`Heartbeat::since`], [`Heartbeat::absorb`]).
    pub counters: Heartbeat,
    /// Daemons the phase ran on (one on the inline workloads).
    pub daemons: usize,
    /// Whether every replacement daemon's set-up replies were right.
    pub restarts_ok: bool,
    /// The largest `VmHWM` of the phase's daemons, in MiB.
    pub peak_rss_mib: f64,
}

impl Phase {
    /// CPU time stolen from this host during the phase, in seconds.
    pub fn steal_s(&self) -> f64 {
        (self.slice_steal[self.slice_steal.len() - 1] - self.slice_steal[0]) as f64 / 100.0
    }
}

/// Runs the timed phase for `seconds`: one connection, exactly one
/// request in flight. The inline workloads use `daemon` throughout. The
/// churn workload runs the chain once on `daemon`, then replaces it with
/// a freshly set-up daemon (new journal, bases re-uploaded) and runs the
/// chain again, until the time is up; the clock stops while a daemon is
/// replaced.
pub fn timed_phase(
    bin: &Path,
    kind: Kind,
    inputs: &Inputs,
    mut daemon: Daemon,
    seconds: u64,
    seed: u64,
) -> Phase {
    let budget = Duration::from_secs(seconds);
    let mut ops = Vec::new();
    let mut counters = Heartbeat::default();
    let (mut daemons, mut restarts_ok, mut peak_rss_mib) = (1, true, 0.0f64);
    let mut before = Heartbeat::scrape(&mut daemon);
    let mut slice_steal = vec![stats::host_steal_ticks()];
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    // closes the slices that ended before `done_ns`; returns the slice
    // an operation completing at `done_ns` belongs to
    let mut slice_of = |done_ns: u64| {
        while done_ns >= slice_steal.len() as u64 * stats::SLICE_NS {
            slice_steal.push(stats::host_steal_ticks());
        }
        slice_steal.len() - 1
    };
    let mut order: Vec<usize> = (0..match inputs {
        Inputs::Inline(inline) => inline.lines.len(),
        Inputs::Churn(churn) => churn.steps.len(),
    })
        .collect();
    if let Inputs::Inline(_) = inputs {
        order.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    let wall = loop {
        for &input in &order {
            let now = started.elapsed() - paused;
            if now >= budget {
                break;
            }
            let t = Instant::now();
            let (mutate_ns, mutated, reply) = match inputs {
                Inputs::Inline(inline) => (0, String::new(), daemon.call(&inline.lines[input])),
                Inputs::Churn(churn) => {
                    let step = &churn.steps[input];
                    let mutated = daemon.call(&step.mutate).to_owned();
                    let mutate_ns = t.elapsed().as_nanos() as u64;
                    (mutate_ns, mutated, daemon.call(&step.solve))
                }
            };
            let reply = reply.to_owned();
            let latency_ns = t.elapsed().as_nanos() as u64;
            let done_ns = (started.elapsed() - paused).as_nanos() as u64;
            ops.push(Op {
                input,
                latency_ns,
                done_ns,
                slice: slice_of(done_ns),
                mutate_ns,
                mutated,
                reply,
            });
        }
        let now = started.elapsed() - paused;
        if now < budget && kind != Kind::Churn {
            // another pass over the inline inputs, on the same daemon
            continue;
        }
        let pause = Instant::now();
        counters.absorb(&Heartbeat::scrape(&mut daemon).since(&before));
        peak_rss_mib = peak_rss_mib.max(daemon.peak_rss_mib());
        if now >= budget {
            break now;
        }
        // stop the old daemon (removing its journal) before the next
        // one starts
        drop(daemon);
        let (fresh, _, ok) = set_up(bin, kind, inputs);
        daemon = fresh;
        daemons += 1;
        restarts_ok &= ok;
        before = Heartbeat::scrape(&mut daemon);
        paused += pause.elapsed();
    };
    slice_steal.push(stats::host_steal_ticks());
    Phase {
        ops,
        slice_steal,
        wall,
        counters,
        daemons,
        restarts_ok,
        peak_rss_mib,
    }
}

/// Checks every reply of the timed phase (frame type, route, certificate)
/// and compares replies byte for byte with the in-process API: a seeded
/// sample on the inline workloads, every step on churn. Returns one flag
/// per operation: `true` when it failed.
pub fn check(inputs: &Inputs, phase: &Phase, seed: u64) -> Vec<bool> {
    let session = Session::with_threads(1);
    match inputs {
        Inputs::Inline(inline) => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);
            let mut failed: Vec<bool> = phase
                .ops
                .iter()
                .map(|op| !solution_ok(&op.reply, &[inline.route]))
                .collect();
            for _ in 0..SAMPLED_REPLIES.min(phase.ops.len()) {
                let k = rng.random_range(0..phase.ops.len());
                let op = &phase.ops[k];
                let direct = session
                    .solve(&inline.requests[op.input])
                    .map(|s| s.to_json_line())
                    .unwrap_or_default();
                failed[k] |= payload(&op.reply) != Some(direct.as_str());
            }
            failed
        }
        Inputs::Churn(churn) => {
            // every daemon runs the same chain from the same bases, so
            // one in-process replay gives the payload of every step
            let mut held: Vec<Option<HeldSolution>> = churn
                .bases
                .iter()
                .map(|b| session.hold(&churn_request(&churn.policy, b.clone())).ok())
                .collect();
            let direct: Vec<Option<String>> = churn
                .steps
                .iter()
                .map(|step| {
                    let held = held[step.handle].as_mut()?;
                    held.apply(&step.delta).ok().map(|s| s.to_json_line())
                })
                .collect();
            phase
                .ops
                .iter()
                .map(|op| {
                    let step = &churn.steps[op.input];
                    !(op.mutated.contains("\"type\":\"mutated\"")
                        && str_field(&op.mutated, "new_handle") == Some(step.new_handle.as_str())
                        && solution_ok(&op.reply, &[REPAIR_ROUTE, "theorem25"])
                        && direct[op.input].is_some()
                        && payload(&op.reply) == direct[op.input].as_deref())
                })
                .collect()
        }
    }
}

/// The in-process request a handle solve of `graph` under `policy` is.
pub fn churn_request(policy: &Request, graph: BipartiteGraph) -> Request {
    Request::new(policy.problem().clone(), graph)
        .deterministic()
        .seed(policy.master_seed())
}

/// The embedded payload slice of a reply frame.
pub fn payload(frame: &str) -> Option<&str> {
    wire::split_reply(frame).and_then(|r| r.payload)
}
