//! The server's instance state, kept under one lock: every method that
//! changes it journals its record in the same critical section, so the
//! journal holds state records in apply order, and live ingest and
//! journal replay call the same methods.

use crate::journal::{Journal, PayloadHash};
use crate::server::ServerConfig;
use crate::wire::{self, Priority};
use splitgraph::delta::EdgeDelta;
use splitting_api::{ApiError, HeldSolution, Instance, Request};
use std::collections::HashMap;
use std::sync::Arc;

/// A held solution's key: (instance content hash, policy fingerprint).
pub(crate) type HeldKey = (PayloadHash, PayloadHash);

/// Where the journal record of a state change comes from.
pub(crate) enum Origin<'a> {
    /// A client frame `(id, idempotency key, line)`, appended once the
    /// change applies.
    Live(&'a str, Option<&'a str>, &'a str),
    /// A record recovered from the journal at startup.
    Replayed(u64),
}

/// A held solution plus the edge deltas `mutate` applied to its
/// instance since the last solve, which the next matching solve repairs
/// incrementally.
struct HeldEntry {
    held: HeldSolution,
    pending: Vec<EdgeDelta>,
    /// LRU stamp from [`InstanceTable::tick`].
    last_used: u64,
}

#[derive(Default)]
pub(crate) struct InstanceTable {
    /// Interned instances by content hash; handle-form requests share
    /// the `Arc`, never re-parsing or copying the graph.
    instances: HashMap<PayloadHash, Arc<Instance>>,
    held: HashMap<HeldKey, HeldEntry>,
    tick: u64,
    /// The instance each journaled handle-form job resolved to, by its
    /// admitted record id until that record completes. The journal holds
    /// only the job's line, so compaction snapshots every pinned
    /// instance, even one mutated away or released since.
    pins: HashMap<u64, (PayloadHash, Arc<Instance>)>,
    /// Record ids of outstanding state records: the replay prefix.
    state_records: Vec<u64>,
    mutations_applied: u64,
    journal: Option<Arc<Journal>>,
    held_capacity: usize,
    compact_threshold: usize,
}

fn unknown_handle(handle: &str) -> ApiError {
    ApiError::InvalidRequest {
        field: "handle",
        reason: format!("unknown instance handle \"{handle}\"; upload it first"),
    }
}

impl InstanceTable {
    pub(crate) fn new(config: &ServerConfig) -> Self {
        InstanceTable {
            journal: config.journal.clone(),
            held_capacity: config.held_capacity,
            compact_threshold: config.journal_compact_threshold,
            ..InstanceTable::default()
        }
    }

    /// Live interned instances.
    pub(crate) fn len(&self) -> usize {
        self.instances.len()
    }

    pub(crate) fn mutations_applied(&self) -> u64 {
        self.mutations_applied
    }

    /// Interns `instance` under its fingerprint `hash` (idempotent by
    /// content) and journals the upload. Returns the interned instance
    /// and the live count.
    pub(crate) fn upload(
        &mut self,
        hash: PayloadHash,
        instance: Instance,
        origin: Origin,
    ) -> (Arc<Instance>, usize) {
        let interned = Arc::clone(
            self.instances
                .entry(hash)
                .or_insert_with(|| Arc::new(instance)),
        );
        self.record(origin);
        (interned, self.instances.len())
    }

    /// Drops an instance and its held solutions and journals the
    /// release. Returns the live count.
    pub(crate) fn release(&mut self, handle: &str, origin: Origin) -> Result<usize, ApiError> {
        let hash = wire::parse_handle(handle).expect("validated by the ingest scan");
        if self.instances.remove(&hash).is_none() {
            return Err(ApiError::InvalidRequest {
                field: "handle",
                reason: format!("unknown instance handle \"{handle}\""),
            });
        }
        // a released instance must not pin held-solution capacity
        self.held.retain(|(h, _), _| *h != hash);
        self.record(origin);
        Ok(self.instances.len())
    }

    /// Applies a `mutate` frame: patches a copy of the bipartite
    /// instance, moves it to its new content hash, re-keys its held
    /// solutions with the delta as pending repair work, and journals the
    /// frame. Returns the `mutated` payload; a failed mutation changes
    /// and journals nothing.
    pub(crate) fn mutate(
        &mut self,
        handle: &str,
        line: &str,
        pre: &wire::PreScan,
        origin: Origin,
    ) -> Result<String, ApiError> {
        let (inserts, deletes) = wire::parse_mutate_edits(line, pre)?;
        let hash = wire::parse_handle(handle).expect("validated by the ingest scan");
        let existing = self
            .instances
            .get(&hash)
            .ok_or_else(|| unknown_handle(handle))?;
        let Instance::Bipartite(b) = &**existing else {
            return Err(ApiError::InvalidRequest {
                field: "handle",
                reason: format!(
                    "mutate targets a bipartite instance; \"{handle}\" holds a {}",
                    existing.kind()
                ),
            });
        };
        let mut graph = b.clone();
        let invalid = |e: splitgraph::delta::DeltaError| ApiError::InvalidRequest {
            field: "delta",
            reason: e.to_string(),
        };
        let delta = EdgeDelta::new(&graph, &inserts, &deletes).map_err(invalid)?;
        delta.apply(&mut graph).map_err(invalid)?;
        let edges = graph.edge_count();
        let patched = Instance::Bipartite(graph);
        let new_hash = wire::instance_fingerprint(&patched);
        self.instances.remove(&hash);
        self.instances
            .entry(new_hash)
            .or_insert_with(|| Arc::new(patched));
        let moved: Vec<HeldKey> = self.held.keys().filter(|k| k.0 == hash).copied().collect();
        for key in moved {
            let mut entry = self.held.remove(&key).expect("key just listed");
            entry.pending.push(delta.clone());
            self.held.insert((new_hash, key.1), entry);
        }
        self.mutations_applied += 1;
        self.record(origin);
        Ok(wire::mutated_payload(
            handle,
            &wire::render_handle(new_hash),
            delta.inserts().len(),
            delta.deletes().len(),
            edges,
            self.instances.len(),
        ))
    }

    /// Resolves a handle-form request against the live table and parses
    /// it; then `admit` journals its line (recovery: returns the
    /// recovered record id) and the instance is pinned under that id
    /// until [`InstanceTable::unpin`].
    pub(crate) fn admit_handle(
        &mut self,
        handle: &str,
        line: &str,
        pre: &wire::PreScan,
        admit: impl FnOnce() -> Option<u64>,
    ) -> Result<(Request, PayloadHash, Option<u64>), ApiError> {
        let hash = wire::parse_handle(handle).expect("validated by the ingest scan");
        let instance = self
            .instances
            .get(&hash)
            .ok_or_else(|| unknown_handle(handle))?;
        let request = wire::parse_handle_request(line, pre, Arc::clone(instance))?;
        let record_id = admit();
        if let Some(id) = record_id {
            self.pins.insert(id, (hash, Arc::clone(instance)));
        }
        Ok((request, hash, record_id))
    }

    /// Drops a completed job's pin, if it has one.
    pub(crate) fn unpin(&mut self, record_id: u64) {
        self.pins.remove(&record_id);
    }

    /// Removes a held entry for one worker to use, so two never repair
    /// it at once.
    pub(crate) fn check_out(&mut self, key: HeldKey) -> Option<(HeldSolution, Vec<EdgeDelta>)> {
        self.held.remove(&key).map(|e| (e.held, e.pending))
    }

    /// (Re)inserts a held solution, evicting the LRU entry at capacity.
    /// One whose instance no longer resolves is dropped: released, or
    /// mutated while checked out (losing that delta), it can never be
    /// trusted again.
    pub(crate) fn store_held(&mut self, key: HeldKey, held: HeldSolution) {
        if self.held_capacity == 0 || !self.instances.contains_key(&key.0) {
            return;
        }
        if self.held.len() >= self.held_capacity && !self.held.contains_key(&key) {
            let victim = self
                .held
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                self.held.remove(&victim);
            }
        }
        self.tick += 1;
        let entry = HeldEntry {
            held,
            pending: Vec::new(),
            last_used: self.tick,
        };
        self.held.insert(key, entry);
    }

    /// Tracks an applied state change's record, appending a live one
    /// and then compacting. Replay compacts once, at the end of
    /// recovery, after recovered handle-form jobs hold their pins.
    fn record(&mut self, origin: Origin) {
        match origin {
            Origin::Replayed(record_id) => self.state_records.push(record_id),
            Origin::Live(id, key, line) => {
                let Some(journal) = &self.journal else {
                    return;
                };
                // a failing append degrades durability (the change would
                // not survive a crash), never availability
                if let Ok(record_id) =
                    journal.append_admitted(id, Priority::Normal, None, key, line)
                {
                    self.state_records.push(record_id);
                }
                self.compact();
            }
        }
    }

    /// Snapshots the table into the journal — each live instance as an
    /// `upload`, each pinned one no longer live as `upload` + `release`
    /// — and marks the superseded state records completed, once they
    /// reach `compact_threshold` and twice the snapshot. Crash-safe:
    /// until the completions land, replay applies history and snapshot,
    /// which converge.
    pub(crate) fn compact(&mut self) {
        let Some(journal) = &self.journal else {
            return;
        };
        let outstanding = self.state_records.len();
        if self.compact_threshold == 0 || outstanding < self.compact_threshold {
            return;
        }
        let retired: HashMap<PayloadHash, Arc<Instance>> = self
            .pins
            .values()
            .filter(|(hash, _)| !self.instances.contains_key(hash))
            .map(|(hash, instance)| (*hash, Arc::clone(instance)))
            .collect();
        // 2× the snapshot size keeps a workload with many handles and
        // few mutations from re-snapshotting on every state record
        let snapshot_len = self.instances.len() + 2 * retired.len();
        if outstanding < 2 * snapshot_len {
            return;
        }
        let snapshot = self
            .instances
            .values()
            .map(|instance| wire::render_upload("snapshot", instance))
            .chain(retired.iter().flat_map(|(hash, instance)| {
                [
                    wire::render_upload("snapshot", instance),
                    wire::render_release("snapshot", &wire::render_handle(*hash)),
                ]
            }));
        let mut snapshot_ids = Vec::with_capacity(snapshot_len);
        for line in snapshot {
            match journal.append_admitted("snapshot", Priority::Normal, None, None, &line) {
                Ok(id) => snapshot_ids.push(id),
                Err(_) => {
                    // partial snapshot: keep the full history *and* the
                    // records already appended (duplicates on replay; at
                    // worst a retired instance whose release failed
                    // resolves again) and retry at the next crossing
                    self.state_records.extend(snapshot_ids);
                    return;
                }
            }
        }
        for id in self.state_records.drain(..) {
            let _ = journal.mark_completed(id);
        }
        self.state_records = snapshot_ids;
    }
}

#[cfg(test)]
/// What tests inspect of a table.
pub(crate) struct Census {
    /// Live handles, sorted.
    pub(crate) handles: Vec<PayloadHash>,
    /// The instance hash of every held entry.
    pub(crate) held: Vec<PayloadHash>,
    /// Outstanding state records.
    pub(crate) state_records: usize,
}

#[cfg(test)]
impl InstanceTable {
    pub(crate) fn census(&self) -> Census {
        let mut handles: Vec<PayloadHash> = self.instances.keys().copied().collect();
        handles.sort_unstable();
        Census {
            handles,
            held: self.held.keys().map(|(h, _)| *h).collect(),
            state_records: self.state_records.len(),
        }
    }
}
