//! Poison-tolerant request batching: queued extract requests that share
//! a model coalesce into one batched forward pass.
//!
//! The fused pass is byte-identical to per-request execution — the GNN
//! forward is row-independent, so stacking request graphs into a
//! block-diagonal operator computes exactly the bytes each request
//! would have gotten alone (pinned by `tests/serve_batch.rs`). The
//! risk batching introduces is *blast radius*: one request that panics
//! the pipeline (or blows the deadline) must not take its batch-mates
//! down with it. [`Batcher`] answers that with **bisection**: a failed
//! group is split in half and each half retried under a bounded
//! budget, so a single poison request converges to a singleton that
//! alone answers `500` while every mate still gets its correct bytes.
//!
//! Coalescing is demand-driven, with no timing window: the first
//! arrival for a model becomes the *leader* and executes immediately;
//! requests arriving while a leader is busy queue up, and whoever is
//! first when the leader finishes drains the queue (up to
//! `batch_max`) into the next fused pass. An idle daemon therefore
//! adds zero batching latency, and a saturated one amortizes graph
//! fusion across the whole queue.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use ancstr_core::{
    extract_batch, CancelToken, ExtractError, PipelineObs, RunCtx, ServiceReply,
    SymmetryExtractor,
};

/// Every pass renders the ALIGN-JSON view alongside the canonical text,
/// so a cached [`ServiceReply`] can answer either `Accept` format
/// without recomputing the pipeline.
fn align_formatter(
    flat: &ancstr_netlist::FlatCircuit,
    constraints: &ancstr_netlist::ConstraintSet,
) -> String {
    ancstr_hier::align::export_align(flat, constraints)
}

/// How long a queued follower sleeps between checks for a finished
/// result, a free leader slot, or its own deadline. Purely a poll
/// bound — completion is also signalled eagerly via the slot condvar.
const FOLLOWER_POLL: Duration = Duration::from_millis(25);

/// One extract request as the batcher sees it.
pub struct BatchJob {
    /// Raw SPICE source.
    pub source: String,
    /// Request origin label (used as the parse stage's `path` field).
    pub origin: String,
    /// The request's cancellation token (carries the deadline).
    pub cancel: CancelToken,
    /// Chaos flag (`x-ancstr-chaos: poison`): the fused pass this job
    /// rides in panics, exercising the real bisection machinery.
    pub poison: bool,
}

/// What a job got back from its (possibly fused) pipeline run.
pub enum BatchOutcome {
    /// The pipeline produced a reply — the same bytes a solo run
    /// would have produced.
    Reply(Box<ServiceReply>),
    /// The pipeline failed for this job alone (parse error, deadline,
    /// …); batch-mates are unaffected.
    Error(ExtractError),
    /// Bisection isolated this job as the poison: its group panicked,
    /// and so did every subgroup containing it, down to a singleton.
    Poisoned,
    /// The retry budget ran out before this job's subgroup succeeded
    /// (pathological many-poison batches); answered as a server error.
    Budget,
}

/// A queued job plus the slot its outcome is delivered into.
struct Pending {
    job: BatchJob,
    slot: Arc<Slot>,
}

/// One job's result mailbox. `None` = still waiting.
struct Slot {
    state: Mutex<Option<BatchOutcome>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { state: Mutex::new(None), cv: Condvar::new() })
    }

    fn deliver(&self, outcome: BatchOutcome) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.cv.notify_all();
    }
}

/// Per-model coalescing lane: at most one leader executes at a time;
/// arrivals during execution queue in `pending`.
#[derive(Default)]
struct Lane {
    leader_active: bool,
    pending: Vec<Pending>,
}

/// The per-model batching fabric. One instance per daemon, shared by
/// all workers; lanes are keyed by model fingerprint so requests never
/// fuse across models.
pub struct Batcher {
    lanes: Mutex<HashMap<u64, Lane>>,
    batch_max: usize,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    bisections: AtomicU64,
}

impl Batcher {
    /// A batcher that fuses at most `batch_max` requests per pass.
    ///
    /// # Panics
    ///
    /// Panics if `batch_max == 0`.
    pub fn new(batch_max: usize) -> Batcher {
        assert!(batch_max > 0, "batch_max must be at least 1");
        Batcher {
            lanes: Mutex::new(HashMap::new()),
            batch_max,
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            bisections: AtomicU64::new(0),
        }
    }

    /// Fused passes executed (including bisection retries).
    pub fn batches_total(&self) -> u64 {
        self.batches.load(Ordering::SeqCst)
    }

    /// Requests that rode in a fused pass of size ≥ 2.
    pub fn batched_requests_total(&self) -> u64 {
        self.batched_requests.load(Ordering::SeqCst)
    }

    /// Failed-group splits performed to isolate poison requests.
    pub fn bisections_total(&self) -> u64 {
        self.bisections.load(Ordering::SeqCst)
    }

    fn lock_lanes(&self) -> MutexGuard<'_, HashMap<u64, Lane>> {
        self.lanes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `job` against `extractor`, fusing it with any batch-mates
    /// queued on the same `fingerprint` lane. Blocks until the job's
    /// outcome is known or its cancel token expires. The calling worker
    /// thread is the execution vehicle: either it leads a fused pass
    /// itself or it parks until a leader delivers its result.
    pub fn submit(
        &self,
        fingerprint: u64,
        extractor: &SymmetryExtractor,
        obs: &PipelineObs,
        job: BatchJob,
    ) -> BatchOutcome {
        let cancel = job.cancel.clone();
        let slot = Slot::new();
        let mine = Pending { job, slot: Arc::clone(&slot) };
        {
            let mut lanes = self.lock_lanes();
            let lane = lanes.entry(fingerprint).or_default();
            if !lane.leader_active {
                // Fast path: no leader busy — lead immediately, draining
                // anything a previous leader left queued.
                lane.leader_active = true;
                let group = drain_group(lane, mine, self.batch_max);
                drop(lanes);
                self.lead(fingerprint, group, extractor, obs);
                return take_outcome(&slot);
            }
            lane.pending.push(mine);
        }
        // Follower: wait for a leader to deliver, promote ourselves if
        // the lane frees up, or abandon on deadline.
        loop {
            if let Some(outcome) = try_take_outcome(&slot) {
                return outcome;
            }
            if cancel.is_cancelled() {
                let mut lanes = self.lock_lanes();
                let lane = lanes.entry(fingerprint).or_default();
                let before = lane.pending.len();
                lane.pending.retain(|p| !Arc::ptr_eq(&p.slot, &slot));
                if lane.pending.len() < before {
                    // Still queued: nobody computed us; answer the
                    // deadline ourselves.
                    return BatchOutcome::Error(ExtractError::Cancelled);
                }
                // A leader already drained us; its delivery (written to
                // a slot nobody reads) is harmless — the client's
                // deadline wins.
                return BatchOutcome::Error(ExtractError::Cancelled);
            }
            {
                let mut lanes = self.lock_lanes();
                let lane = lanes.entry(fingerprint).or_default();
                if !lane.leader_active
                    && lane.pending.iter().any(|p| Arc::ptr_eq(&p.slot, &slot))
                {
                    lane.leader_active = true;
                    let idx = lane
                        .pending
                        .iter()
                        .position(|p| Arc::ptr_eq(&p.slot, &slot))
                        .expect("checked above");
                    let mine = lane.pending.remove(idx);
                    let group = drain_group(lane, mine, self.batch_max);
                    drop(lanes);
                    self.lead(fingerprint, group, extractor, obs);
                    return take_outcome(&slot);
                }
            }
            let guard = slot.state.lock().unwrap_or_else(|e| e.into_inner());
            if guard.is_none() {
                drop(
                    slot.cv
                        .wait_timeout(guard, FOLLOWER_POLL)
                        .unwrap_or_else(|e| e.into_inner()),
                );
            }
        }
    }

    /// Execute `group` (leader first), deliver every outcome, then
    /// release the lane, waking queued followers so one of them can
    /// promote itself for the next pass.
    fn lead(
        &self,
        fingerprint: u64,
        group: Vec<Pending>,
        extractor: &SymmetryExtractor,
        obs: &PipelineObs,
    ) {
        // A single poison can cost O(log n) re-runs; 4n + slack bounds
        // even an all-poison batch without starving clean jobs.
        let mut budget = (4 * group.len() + 4) as u32;
        self.run_group(group, extractor, obs, &mut budget);
        let mut lanes = self.lock_lanes();
        let lane = lanes.entry(fingerprint).or_default();
        lane.leader_active = false;
        for p in &lane.pending {
            p.slot.cv.notify_all();
        }
    }

    /// Run one fused pass over `group`, bisecting on panic and peeling
    /// expired jobs off on cancellation. Every job in `group` gets
    /// exactly one delivered outcome.
    fn run_group(
        &self,
        mut group: Vec<Pending>,
        extractor: &SymmetryExtractor,
        obs: &PipelineObs,
        budget: &mut u32,
    ) {
        if group.is_empty() {
            return;
        }
        if *budget == 0 {
            for p in group {
                p.slot.deliver(BatchOutcome::Budget);
            }
            return;
        }
        *budget -= 1;
        self.batches.fetch_add(1, Ordering::SeqCst);
        if group.len() > 1 {
            self.batched_requests.fetch_add(group.len() as u64, Ordering::SeqCst);
        }
        // The fused pass runs under the leader's token; a mate with a
        // tighter deadline is peeled off afterwards, one with a looser
        // deadline is retried in a subgroup led by its own token.
        let ctx = RunCtx { cancel: group[0].job.cancel.clone(), ..RunCtx::observed(obs.clone()) };
        let poisoned = group.iter().any(|p| p.job.poison);
        let run = catch_unwind(AssertUnwindSafe(|| {
            if poisoned {
                panic!("chaos: poisoned batch mate");
            }
            let items: Vec<(&str, &str)> = group
                .iter()
                .map(|p| (p.job.source.as_str(), p.job.origin.as_str()))
                .collect();
            extract_batch(&items, extractor, &ctx, Some(&align_formatter))
        }));
        match run {
            Ok(Ok(results)) => {
                for (p, r) in group.into_iter().zip(results) {
                    p.slot.deliver(match r {
                        Ok(reply) => BatchOutcome::Reply(Box::new(reply)),
                        Err(e) => BatchOutcome::Error(e),
                    });
                }
            }
            Ok(Err(_cancelled)) => {
                // The leader's deadline aborted the whole pass. Jobs
                // whose own tokens expired answer the deadline; the
                // rest re-run (the expired leader is gone, so the
                // subgroup strictly shrinks).
                let mut rest = Vec::new();
                for p in group {
                    if p.job.cancel.is_cancelled() {
                        p.slot.deliver(BatchOutcome::Error(ExtractError::Cancelled));
                    } else {
                        rest.push(p);
                    }
                }
                self.run_group(rest, extractor, obs, budget);
            }
            Err(_panic) => {
                if group.len() == 1 {
                    let p = group.pop().expect("len checked");
                    p.slot.deliver(BatchOutcome::Poisoned);
                } else {
                    self.bisections.fetch_add(1, Ordering::SeqCst);
                    let tail = group.split_off(group.len() / 2);
                    self.run_group(group, extractor, obs, budget);
                    self.run_group(tail, extractor, obs, budget);
                }
            }
        }
    }
}

/// Assemble a fused group: `mine` leads, then up to `batch_max - 1`
/// queued mates in arrival order.
fn drain_group(lane: &mut Lane, mine: Pending, batch_max: usize) -> Vec<Pending> {
    let take = (batch_max - 1).min(lane.pending.len());
    let mut group = Vec::with_capacity(take + 1);
    group.push(mine);
    group.extend(lane.pending.drain(..take));
    group
}

fn try_take_outcome(slot: &Slot) -> Option<BatchOutcome> {
    slot.state.lock().unwrap_or_else(|e| e.into_inner()).take()
}

fn take_outcome(slot: &Slot) -> BatchOutcome {
    try_take_outcome(slot).expect("a led group delivers every outcome, including the leader's")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_core::{ExtractorConfig, FEATURE_DIM};
    use ancstr_gnn::{GnnConfig, GnnModel};
    use std::time::Instant;

    const NETLIST: &str = "\
.subckt latch q qb en vdd vss
M1 q qb tail vss nch w=4u l=0.2u
M2 qb q tail vss nch w=4u l=0.2u
M3 q qb vdd vdd pch w=8u l=0.2u
M4 qb q vdd vdd pch w=8u l=0.2u
M5 tail en vss vss nch w=2u l=0.5u
.ends
";

    fn extractor() -> SymmetryExtractor {
        let model = GnnModel::new(GnnConfig {
            dim: FEATURE_DIM,
            layers: 2,
            seed: 7,
            ..GnnConfig::default()
        });
        SymmetryExtractor::new(ExtractorConfig::default())
            .with_model(model)
            .unwrap()
    }

    fn job(poison: bool) -> BatchJob {
        BatchJob {
            source: NETLIST.to_owned(),
            origin: "test".to_owned(),
            cancel: CancelToken::new(),
            poison,
        }
    }

    fn reply_of(outcome: BatchOutcome) -> ServiceReply {
        match outcome {
            BatchOutcome::Reply(r) => *r,
            BatchOutcome::Error(e) => panic!("expected a reply, got error: {e}"),
            BatchOutcome::Poisoned => panic!("expected a reply, got Poisoned"),
            BatchOutcome::Budget => panic!("expected a reply, got Budget"),
        }
    }

    #[test]
    fn an_idle_lane_executes_immediately_and_matches_solo_extraction() {
        let b = Batcher::new(16);
        let ex = extractor();
        let obs = PipelineObs::new(None);
        let got = reply_of(b.submit(1, &ex, &obs, job(false)));
        let solo = ancstr_core::extract_source(NETLIST, "test", &ex, &obs).unwrap();
        assert_eq!(got.constraints_text, solo.constraints_text);
        assert_eq!(got.devices, solo.devices);
        assert_eq!(b.batches_total(), 1);
        assert_eq!(b.batched_requests_total(), 0, "a singleton is not a fused batch");
    }

    /// Queue followers behind a fake busy leader, then release the lane
    /// and let one follower drain the whole queue into a single fused
    /// pass — the deterministic version of "requests pile up while a
    /// leader is busy".
    fn run_coalesced(b: &Arc<Batcher>, jobs: Vec<BatchJob>) -> Vec<BatchOutcome> {
        let ex = Arc::new(extractor());
        let obs = PipelineObs::new(None);
        b.lock_lanes().entry(9).or_default().leader_active = true;
        let n = jobs.len();
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|j| {
                let b = Arc::clone(b);
                let ex = Arc::clone(&ex);
                let obs = obs.clone();
                std::thread::spawn(move || b.submit(9, &ex, &obs, j))
            })
            .collect();
        // Wait until every follower is queued, then free the lane.
        let start = Instant::now();
        loop {
            if b.lock_lanes().get(&9).map(|l| l.pending.len()) == Some(n) {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(10), "followers never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        b.lock_lanes().entry(9).or_default().leader_active = false;
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn queued_requests_coalesce_into_one_fused_pass() {
        let b = Arc::new(Batcher::new(16));
        let outcomes = run_coalesced(&b, (0..3).map(|_| job(false)).collect());
        for o in outcomes {
            let r = reply_of(o);
            assert_eq!(r.devices, 5);
        }
        assert_eq!(b.batched_requests_total(), 3, "all three rode one fused pass");
        assert_eq!(b.bisections_total(), 0);
    }

    #[test]
    fn a_poison_mate_is_isolated_by_bisection_and_mates_succeed() {
        let b = Arc::new(Batcher::new(16));
        let jobs: Vec<BatchJob> = (0..4).map(|i| job(i == 2)).collect();
        let outcomes = run_coalesced(&b, jobs);
        let poisoned = outcomes
            .iter()
            .filter(|o| matches!(o, BatchOutcome::Poisoned))
            .count();
        let replies = outcomes
            .into_iter()
            .filter(|o| matches!(o, BatchOutcome::Reply(_)))
            .count();
        assert_eq!(poisoned, 1, "exactly the poison job fails");
        assert_eq!(replies, 3, "every batch-mate still gets its bytes");
        assert!(b.bisections_total() >= 1, "isolation went through bisection");
    }

    #[test]
    fn an_expired_leader_answers_its_deadline_without_poisoning_the_lane() {
        let b = Batcher::new(16);
        let ex = extractor();
        let obs = PipelineObs::new(None);
        let mut expired = job(false);
        expired.cancel = CancelToken::expiring_in(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let outcome = b.submit(1, &ex, &obs, expired);
        assert!(matches!(outcome, BatchOutcome::Error(ExtractError::Cancelled)));
        // The lane recovered: a fresh job still serves.
        let r = reply_of(b.submit(1, &ex, &obs, job(false)));
        assert_eq!(r.devices, 5);
    }
}
