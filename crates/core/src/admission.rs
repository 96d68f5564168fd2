//! Alg. 1's admission step, written once: the tentative re-allocation,
//! the reject rule, preemption, the burst fast path and the recovery
//! re-pack.
//!
//! The simulator scheduler ([`crate::Taps`]) and the SDN controller are
//! thin adapters over [`Admission`]. Each supplies a [`FlowView`] of its
//! own flows and commits the allocations it gets back in its own way:
//! the simulator as a slice timeline plus routes, the controller as a
//! switch-table diff plus grants. Everything that decides lives here, so
//! the two cannot disagree on identical input (`tests/sim_vs_sdn.rs`).

use crate::alloc::{AllocEngine, AllocError, FlowAlloc, FlowDemand};
use crate::delta::DeltaCache;
use crate::obs::obs_event;
#[cfg(feature = "obs")]
use crate::obs::obs_id;
use std::collections::BTreeSet;
use taps_topology::Topology;

/// How the reject rule resolves the "one victim task" case (see
/// DESIGN.md — the paper's wording for the completion-ratio comparison is
/// ambiguous; `Paper` implements the reading that preserves the paper's
/// Fig. 2 walk-through and makes preemption reachable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectPolicy {
    /// The paper's rule: compare the *schedulable completion ratios* under
    /// the tentative allocation (fraction of each task's flows that would
    /// still meet their deadline, counting already-completed flows). The
    /// newcomer is whole (ratio 1) in this branch, so a victim with any
    /// missing flow is preempted.
    Paper,
    /// Never discard an in-flight task; reject the newcomer instead.
    /// Ablation: TAPS without preemption degenerates towards Varys-style
    /// admission.
    NeverPreempt,
    /// Skip the reject rule entirely: admit every task and let flows miss
    /// deadlines naturally. Ablation: shows how much of TAPS's win is the
    /// rejection policy (bandwidth-waste control).
    AlwaysAdmit,
}

/// Outcome of the reject rule for one arrival (exposed for tests and the
/// SDN control plane).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectDecision {
    /// Task admitted; no in-flight task was harmed.
    Accept,
    /// Task admitted after discarding the given victim task.
    AcceptWithPreemption(usize),
    /// Task rejected (in-flight schedule re-packed without it).
    Reject,
}

/// Why [`Admission`] asks an adapter to drop a task from its view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The newcomer is rejected, by the reject rule or because its
    /// endpoints are disconnected. It never transmitted.
    Reject,
    /// An in-flight task is discarded so the newcomer fits (Rule 3).
    Preempt,
    /// An in-flight task is given up: its endpoints are disconnected, or
    /// a recovery re-pack finds it can no longer meet its deadline.
    Fail,
}

/// What an adapter exposes of its flows to [`Admission`].
///
/// Task and flow ids are the adapter's own; the core only passes them
/// back. Within one call into [`Admission`] nothing but
/// [`FlowView::drop_task`] may change the view.
pub trait FlowView {
    /// Fills `out` (empty on entry) with F_tmp: the demand of every live
    /// flow that takes part in the pass, with its remaining bytes, in
    /// EDF-then-SJF priority order. The order must be total (ties broken
    /// by flow id) so the pass is deterministic.
    fn live_flows(&mut self, out: &mut Vec<FlowDemand>);
    /// The task owning `flow`.
    fn task_of(&self, flow: usize) -> usize;
    /// The task's weight in Rule 3's `weight × schedulable ratio`.
    fn weight(&self, task: usize) -> f64;
    /// `(completed, total)`: how many of the task's flows have already
    /// delivered all their bytes, and how many flows it has in all.
    fn flow_counts(&self, task: usize) -> (usize, usize);
    /// Takes every live flow of `task` out of the view, so later
    /// [`FlowView::live_flows`] calls no longer return them.
    fn drop_task(&mut self, task: usize, why: DropReason);
}

/// The admission core: the persistent Alg. 2/3 engine, its delta cache
/// and the F_tmp demand buffer, plus the reject rule that reads them.
pub struct Admission {
    slot: f64,
    policy: RejectPolicy,
    force_validate: bool,
    /// Persistent Alg. 2/3 engine: occupancy buffers, path cache and
    /// scratch sets survive across admissions instead of being rebuilt
    /// per arrival.
    engine: AllocEngine,
    /// Cross-admission delta-reallocation cache: flows undisturbed since
    /// the previous tentative allocation are translated instead of
    /// re-searched (bit-identical results — see `delta` module docs).
    delta: DeltaCache,
    /// F_tmp of the current pass, in priority order; the engine input.
    demands: Vec<FlowDemand>,
    #[cfg(feature = "obs")]
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
}

impl Admission {
    /// An admission core with `slot`-second slots, a candidate-path
    /// budget for Alg. 2 and a reject-rule variant.
    ///
    /// Every allocation handed back for commit is checked against the
    /// schedule invariants ([`crate::validate`]) in builds with debug
    /// assertions, or in any build when `force_validate` is set, as long
    /// as the `validate` feature is on. A violation panics with the
    /// structured report.
    pub fn new(
        slot: f64,
        max_candidate_paths: usize,
        policy: RejectPolicy,
        force_validate: bool,
    ) -> Self {
        Admission {
            slot,
            policy,
            force_validate,
            engine: AllocEngine::new(slot, max_candidate_paths),
            delta: DeltaCache::new(),
            demands: Vec::new(),
            #[cfg(feature = "obs")]
            trace: None,
        }
    }

    /// Emits decision events (`AllocAttempt`, `Admit`, `Reject`,
    /// `Preempt`) to `sink` from now on.
    #[cfg(feature = "obs")]
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.trace = Some(sink);
    }

    /// First slot that starts at or after `time`.
    pub fn slot_at(&self, time: f64) -> u64 {
        self.engine.slot_at(time)
    }

    /// Folds a topology fault epoch into the delta cache before a
    /// recovery re-pack: the pass then re-searches only the flows whose
    /// candidate lists the fault touched and translates the rest,
    /// instead of paying a full-pass fallback for every fault.
    pub fn absorb_fault_epoch(&mut self, topo: &Topology) {
        self.engine.absorb_fault_epoch(topo, &mut self.delta);
    }

    /// Alg. 1 for one arriving task whose flows are already in `view`:
    /// the tentative re-allocation of F_tmp from `start_slot`, then the
    /// reject rule. Returns the decision and the validated allocation to
    /// commit. On `Reject` and `AcceptWithPreemption` the dropped task is
    /// already out of `view` and the allocation is the re-pack without
    /// it.
    pub fn admit<V: FlowView>(
        &mut self,
        view: &mut V,
        topo: &Topology,
        now: f64,
        task: usize,
        start_slot: u64,
    ) -> (RejectDecision, Vec<FlowAlloc>) {
        #[cfg(not(feature = "obs"))]
        let _ = now;
        self.gather(view);
        // Zero the engine's work counters so the post-allocation delta
        // covers exactly this admission's tentative allocation. Gated on
        // an attached sink: without one the counters are never read, so
        // the hot path skips both bookkeeping calls entirely.
        #[cfg(feature = "obs")]
        if self.trace.is_some() {
            let _ = self.engine.take_counters();
        }
        let (tentative, newcomer_dropped) =
            self.allocate_degrading(view, topo, start_slot, Some(task));
        #[cfg(feature = "obs")]
        if self.trace.is_some() {
            let c = self.engine.take_counters();
            obs_event!(
                self.trace,
                now,
                AllocAttempt {
                    task: obs_id(task),
                    paths_tried: c.paths_tried,
                    slots_scanned: c.slots_scanned
                }
            );
        }
        if newcomer_dropped {
            // A disconnected newcomer is rejected whatever the policy:
            // there is nothing to allocate. The survivors' re-pack is
            // committed.
            obs_event!(
                self.trace,
                now,
                Reject {
                    task: obs_id(task),
                    reason: taps_obs::reason::DISCONNECTED
                }
            );
            return (RejectDecision::Reject, self.validated(topo, tentative));
        }
        let decision = self.decide(view, &tentative, task);
        let allocs = match decision {
            RejectDecision::Accept => {
                obs_event!(self.trace, now, Admit { task: obs_id(task) });
                tentative
            }
            RejectDecision::AcceptWithPreemption(victim) => {
                obs_event!(
                    self.trace,
                    now,
                    Preempt {
                        task: obs_id(task),
                        victim: obs_id(victim)
                    }
                );
                self.drop_task(view, victim, DropReason::Preempt);
                // Usually all on time now, but not always: with several
                // candidate paths, first-fit is not monotone in the flow
                // set, so freeing the victim's slots can move another
                // flow onto a path that makes a third one late. That
                // flow is committed late and misses. Only the simulator
                // asserts the usual case.
                let (re, _) = self.allocate_degrading(view, topo, start_slot, None);
                obs_event!(self.trace, now, Admit { task: obs_id(task) });
                re
            }
            RejectDecision::Reject => {
                #[cfg(feature = "obs")]
                {
                    let reason = if self.policy == RejectPolicy::NeverPreempt {
                        taps_obs::reason::WOULD_PREEMPT
                    } else {
                        taps_obs::reason::INFEASIBLE
                    };
                    obs_event!(
                        self.trace,
                        now,
                        Reject {
                            task: obs_id(task),
                            reason
                        }
                    );
                }
                self.drop_task(view, task, DropReason::Reject);
                self.allocate_degrading(view, topo, start_slot, None).0
            }
        };
        (decision, self.validated(topo, allocs))
    }

    /// One-pass admission of a burst of arrivals (`tasks`, whose flows
    /// are all already in `view`) starting at the same slot. Returns the
    /// validated allocation to commit when the whole burst fits on time;
    /// every task in it is then accepted.
    ///
    /// Exact where first-fit is monotone in the flow set: removing flows
    /// from a pass only frees capacity, so if the pass over incumbents
    /// plus the *whole* burst is all on time, every sequential prefix
    /// pass is all on time too — each per-task [`Admission::admit`]
    /// would accept, and its final pass equals the burst pass. That
    /// always holds on single-path topologies; with several candidate
    /// paths it can fail (see the preemption branch of
    /// [`Admission::admit`]). Any miss or disconnection voids the
    /// argument: the call then returns `None` having changed nothing in
    /// `view`, and the caller must admit the tasks one at a time with
    /// [`Admission::admit`], in order. The delta cache's contents differ
    /// from a never-tried burst, but delta passes are bit-identical to
    /// full passes regardless.
    pub fn admit_burst<V: FlowView>(
        &mut self,
        view: &mut V,
        topo: &Topology,
        now: f64,
        tasks: &[usize],
        start_slot: u64,
    ) -> Option<Vec<FlowAlloc>> {
        #[cfg(not(feature = "obs"))]
        let _ = (now, tasks);
        self.gather(view);
        match self.allocate(topo, start_slot) {
            Ok(allocs) if allocs.iter().all(|al| al.on_time) => {
                #[cfg(feature = "obs")]
                for &t in tasks {
                    obs_event!(self.trace, now, Admit { task: obs_id(t) });
                }
                Some(self.validated(topo, allocs))
            }
            _ => None,
        }
    }

    /// Recovery re-pack after a topology fault or a controller failover:
    /// re-runs the allocation for every flow in `view` from
    /// `start_slot`. Disconnected tasks are given up. Under the `Paper`
    /// policy so is every task that would now miss its deadline (the
    /// reject rule degraded to per-task preemption), until the remainder
    /// fits; under `NeverPreempt`/`AlwaysAdmit` late flows keep their
    /// late slices and miss naturally. Returns the validated allocation
    /// to commit.
    pub fn repack<V: FlowView>(
        &mut self,
        view: &mut V,
        topo: &Topology,
        start_slot: u64,
    ) -> Vec<FlowAlloc> {
        self.gather(view);
        loop {
            let (allocs, _) = self.allocate_degrading(view, topo, start_slot, None);
            if self.policy == RejectPolicy::Paper {
                let doomed: BTreeSet<usize> = allocs
                    .iter()
                    .filter(|al| !al.on_time)
                    .map(|al| view.task_of(al.id))
                    .collect();
                if !doomed.is_empty() {
                    // Each round gives up at least one task, so the loop
                    // terminates once the remainder fits.
                    for t in doomed {
                        self.drop_task(view, t, DropReason::Fail);
                    }
                    continue;
                }
            }
            return self.validated(topo, allocs);
        }
    }

    /// Emits the `GrantIssued` + `GrantHop` + `GrantSlice` burst of one
    /// committed allocation, stamped `(epoch, gen)`.
    #[cfg(feature = "obs")]
    pub fn emit_grant_burst(&self, now: f64, al: &FlowAlloc, epoch: u64, gen: u64) {
        if self.trace.is_none() {
            return;
        }
        obs_event!(
            self.trace,
            now,
            GrantIssued {
                flow: obs_id(al.id),
                epoch,
                gen,
                hops: obs_id(al.path.links.len()),
                slices: obs_id(al.slices.intervals().count()),
                on_time: al.on_time
            }
        );
        for (idx, l) in al.path.links.iter().enumerate() {
            obs_event!(
                self.trace,
                now,
                GrantHop {
                    flow: obs_id(al.id),
                    idx: obs_id(idx),
                    link: obs_id(l.idx())
                }
            );
        }
        for (idx, iv) in al.slices.intervals().enumerate() {
            obs_event!(
                self.trace,
                now,
                GrantSlice {
                    flow: obs_id(al.id),
                    idx: obs_id(idx),
                    start: taps_timeline::slots::to_f64(iv.start) * self.slot,
                    end: taps_timeline::slots::to_f64(iv.end) * self.slot
                }
            );
        }
    }

    /// Loads F_tmp from the view.
    fn gather<V: FlowView>(&mut self, view: &mut V) {
        self.demands.clear();
        view.live_flows(&mut self.demands);
    }

    /// Drops `task` from the view and from F_tmp.
    fn drop_task<V: FlowView>(&mut self, view: &mut V, task: usize, why: DropReason) {
        view.drop_task(task, why);
        self.demands.retain(|d| view.task_of(d.id) != task);
    }

    /// One tentative Alg. 2/3 pass over F_tmp on the persistent engine.
    fn allocate(&mut self, topo: &Topology, start_slot: u64) -> Result<Vec<FlowAlloc>, AllocError> {
        // Delta re-allocation: binds the topology and resets occupancy
        // itself; flows undisturbed since the previous pass are
        // translated, everything else re-searched — bit-identical to a
        // full `allocate_batch` (cross-checked in debug builds).
        self.engine
            .allocate_batch_delta(topo, &self.demands, start_slot, &mut self.delta)
    }

    /// Tentative allocation with per-task degradation: when a flow's
    /// endpoints have no surviving path ([`AllocError::Disconnected`],
    /// possible under link/switch faults), its whole task is dropped —
    /// the newcomer by rejection, an in-flight task as failed — and the
    /// allocation re-runs over the remainder instead of failing globally.
    /// This applies regardless of the reject policy: a task without a
    /// path physically cannot transmit, so dropping it is a statement of
    /// fact, not a preemption choice. Returns the surviving allocation
    /// plus whether `newcomer` was dropped.
    fn allocate_degrading<V: FlowView>(
        &mut self,
        view: &mut V,
        topo: &Topology,
        start_slot: u64,
        newcomer: Option<usize>,
    ) -> (Vec<FlowAlloc>, bool) {
        let mut newcomer_dropped = false;
        loop {
            match self.allocate(topo, start_slot) {
                Ok(allocs) => return (allocs, newcomer_dropped),
                Err(AllocError::Disconnected { flow }) => {
                    // Every flow of the dropped task leaves F_tmp, so the
                    // loop strictly shrinks and terminates.
                    let task = view.task_of(flow);
                    let why = if newcomer == Some(task) {
                        newcomer_dropped = true;
                        DropReason::Reject
                    } else {
                        DropReason::Fail
                    };
                    self.drop_task(view, task, why);
                }
            }
        }
    }

    /// The reject rule of Alg. 1 applied to the tentative allocation of
    /// newcomer `task`.
    fn decide<V: FlowView>(&self, view: &V, allocs: &[FlowAlloc], task: usize) -> RejectDecision {
        if self.policy == RejectPolicy::AlwaysAdmit {
            return RejectDecision::Accept;
        }
        let mut victim = None;
        for al in allocs.iter().filter(|al| !al.on_time) {
            let t = view.task_of(al.id);
            match victim {
                None => victim = Some(t),
                // Rule 1: more than one task harmed.
                Some(v) if v != t => return RejectDecision::Reject,
                Some(_) => {}
            }
        }
        let Some(victim) = victim else {
            return RejectDecision::Accept;
        };
        // Rule 2: the newcomer itself cannot finish whole.
        if victim == task || self.policy == RejectPolicy::NeverPreempt {
            return RejectDecision::Reject;
        }
        // Rule 3: compare completion ratios under the tentative schedule
        // (fraction of each task's flows that make their deadline;
        // completed flows count as made), scaled by the tasks' weights
        // (DCoflow-style σ-order value). The ratio is already
        // demand-normalized (per-flow fraction), so `weight × ratio`
        // orders tasks by schedulable value per unit of demand — low
        // weight-per-byte victims yield first. With both weights at 1.0
        // this is exactly the paper's unweighted comparison; ties still
        // Reject.
        let victim_value = view.weight(victim) * schedulable_ratio(view, allocs, victim);
        let new_value = view.weight(task) * schedulable_ratio(view, allocs, task);
        if victim_value.total_cmp(&new_value).is_ge() {
            RejectDecision::Reject
        } else {
            RejectDecision::AcceptWithPreemption(victim)
        }
    }

    /// Hands a pass's allocation over for commit, checking it first.
    /// `allocs` always comes from the immediately preceding pass, so
    /// `self.demands` matches it by id and the engine's occupancy is the
    /// one it produced.
    fn validated(&self, topo: &Topology, allocs: Vec<FlowAlloc>) -> Vec<FlowAlloc> {
        #[cfg(feature = "validate")]
        if self.force_validate || cfg!(debug_assertions) {
            let mut report = crate::validate::check_schedule(
                topo,
                self.slot,
                &self.demands,
                &allocs,
                "commit: schedule",
            );
            report.violations.extend(
                crate::validate::check_occupancy(topo, &self.engine, &allocs, "commit: occupancy")
                    .violations,
            );
            assert!(report.is_clean(), "{report}");
        }
        #[cfg(not(feature = "validate"))]
        let _ = (topo, self.slot, self.force_validate);
        allocs
    }
}

/// Fraction of `task`'s flows that complete on time under `allocs`:
/// already-completed flows plus its on-time flows in the pass.
fn schedulable_ratio<V: FlowView>(view: &V, allocs: &[FlowAlloc], task: usize) -> f64 {
    let (completed, total) = view.flow_counts(task);
    let on_time = allocs
        .iter()
        .filter(|al| al.on_time && view.task_of(al.id) == task)
        .count();
    if total == 0 {
        1.0
    } else {
        (completed + on_time) as f64 / total as f64 // lint: cast-ok(per-task flow counts are tiny, far below 2^53)
    }
}
