//! The TAPS controller (§IV-C): runs the centralized algorithm on probe
//! arrival, installs/withdraws forwarding entries, and hands out
//! time-slice grants.

use crate::messages::{FlowGrant, LinkEvent, ProbeHeader, SwitchCmd};
use crate::obs::obs_event;
#[cfg(feature = "obs")]
use crate::obs::obs_id;
use crate::switch::{FlowEntry, FlowTable, TableError};
use std::collections::BTreeMap;
use taps_core::{
    Admission, DropReason, FlowAlloc, FlowDemand, FlowView, RejectDecision, RejectPolicy,
};
use taps_topology::Topology;

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Slot duration of the allocation timeline, seconds.
    pub slot: f64,
    /// Candidate-path budget for Alg. 2.
    pub max_candidate_paths: usize,
    /// Reject-rule variant.
    pub policy: RejectPolicy,
    /// Per-switch TCAM capacity.
    pub table_capacity: usize,
    /// Per-switch entry budget for TAPS flows (the paper's "first 1k").
    pub table_budget: usize,
    /// Control-plane round trip (probe → decision → grant + entry
    /// install), seconds. Grants cannot start earlier than
    /// `now + control_rtt`; §IV keeps this off the data path, but it
    /// bounds how fresh a task's first slice can be.
    pub control_rtt: f64,
    /// Delay between a link state change and the controller learning of
    /// it (port-down detection + notification), seconds. A recovery
    /// schedule takes effect no earlier than
    /// `now + recovery_latency + control_rtt`.
    pub recovery_latency: f64,
    /// Grant fence, seconds: every commit's first slice is pushed this
    /// far past `now + control_rtt` so that leases issued under the
    /// previous generation provably lapse before the new slices activate
    /// (DESIGN.md §10). Zero (the default) reproduces the reliable,
    /// instantaneous control plane.
    pub grant_fence: f64,
    /// Run the commit-time schedule validator even in builds without
    /// debug assertions (the chaos harness turns this on so release-mode
    /// chaos runs still validate every commit).
    pub force_validate: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            slot: 0.0001,
            max_candidate_paths: 16,
            policy: RejectPolicy::Paper,
            table_capacity: crate::switch::DEFAULT_TABLE_CAPACITY,
            table_budget: crate::switch::DEFAULT_TAPS_BUDGET,
            control_rtt: 0.0,
            recovery_latency: 0.0,
            grant_fence: 0.0,
            force_validate: false,
        }
    }
}

/// The controller's decision for one probed task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskVerdict {
    /// Accepted; grants and switch commands follow.
    Accepted,
    /// Accepted after discarding the given in-flight task.
    AcceptedWithPreemption(usize),
    /// Rejected; the senders must not transmit any of the task's flows.
    Rejected,
}

impl From<RejectDecision> for TaskVerdict {
    fn from(d: RejectDecision) -> Self {
        match d {
            RejectDecision::Accept => TaskVerdict::Accepted,
            RejectDecision::AcceptWithPreemption(victim) => {
                TaskVerdict::AcceptedWithPreemption(victim)
            }
            RejectDecision::Reject => TaskVerdict::Rejected,
        }
    }
}

/// Control-plane counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Probe messages received.
    pub probes: usize,
    /// Grant messages sent.
    pub grants: usize,
    /// TERM messages received.
    pub terms: usize,
    /// Entry installs sent to switches.
    pub installs: usize,
    /// Entry withdrawals sent to switches.
    pub withdrawals: usize,
    /// Tasks rejected.
    pub rejected_tasks: usize,
    /// Tasks preempted (discarded mid-flight).
    pub preempted_tasks: usize,
    /// Installs skipped because a switch's TAPS budget was full.
    pub budget_drops: usize,
    /// Link fault notifications (down or up) handled.
    pub link_faults: usize,
    /// In-flight tasks given up during recovery: disconnected by the
    /// fault, or no longer able to meet their deadline on the surviving
    /// paths (paper reject rule, degraded to per-task preemption).
    pub failed_tasks: usize,
    /// Probes answered from the decision cache (duplicate deliveries of
    /// an already-decided task; the cached verdict is replayed).
    pub duplicate_probes: usize,
    /// Server resync reports absorbed after a failover.
    pub resyncs: usize,
}

/// One registered flow: the controller's registry entry, and the unit of
/// a [`ControllerCheckpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointFlow {
    /// Flow id.
    pub flow: usize,
    /// Owning task id.
    pub task: usize,
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Original flow size, bytes.
    pub size: f64,
    /// Bytes delivered as of the checkpoint (refined by resync reports
    /// after a restore).
    pub delivered: f64,
    /// Absolute deadline, seconds.
    pub deadline: f64,
    /// Whether the flow was finished/preempted at checkpoint time.
    pub done: bool,
}

impl CheckpointFlow {
    /// A live registry entry for a probed flow, `delivered` bytes in.
    fn probed(p: &ProbeHeader, delivered: f64) -> Self {
        CheckpointFlow {
            flow: p.flow,
            task: p.task,
            src: p.src,
            dst: p.dst,
            size: p.size,
            delivered,
            deadline: p.deadline,
            done: false,
        }
    }
}

/// Serialized controller state: everything a standby needs to take over
/// (admitted tasks, per-flow progress, the decision cache, and the
/// `(epoch, gen)` high-water mark). Deliberately excludes the committed
/// schedule and switch-table images — the standby recomputes both from
/// the registry (re-running Alg. 1–3) and reconciles switches with a
/// full-state sweep, so a stale checkpoint can never resurrect slices
/// that conflict with reality.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerCheckpoint {
    /// Epoch of the checkpointing controller.
    pub epoch: u64,
    /// Commit generation at checkpoint time.
    pub gen: u64,
    /// The flow registry.
    pub flows: Vec<CheckpointFlow>,
    /// The per-task decision cache (sorted by task id).
    pub decided: Vec<(usize, TaskVerdict)>,
}

/// The TAPS SDN controller.
pub struct Controller<'t> {
    topo: &'t Topology,
    cfg: ControllerConfig,
    /// The admission core (Alg. 1–3): its engine, occupancy buffers and
    /// candidate-path cache persist across probes (the controller
    /// handles every task arrival in the paper).
    adm: Admission,
    /// Ordered maps: `commit()` and F_tmp iterate them, and control-
    /// plane command order must be deterministic (lint rule L1).
    registry: BTreeMap<usize, CheckpointFlow>,
    /// Committed schedule per flow.
    schedule: BTreeMap<usize, FlowAlloc>,
    tables: Vec<FlowTable>,
    stats: ControlStats,
    /// Controller incarnation; bumped by [`Controller::restore`] so every
    /// post-failover message outranks anything the dead primary sent.
    epoch: u64,
    /// Commit generation; bumped before every command-emitting operation
    /// so receivers can order deliveries with last-writer-wins.
    gen: u64,
    /// Per-task verdict cache: duplicate probe deliveries replay the
    /// original decision instead of re-registering the task (which would
    /// reset delivered-bytes progress and double-count stats).
    decided: BTreeMap<usize, TaskVerdict>,
    /// Trace sink for admission/commit/table events.
    #[cfg(feature = "obs")]
    trace: crate::obs::TraceHandle,
}

impl<'t> Controller<'t> {
    /// Creates a controller over a topology.
    pub fn new(topo: &'t Topology, cfg: ControllerConfig) -> Self {
        let tables = (0..topo.num_nodes())
            .map(|_| FlowTable::new(cfg.table_capacity, cfg.table_budget))
            .collect();
        let adm = Admission::new(
            cfg.slot,
            cfg.max_candidate_paths,
            cfg.policy,
            cfg.force_validate,
        );
        Controller {
            topo,
            cfg,
            adm,
            registry: BTreeMap::new(),
            schedule: BTreeMap::new(),
            tables,
            stats: ControlStats::default(),
            epoch: 0,
            gen: 0,
            decided: BTreeMap::new(),
            #[cfg(feature = "obs")]
            trace: crate::obs::TraceHandle::default(),
        }
    }

    /// Routes this controller's decision/commit/table events to `sink`.
    #[cfg(feature = "obs")]
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.adm.set_trace_sink(sink.clone());
        self.trace = crate::obs::TraceHandle(Some(sink));
    }

    /// Counters so far.
    pub fn stats(&self) -> &ControlStats {
        &self.stats
    }

    /// The flow table of a node (switch), for inspection.
    pub fn table(&self, node: taps_topology::NodeId) -> &FlowTable {
        &self.tables[node.idx()]
    }

    /// The committed grant of a flow, if any, stamped with the current
    /// `(epoch, gen)`.
    pub fn grant_of(&self, flow: usize) -> Option<FlowGrant> {
        self.schedule.get(&flow).map(|al| FlowGrant {
            flow,
            slices: al.slices.clone(),
            path: al.path.clone(),
            epoch: self.epoch,
            gen: self.gen,
        })
    }

    /// Current controller incarnation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current commit generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Progress report from a sender (bytes delivered so far); used by
    /// re-allocations so in-flight flows are re-packed with their true
    /// remaining size. Monotonic: duplicated or reordered progress
    /// reports can only advance the delivered count, never regress it.
    pub fn note_progress(&mut self, flow: usize, delivered: f64) {
        if let Some(r) = self.registry.get_mut(&flow) {
            r.delivered = r.delivered.max(delivered.min(r.size));
        }
    }

    /// Handles a task probe (Fig. 4 steps 2–5): runs Alg. 1 and returns
    /// the verdict, the grants for the task's flows (empty on rejection),
    /// and the switch commands realizing the new committed schedule.
    pub fn handle_probe(
        &mut self,
        now: f64,
        probes: &[ProbeHeader],
    ) -> (TaskVerdict, Vec<FlowGrant>, Vec<SwitchCmd>) {
        assert!(!probes.is_empty());
        let task = probes[0].task;
        assert!(probes.iter().all(|p| p.task == task), "one task per probe");
        self.stats.probes += 1;

        // Idempotent replay: a duplicated (or retried) probe of an
        // already-decided task returns the cached verdict and the current
        // grants. Re-registering would zero the flows' delivered bytes
        // and re-run admission against an occupancy that already
        // contains them.
        if let Some(v) = self.decided.get(&task) {
            self.stats.duplicate_probes += 1;
            let verdict = v.clone();
            let grants = self.task_grants(&verdict, probes);
            return (verdict, grants, Vec::new());
        }

        for p in probes {
            self.registry.insert(p.flow, CheckpointFlow::probed(p, 0.0));
        }
        let start_slot = self.start_slot(now, 0.0);
        let newcomer = [task];
        let mut view = RegistryView::new(&mut self.registry, &mut self.stats, now, &newcomer);
        let (decision, allocs) = self.adm.admit(&mut view, self.topo, now, task, start_slot);
        let verdict = TaskVerdict::from(decision);
        if verdict == TaskVerdict::Rejected {
            for p in probes {
                self.registry.remove(&p.flow);
            }
        }
        let cmds = self.commit(now, allocs);
        self.decided.insert(task, verdict.clone());
        let grants = self.task_grants(&verdict, probes);
        self.stats.grants += grants.len();
        (verdict, grants, cmds)
    }

    /// The current grants of a decided task's flows (none if rejected).
    fn task_grants(&self, verdict: &TaskVerdict, probes: &[ProbeHeader]) -> Vec<FlowGrant> {
        if *verdict == TaskVerdict::Rejected {
            return Vec::new();
        }
        probes
            .iter()
            .filter_map(|p| self.grant_of(p.flow))
            .collect()
    }

    /// First slot a (re-)allocation may use: nothing can be (re)scheduled
    /// before `delay` (e.g. fault detection) plus the control round trip
    /// completes, since servers only learn their slices then. The grant
    /// fence additionally keeps new slices clear of any lease issued
    /// under an older stamp (DESIGN.md §10).
    fn start_slot(&self, now: f64, delay: f64) -> u64 {
        self.adm
            .slot_at(now + delay + self.cfg.control_rtt + self.cfg.grant_fence)
    }

    /// Handles a whole burst of task probes arriving in the same control
    /// window (e.g. one Poisson arrival batch) with **one** re-allocation
    /// pass and one commit when the entire burst fits on time
    /// ([`Admission::admit_burst`]). Otherwise the burst is replayed
    /// through [`Controller::handle_probe`] task by task, in input order.
    /// Wherever first-fit is monotone (always on single-path topologies)
    /// verdicts, grants, the committed schedule, and the final switch
    /// tables are then identical to sequential handling; only the command
    /// *diff* granularity differs (one commit instead of one per task).
    ///
    /// Each inner slice is one task's probes; fresh task ids must be
    /// distinct (already-decided tasks replay their cached verdict, as
    /// in `handle_probe`). Returns the per-task `(verdict, grants)` in
    /// input order plus the combined switch-command diff.
    pub fn handle_probe_burst(
        &mut self,
        now: f64,
        tasks: &[Vec<ProbeHeader>],
    ) -> (Vec<(TaskVerdict, Vec<FlowGrant>)>, Vec<SwitchCmd>) {
        let fresh: Vec<usize> = tasks
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                assert!(!g.is_empty());
                !self.decided.contains_key(&g[0].task)
            })
            .map(|(i, _)| i)
            .collect();
        if fresh.len() > 1 {
            if let Some(cmds) = self.admit_burst_fast(now, tasks, &fresh) {
                let mut results = Vec::with_capacity(tasks.len());
                for (i, group) in tasks.iter().enumerate() {
                    if fresh.contains(&i) {
                        let grants = self.task_grants(&TaskVerdict::Accepted, group);
                        self.stats.grants += grants.len();
                        results.push((TaskVerdict::Accepted, grants));
                    } else {
                        // Decided before this call: cached-verdict replay.
                        let (v, g, _) = self.handle_probe(now, group);
                        results.push((v, g));
                    }
                }
                return (results, cmds);
            }
        }
        // Exact fallback: canonical sequential admission.
        let mut results = Vec::with_capacity(tasks.len());
        let mut cmds = Vec::new();
        for group in tasks {
            let (v, g, c) = self.handle_probe(now, group);
            results.push((v, g));
            cmds.extend(c);
        }
        (results, cmds)
    }

    /// The burst fast path ([`Admission::admit_burst`]): registers every
    /// fresh task and commits iff the one pass lands everything on time.
    /// Returns `None` — with the registrations rolled back and no other
    /// state touched — when the burst must be replayed sequentially.
    fn admit_burst_fast(
        &mut self,
        now: f64,
        tasks: &[Vec<ProbeHeader>],
        fresh: &[usize],
    ) -> Option<Vec<SwitchCmd>> {
        let ids: Vec<usize> = fresh.iter().map(|&i| tasks[i][0].task).collect();
        for (n, &i) in fresh.iter().enumerate() {
            assert!(
                tasks[i].iter().all(|p| p.task == ids[n]),
                "one task per probe group"
            );
            assert!(
                !ids[..n].contains(&ids[n]),
                "burst task ids must be distinct"
            );
            for p in &tasks[i] {
                self.registry.insert(p.flow, CheckpointFlow::probed(p, 0.0));
            }
        }
        let start_slot = self.start_slot(now, 0.0);
        let mut view = RegistryView::new(&mut self.registry, &mut self.stats, now, &ids);
        let Some(allocs) = self
            .adm
            .admit_burst(&mut view, self.topo, now, &ids, start_slot)
        else {
            // Roll back so the sequential replay observes the pre-burst
            // registry.
            for &i in fresh {
                for p in &tasks[i] {
                    self.registry.remove(&p.flow);
                }
            }
            return None;
        };
        self.stats.probes += fresh.len();
        for task in ids {
            self.decided.insert(task, TaskVerdict::Accepted);
        }
        Some(self.commit(now, allocs))
    }

    /// Handles a link fault notification: applies the state change to the
    /// topology, then re-runs the full allocation for every in-flight
    /// flow over the surviving paths. Tasks that are disconnected — or,
    /// under the paper policy, can no longer meet their deadline — are
    /// given up (per-task preemption) instead of failing the whole
    /// recovery. Returns the re-issued grants for every surviving flow
    /// and the switch commands realizing the new schedule.
    ///
    /// The recomputed schedule starts no earlier than
    /// `now + recovery_latency + control_rtt`: detection, notification,
    /// recomputation and re-granting all take control-plane time, during
    /// which flows crossing the dead link deliver nothing.
    pub fn handle_link_event(
        &mut self,
        now: f64,
        ev: LinkEvent,
    ) -> (Vec<FlowGrant>, Vec<SwitchCmd>) {
        self.stats.link_faults += 1;
        match ev {
            LinkEvent::LinkDown { link } => {
                obs_event!(
                    &self.trace,
                    now,
                    LinkFault {
                        link: obs_id(link.idx()),
                        up: false
                    }
                );
                self.topo.fail_link(link);
            }
            LinkEvent::LinkUp { link } => {
                obs_event!(
                    &self.trace,
                    now,
                    LinkFault {
                        link: obs_id(link.idx()),
                        up: true
                    }
                );
                self.topo.restore_link(link);
            }
        }
        self.adm.absorb_fault_epoch(self.topo);
        let start_slot = self.start_slot(now, self.cfg.recovery_latency);
        self.repack(now, start_slot)
    }

    /// Re-runs Alg. 1–3 for every in-flight flow from the current
    /// registry (no topology change implied), e.g. after a failed-over
    /// controller has absorbed the servers' resync reports. Returns the
    /// re-issued grants and the switch-command diff.
    pub fn reallocate_all(&mut self, now: f64) -> (Vec<FlowGrant>, Vec<SwitchCmd>) {
        let start_slot = self.start_slot(now, 0.0);
        self.repack(now, start_slot)
    }

    /// The re-pack shared by fault recovery and failover
    /// ([`Admission::repack`]), then the commit and a re-grant of every
    /// surviving flow.
    fn repack(&mut self, now: f64, start_slot: u64) -> (Vec<FlowGrant>, Vec<SwitchCmd>) {
        let mut view = RegistryView::new(&mut self.registry, &mut self.stats, now, &[]);
        let allocs = self.adm.repack(&mut view, self.topo, start_slot);
        let cmds = self.commit(now, allocs);
        let grants: Vec<FlowGrant> = self
            .schedule
            .keys()
            .filter_map(|&f| self.grant_of(f))
            .collect();
        self.stats.grants += grants.len();
        (grants, cmds)
    }

    /// Handles a TERM: marks the flow done and withdraws its entries
    /// (§IV-C: "when the controller receives an ACK that the flow has
    /// been completed or missed deadline, it informs the corresponding
    /// switches to withdraw the route entries").
    pub fn handle_term(&mut self, now: f64, flow: usize) -> Vec<SwitchCmd> {
        self.stats.terms += 1;
        if let Some(r) = self.registry.get_mut(&flow) {
            r.done = true;
            r.delivered = r.size;
        }
        let mut cmds = Vec::new();
        if let Some(al) = self.schedule.remove(&flow) {
            // The withdrawals must outrank the install that created the
            // entries (equal stamps resolve install-wins).
            self.gen += 1;
            self.revoke(now, &al, &mut cmds);
        }
        cmds
    }

    /// Revokes a flow's grant: withdraws its entry from every switch on
    /// its path, appending the commands to `cmds`.
    fn revoke(&mut self, now: f64, al: &FlowAlloc, cmds: &mut Vec<SwitchCmd>) {
        #[cfg(not(feature = "obs"))]
        let _ = now;
        let flow = al.id;
        obs_event!(&self.trace, now, GrantRevoked { flow: obs_id(flow) });
        for l in &al.path.links {
            let node = self.topo.link(*l).src;
            if self.topo.node(node).kind.is_switch() {
                self.tables[node.idx()].withdraw(flow);
                self.stats.withdrawals += 1;
                obs_event!(
                    &self.trace,
                    now,
                    EntryWithdrawn {
                        node: obs_id(node.idx()),
                        flow: obs_id(flow)
                    }
                );
                cmds.push(SwitchCmd::Withdraw { node, flow });
            }
        }
    }

    /// Serializes the controller's durable state for a standby
    /// (DESIGN.md §10): the flow registry, the per-task decision cache,
    /// and the `(epoch, gen)` high-water mark. The committed schedule is
    /// intentionally not captured — see [`ControllerCheckpoint`].
    pub fn checkpoint(&self) -> ControllerCheckpoint {
        ControllerCheckpoint {
            epoch: self.epoch,
            gen: self.gen,
            flows: self.registry.values().cloned().collect(),
            decided: self.decided.iter().map(|(&t, v)| (t, v.clone())).collect(),
        }
    }

    /// Builds a standby controller from a checkpoint: the epoch is bumped
    /// past the dead primary's so every message the standby sends
    /// outranks anything still in flight from before the crash, and the
    /// schedule/tables start empty — the standby re-learns progress from
    /// server resyncs ([`Controller::resync`]), re-runs Alg. 1–3
    /// ([`Controller::reallocate_all`]), and replaces switch state with a
    /// full sweep ([`Controller::sweep`]).
    pub fn restore(topo: &'t Topology, cfg: ControllerConfig, ckpt: &ControllerCheckpoint) -> Self {
        let mut c = Controller::new(topo, cfg);
        c.epoch = ckpt.epoch + 1;
        c.gen = ckpt.gen;
        c.registry = ckpt.flows.iter().map(|f| (f.flow, f.clone())).collect();
        c.decided = ckpt.decided.iter().cloned().collect();
        c
    }

    /// Absorbs one server's resync report (reply to
    /// [`crate::CtrlMsg::ResyncRequest`]): each entry pairs the flow's
    /// *original* scheduling header with its remaining bytes, refreshing
    /// the possibly stale checkpointed progress; any checkpointed live
    /// flow of this host *not* listed has finished on the server and is
    /// marked done. Flows the checkpoint never saw (admitted after the
    /// checkpoint, grant lost with the primary) are registered fresh
    /// from the report — with the original size, so later progress
    /// reports (measured against the original size) stay consistent.
    pub fn resync(&mut self, host: usize, probes: &[(ProbeHeader, f64)]) {
        self.stats.resyncs += 1;
        let mut listed: Vec<usize> = Vec::with_capacity(probes.len());
        for (p, remaining) in probes {
            listed.push(p.flow);
            if let Some(r) = self.registry.get_mut(&p.flow) {
                if !r.done {
                    r.delivered = r.delivered.max((r.size - remaining).max(0.0));
                }
            } else {
                self.registry.insert(
                    p.flow,
                    CheckpointFlow::probed(p, (p.size - remaining).max(0.0)),
                );
                self.decided.entry(p.task).or_insert(TaskVerdict::Accepted);
            }
        }
        for (&flow, r) in self.registry.iter_mut() {
            if r.src == host && !r.done && !listed.contains(&flow) {
                r.done = true;
                r.delivered = r.size;
            }
        }
    }

    /// The full per-switch entry sets for a reconciliation sweep
    /// ([`crate::SwitchMsg::Sweep`]): every switch node paired with the
    /// complete, sorted entry list it should hold. Sent after a failover
    /// so switches drop entries the new controller knows nothing about.
    pub fn sweep(&self) -> Vec<(taps_topology::NodeId, Vec<FlowEntry>)> {
        (0..self.topo.num_nodes())
            .map(|n| taps_topology::NodeId(n as u32))
            .filter(|&n| self.topo.node(n).kind.is_switch())
            .map(|n| (n, self.tables[n.idx()].entries_sorted()))
            .collect()
    }

    /// Commits a new schedule: updates tables to match, emitting the diff
    /// as switch commands. The admission core has already validated
    /// `allocs` ([`ControllerConfig::force_validate`] forces that check
    /// in release builds; the chaos harness runs release-mode with it
    /// on).
    fn commit(&mut self, now: f64, allocs: Vec<FlowAlloc>) -> Vec<SwitchCmd> {
        self.gen += 1;
        let mut cmds = Vec::new();
        // Withdraw entries of flows whose path changed or disappeared.
        let new: BTreeMap<usize, &FlowAlloc> = allocs.iter().map(|al| (al.id, al)).collect();
        let stale: Vec<usize> = self
            .schedule
            .keys()
            .filter(|id| new.get(id).map(|al| &al.path) != self.schedule.get(id).map(|al| &al.path))
            .copied()
            .collect();
        for id in stale {
            // lint: panic-ok(invariant: `stale` ids were just drawn from `schedule.keys()`)
            let al = self.schedule.remove(&id).expect("stale id came from keys");
            self.revoke(now, &al, &mut cmds);
        }
        obs_event!(
            &self.trace,
            now,
            CommitBegin {
                gen: self.gen,
                flows: obs_id(allocs.len())
            }
        );
        // Install entries for new/re-routed flows.
        for al in allocs {
            #[cfg(feature = "obs")]
            self.adm.emit_grant_burst(now, &al, self.epoch, self.gen);
            if let std::collections::btree_map::Entry::Occupied(mut e) = self.schedule.entry(al.id)
            {
                // Same path: update slices only (no data-plane change).
                e.insert(al);
                continue;
            }
            for l in &al.path.links {
                let node = self.topo.link(*l).src;
                if !self.topo.node(node).kind.is_switch() {
                    continue;
                }
                match self.tables[node.idx()].install(FlowEntry {
                    flow: al.id,
                    out_link: *l,
                }) {
                    Ok(()) => {
                        self.stats.installs += 1;
                        obs_event!(
                            &self.trace,
                            now,
                            EntryInstalled {
                                node: obs_id(node.idx()),
                                flow: obs_id(al.id),
                                link: obs_id(l.idx())
                            }
                        );
                        cmds.push(SwitchCmd::Install {
                            node,
                            flow: al.id,
                            out_link: *l,
                        });
                    }
                    // The flow falls back to default routing on this hop.
                    Err(TableError::BudgetExhausted) => self.stats.budget_drops += 1,
                    // lint: panic-ok(invariant: conflicting entries were withdrawn in the stale pass above)
                    Err(TableError::Conflict) => unreachable!("entry was withdrawn above"),
                }
            }
            self.schedule.insert(al.id, al);
        }
        obs_event!(&self.trace, now, CommitEnd { gen: self.gen });
        cmds
    }
}

/// The registry as the admission core sees it: every unfinished flow,
/// with its remaining bytes as the senders last reported them.
///
/// Flows whose deadline is at or before `now` are expired (marked done)
/// in the same pass that builds F_tmp, as the simulator stops a flow at
/// its deadline: a flow that has already missed is no longer anyone's
/// victim. The tasks being admitted are exempt, so a probe that arrives
/// past its own deadline is rejected by Rule 2 rather than accepted with
/// nothing to send. Weights are 1.0: [`ProbeHeader`] carries none.
struct RegistryView<'r> {
    flows: &'r mut BTreeMap<usize, CheckpointFlow>,
    stats: &'r mut ControlStats,
    now: f64,
    newcomers: &'r [usize],
}

impl<'r> RegistryView<'r> {
    fn new(
        flows: &'r mut BTreeMap<usize, CheckpointFlow>,
        stats: &'r mut ControlStats,
        now: f64,
        newcomers: &'r [usize],
    ) -> Self {
        RegistryView {
            flows,
            stats,
            now,
            newcomers,
        }
    }
}

impl FlowView for RegistryView<'_> {
    fn live_flows(&mut self, out: &mut Vec<FlowDemand>) {
        let (now, newcomers) = (self.now, self.newcomers);
        let mut live: Vec<&CheckpointFlow> = Vec::new();
        for f in self.flows.values_mut() {
            if f.done {
                continue;
            }
            if f.deadline.total_cmp(&now).is_le() && !newcomers.contains(&f.task) {
                f.done = true;
                continue;
            }
            live.push(f);
        }
        // EDF then SJF on the reported remaining bytes (`total_cmp`: a
        // NaN deadline or size cannot panic the sort).
        live.sort_by(|a, b| {
            a.deadline
                .total_cmp(&b.deadline)
                .then_with(|| (a.size - a.delivered).total_cmp(&(b.size - b.delivered)))
                .then_with(|| a.flow.cmp(&b.flow))
        });
        out.extend(live.into_iter().map(|f| FlowDemand {
            id: f.flow,
            src: f.src,
            dst: f.dst,
            remaining: (f.size - f.delivered).max(1.0),
            deadline: f.deadline,
        }));
    }

    fn task_of(&self, flow: usize) -> usize {
        self.flows[&flow].task
    }

    fn weight(&self, _task: usize) -> f64 {
        1.0
    }

    fn flow_counts(&self, task: usize) -> (usize, usize) {
        let flows = self.flows.values().filter(|f| f.task == task);
        flows.fold((0, 0), |(completed, total), f| {
            let whole = f.done && f.delivered.total_cmp(&f.size).is_ge();
            (completed + usize::from(whole), total + 1)
        })
    }

    fn drop_task(&mut self, task: usize, why: DropReason) {
        match why {
            DropReason::Reject => self.stats.rejected_tasks += 1,
            DropReason::Preempt => self.stats.preempted_tasks += 1,
            DropReason::Fail => self.stats.failed_tasks += 1,
        }
        for f in self.flows.values_mut().filter(|f| f.task == task) {
            f.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_topology::build::{dumbbell, fat_tree, partial_fat_tree_testbed, GBPS};

    fn probe(
        task: usize,
        flow: usize,
        src: usize,
        dst: usize,
        size: f64,
        deadline: f64,
    ) -> ProbeHeader {
        ProbeHeader {
            task,
            flow,
            src,
            dst,
            size,
            deadline,
        }
    }

    fn cfg_unit() -> ControllerConfig {
        ControllerConfig {
            slot: 1.0,
            max_candidate_paths: 8,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn accepting_a_task_installs_entries_and_grants() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (verdict, grants, cmds) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 4.0)]);
        assert_eq!(verdict, TaskVerdict::Accepted);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].slices.total_slots(), 1);
        // Entries at both switches (host nodes get none).
        let installs = cmds
            .iter()
            .filter(|c| matches!(c, SwitchCmd::Install { .. }))
            .count();
        assert_eq!(installs, 2);
        assert_eq!(c.stats().installs, 2);
    }

    #[test]
    fn rejection_sends_no_grants_and_keeps_tables_clean() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        // Fill the bottleneck until t=4 (EDF keeps this flow first).
        c.handle_probe(0.0, &[probe(0, 0, 0, 2, 4.0 * GBPS, 4.0)]);
        // Newcomer (later deadline, lower priority) needs 2 units by t=5
        // but the link frees only at 4: its own flows miss -> rejected.
        let (verdict, grants, _cmds) = c.handle_probe(0.0, &[probe(1, 1, 1, 3, 2.0 * GBPS, 5.0)]);
        assert_eq!(verdict, TaskVerdict::Rejected);
        assert!(grants.is_empty());
        assert_eq!(c.stats().rejected_tasks, 1);
        // No stray entries for the rejected flow.
        for n in 0..topo.num_nodes() {
            assert_eq!(c.table(taps_topology::NodeId(n as u32)).forward(1), None);
        }
    }

    #[test]
    fn preemption_marks_victim_done_and_reuses_its_slots() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        // Victim barely feasible: 4 units due 4.5.
        let (v0, _, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, 4.0 * GBPS, 4.5)]);
        assert_eq!(v0, TaskVerdict::Accepted);
        c.note_progress(0, GBPS); // 1 unit delivered by t=1
        let (v1, grants, _) = c.handle_probe(1.0, &[probe(1, 1, 1, 3, GBPS, 3.0)]);
        assert_eq!(v1, TaskVerdict::AcceptedWithPreemption(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(c.stats().preempted_tasks, 1);
    }

    /// A flow whose deadline passed with no TERM has already missed: it
    /// is expired rather than re-packed, so it is no newcomer's victim.
    #[test]
    fn expired_flows_are_not_preemption_victims() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (v0, _, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, 2.0 * GBPS, 3.0)]);
        assert_eq!(v0, TaskVerdict::Accepted);
        // No progress report and no TERM: at t=4 the registry still
        // holds flow 0 with 2 units left, past its deadline.
        let (v1, grants, _) = c.handle_probe(4.0, &[probe(1, 1, 1, 3, GBPS, 10.0)]);
        assert_eq!(v1, TaskVerdict::Accepted);
        assert_eq!(c.stats().preempted_tasks, 0);
        assert_eq!(grants[0].slices.min_start(), Some(4), "the link is free");
        assert!(c.checkpoint().flows[0].done, "flow 0 expired");
    }

    #[test]
    fn term_withdraws_entries() {
        let topo = partial_fat_tree_testbed(GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (_, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 4, GBPS, 8.0)]);
        let path_len = grants[0].path.links.len();
        // Inter-pod path: 6 links, 5 of them leave a switch... host->edge
        // leaves the host, so 5 switch entries.
        assert_eq!(path_len, 6);
        let cmds = c.handle_term(8.0, 0);
        assert_eq!(cmds.len(), 5);
        assert_eq!(c.stats().withdrawals, 5);
        for n in 0..topo.num_nodes() {
            assert_eq!(c.table(taps_topology::NodeId(n as u32)).forward(0), None);
        }
    }

    #[test]
    fn control_rtt_delays_the_first_slice() {
        let topo = dumbbell(2, 2, GBPS);
        let mut fast = Controller::new(&topo, cfg_unit());
        let (_, grants, _) = fast.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 10.0)]);
        assert_eq!(grants[0].slices.min_start(), Some(0));

        let mut slow = Controller::new(
            &topo,
            ControllerConfig {
                control_rtt: 2.5, // 2.5 slots of signalling latency
                ..cfg_unit()
            },
        );
        let (_, grants, _) = slow.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 10.0)]);
        assert_eq!(
            grants[0].slices.min_start(),
            Some(3),
            "first slice waits for the RTT"
        );
    }

    /// A switch-to-switch cable on the granted path (failing an access
    /// link would disconnect a host instead of testing re-routing).
    fn cable_on_path(topo: &Topology, grant: &FlowGrant) -> taps_topology::LinkId {
        *grant
            .path
            .links
            .iter()
            .find(|l| {
                let lk = topo.link(**l);
                topo.node(lk.src).kind.is_switch() && topo.node(lk.dst).kind.is_switch()
            })
            .expect("inter-pod path crosses the fabric")
    }

    #[test]
    fn link_down_reroutes_inflight_flow() {
        let topo = fat_tree(4, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (v, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 12, 4.0 * GBPS, 10.0)]);
        assert_eq!(v, TaskVerdict::Accepted);
        let dead = cable_on_path(&topo, &grants[0]);
        c.note_progress(0, GBPS); // one slot delivered by t=1
        let (grants, cmds) = c.handle_link_event(1.0, LinkEvent::LinkDown { link: dead });
        assert_eq!(c.stats().link_faults, 1);
        assert_eq!(c.stats().failed_tasks, 0);
        let g = grants.iter().find(|g| g.flow == 0).expect("flow regranted");
        assert!(
            !g.path.links.contains(&dead),
            "new route avoids the dead link"
        );
        assert!(!cmds.is_empty(), "switch tables reprogrammed");
        topo.reset_faults();
    }

    #[test]
    fn recovery_latency_delays_the_repacked_schedule() {
        let topo = fat_tree(4, GBPS);
        let mut c = Controller::new(
            &topo,
            ControllerConfig {
                recovery_latency: 2.0,
                ..cfg_unit()
            },
        );
        let (_, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 12, 4.0 * GBPS, 20.0)]);
        let dead = cable_on_path(&topo, &grants[0]);
        let (grants, _) = c.handle_link_event(1.0, LinkEvent::LinkDown { link: dead });
        let g = grants.iter().find(|g| g.flow == 0).expect("flow regranted");
        assert!(
            g.slices.min_start() >= Some(3),
            "repacked schedule waits out fault detection + recomputation: {:?}",
            g.slices.min_start()
        );
        topo.reset_faults();
    }

    #[test]
    fn disconnection_fails_task_and_rejects_probes_until_repair() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (_, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, 2.0 * GBPS, 6.0)]);
        let cross = grants[0].path.links[1];
        let (grants, _) = c.handle_link_event(0.5, LinkEvent::LinkDown { link: cross });
        assert_eq!(c.stats().failed_tasks, 1);
        assert!(
            grants.iter().all(|g| g.flow != 0),
            "dead flow is not regranted"
        );
        // Its table entries are withdrawn with the rest of the stale set.
        for n in 0..topo.num_nodes() {
            assert_eq!(c.table(taps_topology::NodeId(n as u32)).forward(0), None);
        }
        // A probe while the fabric is cut is rejected outright.
        let (v, g2, _) = c.handle_probe(1.0, &[probe(1, 1, 1, 3, GBPS, 9.0)]);
        assert_eq!(v, TaskVerdict::Rejected);
        assert!(g2.is_empty());
        // After repair new tasks are admitted again.
        let _ = c.handle_link_event(2.0, LinkEvent::LinkUp { link: cross });
        let (v, _, _) = c.handle_probe(2.0, &[probe(2, 2, 1, 3, GBPS, 9.0)]);
        assert_eq!(v, TaskVerdict::Accepted);
        assert_eq!(c.stats().link_faults, 2);
        topo.reset_faults();
    }

    #[test]
    fn budget_exhaustion_is_counted_not_fatal() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(
            &topo,
            ControllerConfig {
                slot: 1.0,
                table_budget: 1,
                table_capacity: 2,
                ..ControllerConfig::default()
            },
        );
        c.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 10.0)]);
        // A second flow through the same switches cannot install.
        let (v, grants, _) = c.handle_probe(0.0, &[probe(1, 1, 1, 3, GBPS, 10.0)]);
        assert_eq!(v, TaskVerdict::Accepted);
        assert_eq!(grants.len(), 1, "grant still issued (default routing)");
        assert!(c.stats().budget_drops > 0);
    }

    /// A same-window probe burst admitted in one pass matches sequential
    /// handling: verdicts, grants, and the final switch tables.
    #[test]
    fn probe_burst_matches_sequential() {
        let topo = dumbbell(4, 4, GBPS);
        let bursts: Vec<Vec<ProbeHeader>> = vec![
            vec![probe(0, 0, 0, 4, GBPS, 8.0), probe(0, 1, 1, 5, GBPS, 8.0)],
            vec![probe(1, 2, 2, 6, GBPS, 8.0)],
            vec![probe(2, 3, 3, 7, GBPS, 8.0)],
        ];
        let mut seq = Controller::new(&topo, cfg_unit());
        let mut seq_results = Vec::new();
        for g in &bursts {
            let (v, gr, _) = seq.handle_probe(0.0, g);
            seq_results.push((v, gr));
        }
        let mut bat = Controller::new(&topo, cfg_unit());
        let (bat_results, _cmds) = bat.handle_probe_burst(0.0, &bursts);
        for ((va, ga), (vb, gb)) in seq_results.iter().zip(&bat_results) {
            assert_eq!(va, vb);
            assert_eq!(ga.len(), gb.len());
            for (a, b) in ga.iter().zip(gb) {
                assert_eq!(a.flow, b.flow);
                assert_eq!(a.path, b.path);
                assert_eq!(a.slices, b.slices);
            }
        }
        assert_eq!(seq.stats().probes, bat.stats().probes);
        for n in 0..topo.num_nodes() {
            let n = taps_topology::NodeId::from_idx(n);
            assert_eq!(seq.table(n).entries_sorted(), bat.table(n).entries_sorted());
        }
    }

    /// An infeasible member makes the burst fall back to the canonical
    /// sequential path: verdicts and stats match per-task handling, and
    /// the roll-back leaves no trace of the failed one-pass attempt.
    #[test]
    fn probe_burst_falls_back_exactly() {
        let topo = dumbbell(2, 2, GBPS);
        let bursts: Vec<Vec<ProbeHeader>> = vec![
            vec![probe(0, 0, 0, 2, 4.0 * GBPS, 4.0)],
            // Lower priority; the bottleneck only frees at t=4.
            vec![probe(1, 1, 1, 3, 2.0 * GBPS, 5.0)],
        ];
        let mut seq = Controller::new(&topo, cfg_unit());
        let mut seq_results = Vec::new();
        for g in &bursts {
            let (v, gr, _) = seq.handle_probe(0.0, g);
            seq_results.push((v, gr));
        }
        let mut bat = Controller::new(&topo, cfg_unit());
        let (bat_results, _cmds) = bat.handle_probe_burst(0.0, &bursts);
        assert_eq!(bat_results[0].0, TaskVerdict::Accepted);
        assert_eq!(bat_results[1].0, TaskVerdict::Rejected);
        for ((va, ga), (vb, gb)) in seq_results.iter().zip(&bat_results) {
            assert_eq!(va, vb);
            assert_eq!(ga.len(), gb.len());
        }
        assert_eq!(seq.stats().rejected_tasks, bat.stats().rejected_tasks);
        assert_eq!(seq.stats().probes, bat.stats().probes);
        for n in 0..topo.num_nodes() {
            let n = taps_topology::NodeId::from_idx(n);
            assert_eq!(seq.table(n).entries_sorted(), bat.table(n).entries_sorted());
        }
    }
}
