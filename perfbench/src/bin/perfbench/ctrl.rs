//! `ctrl_k32_burst`: the shipped burst admission path of the SDN
//! controller on `fat_tree(32)` (8 192 hosts), driven only through
//! `Controller::handle_probe_burst`.
//!
//! Bursts of 16 tasks (6 flows each, §V-A sizes, deadlines and uniform
//! endpoints) arrive as a Poisson process with a 2.5 ms mean gap. The
//! harness plays the servers with `ServerAgent`, as `taps_sdn::testbed`
//! does: agents accept grants and re-grants, transmit slot by slot,
//! report their progress before every burst (`note_progress`) and send
//! TERM on completion (`handle_term`). Without the progress reports the
//! controller re-packs bytes that were already delivered and preempts
//! tasks at trivial load.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taps_core::validate::check_schedule;
use taps_core::{DeltaCache, FlowDemand, SlotAllocator};
use taps_sdn::{Controller, ControllerConfig, FlowGrant, ProbeHeader, ServerAgent, TaskVerdict};
use taps_topology::build::{fat_tree, GBPS};
use taps_topology::Topology;
use taps_workload::{sample_exp, WorkloadConfig};

use crate::fail;
use crate::ledger::{Ledger, ROOT};
use crate::report::Outcome;
use crate::stats::{median, windowed_tail, Fnv, TAIL_WINDOWS};

const K: usize = 32;
const TASKS_PER_BURST: usize = 16;
const FLOWS_PER_TASK: f64 = 6.0;
const MEAN_BURST_GAP: f64 = 0.0025;
/// Bursts admitted during set-up, before any burst is timed: they fill
/// the path cache and bring the in-flight load to its steady level
/// (a 40 ms mean deadline is 16 bursts).
const WARMUP_BURSTS: usize = 16;
/// Timed bursts per second of `--seconds`, calibrated so that a run
/// lasts about `--seconds` on a 2-core x86-64 container.
const BURSTS_PER_S: f64 = 40.0;
const SETUP_REPEATS: usize = 3;
/// Self-test load: one task every 20 ms must be admitted without a
/// single preemption.
const SELFTEST_TASKS: usize = 40;
const SELFTEST_GAP: f64 = 0.020;

/// One task of the stream: its probe headers with relative deadlines.
struct TaskDraw {
    flows: Vec<(usize, usize, usize, f64)>, // (flow id, src, dst, size)
    rel_deadline: f64,
}

/// The seeded input: burst instants (slot-aligned) and their tasks.
struct Stream {
    bursts: Vec<(f64, Vec<usize>)>,
    tasks: Vec<TaskDraw>,
}

fn stream(
    hosts: usize,
    seed: u64,
    bursts: usize,
    per_burst: usize,
    gap: f64,
    min_deadline: f64,
    slot: f64,
) -> Stream {
    let mut cfg = WorkloadConfig::paper_multi_rooted(hosts, seed);
    cfg.num_tasks = bursts * per_burst;
    cfg.mean_flows_per_task = FLOWS_PER_TASK;
    cfg.sd_flows_per_task = 0.0;
    cfg.min_deadline = min_deadline;
    let wl = cfg.generate();
    let tasks = wl
        .tasks
        .iter()
        .map(|t| TaskDraw {
            flows: wl.flows[t.flows.clone()]
                .iter()
                .map(|f| (f.id, f.src, f.dst, f.size))
                .collect(),
            rel_deadline: t.deadline - t.arrival,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b5_7000);
    let mut t = 0.0;
    let bursts = (0..bursts)
        .map(|b| {
            t += sample_exp(&mut rng, gap);
            let at = (t / slot).ceil() * slot;
            (at, (b * per_burst..(b + 1) * per_burst).collect())
        })
        .collect();
    Stream { bursts, tasks }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Pending,
    Granted,
    Rejected,
    Preempted,
}

struct TaskState {
    fate: Fate,
    flows: Vec<usize>,
    flows_left: usize,
}

/// Timings of one stretch of bursts. With a ledger, every controller
/// call is also kept as a span under its burst's loop span.
#[derive(Default)]
struct Tally {
    burst_s: Vec<f64>,
    loop_s: Vec<f64>,
    admitted_flows: u64,
    term_s: f64,
    progress_s: f64,
    inflight: u64,
    spans: Option<Spans>,
}

struct Spans {
    ledger: Ledger,
    parent: u32,
    burst: u32,
    term: u32,
    progress: u32,
    alloc: u32,
    check: u32,
    loop_key: u32,
}

impl Spans {
    fn new() -> Spans {
        let mut ledger = Ledger::new();
        Spans {
            burst: ledger.key("sdn.handle_probe_burst"),
            term: ledger.key("sdn.handle_term"),
            progress: ledger.key("sdn.note_progress"),
            alloc: ledger.key("core.allocate_batch_delta"),
            check: ledger.key("core.check_schedule"),
            loop_key: ledger.key("bench.burst_loop"),
            parent: ROOT,
            ledger,
        }
    }
}

impl Tally {
    fn span(&mut self, key: fn(&Spans) -> u32, start: Instant, end: Instant) {
        if let Some(s) = &mut self.spans {
            let k = key(s);
            let parent = s.parent;
            s.ledger.record_between(k, parent, start, end);
        }
    }
}

/// Controller plus server emulation.
struct Emu<'t> {
    ctrl: Controller<'t>,
    slot: f64,
    line_rate: f64,
    /// Current time, a slot boundary.
    now_slot: u64,
    agents: BTreeMap<usize, ServerAgent>,
    /// Granted, unfinished, not preempted flows.
    live: BTreeMap<usize, ProbeHeader>,
    flow_task: BTreeMap<usize, usize>,
    tasks: Vec<TaskState>,
    fingerprint: Fnv,
    late_flows: u64,
}

impl<'t> Emu<'t> {
    fn new(topo: &'t Topology, ntasks: usize) -> Emu<'t> {
        let cfg = ControllerConfig::default();
        let slot = cfg.slot;
        Emu {
            ctrl: Controller::new(topo, cfg),
            slot,
            line_rate: topo.uniform_capacity().expect("fat-tree links are uniform"),
            now_slot: 0,
            agents: BTreeMap::new(),
            live: BTreeMap::new(),
            flow_task: BTreeMap::new(),
            tasks: (0..ntasks)
                .map(|_| TaskState {
                    fate: Fate::Pending,
                    flows: Vec::new(),
                    flows_left: 0,
                })
                .collect(),
            fingerprint: Fnv::default(),
            late_flows: 0,
        }
    }

    /// Transmits slot by slot up to `until_slot`; TERMs go to the
    /// controller as they happen.
    fn advance_to(&mut self, until_slot: u64, tally: &mut Tally) {
        while self.now_slot < until_slot && !self.live.is_empty() {
            let s = self.now_slot;
            // Mid-slot instant: the agent's slot index is exact.
            let mid = (s as f64 + 0.5) * self.slot;
            let end = (s + 1) as f64 * self.slot;
            let mut terms = Vec::new();
            for agent in self.agents.values_mut() {
                for m in agent.advance(mid, self.slot) {
                    if let taps_sdn::ServerMsg::Term { flow } = m {
                        terms.push((agent.host(), flow));
                    }
                }
            }
            for (host, flow) in terms {
                let t = Instant::now();
                self.ctrl.handle_term(end, flow);
                let e = Instant::now();
                tally.term_s += (e - t).as_secs_f64();
                tally.span(|s| s.term, t, e);
                self.finish(host, flow, end);
            }
            self.now_slot += 1;
        }
        self.now_slot = self.now_slot.max(until_slot);
    }

    fn finish(&mut self, host: usize, flow: usize, at: f64) {
        let h = self.live.remove(&flow).expect("TERM for a live flow");
        if at > h.deadline + 1e-9 {
            self.late_flows += 1;
        }
        self.drop_agent_flow(host, flow);
        let task = self.flow_task[&flow];
        self.tasks[task].flows_left -= 1;
    }

    fn drop_agent_flow(&mut self, host: usize, flow: usize) {
        if let Some(a) = self.agents.get_mut(&host) {
            a.drop_flow(flow);
            if a.progress_report().is_empty() {
                self.agents.remove(&host);
            }
        }
    }

    fn report_progress(&mut self, tally: &mut Tally) {
        let reports: Vec<(usize, f64)> = self
            .agents
            .values()
            .flat_map(|a| a.progress_report())
            .collect();
        let t = Instant::now();
        for (flow, delivered) in reports {
            self.ctrl.note_progress(flow, delivered);
        }
        let e = Instant::now();
        tally.progress_s += (e - t).as_secs_f64();
        tally.span(|s| s.progress, t, e);
    }

    fn grant(&mut self, now: f64, header: &ProbeHeader, g: FlowGrant) {
        let slot = self.slot;
        self.agents
            .entry(header.src)
            .or_insert_with(|| ServerAgent::new(header.src, slot))
            .accept_grant(now, header, g, self.line_rate);
    }

    /// Shadow demand window of the next burst: every live flow with its
    /// reported remaining bytes plus the burst's flows, in the
    /// controller's EDF/SJF order.
    fn demand_window(&self, groups: &[Vec<ProbeHeader>]) -> Vec<FlowDemand> {
        let mut d: Vec<FlowDemand> = self
            .live
            .values()
            .map(|h| {
                let a = &self.agents[&h.src];
                FlowDemand {
                    id: h.flow,
                    src: h.src,
                    dst: h.dst,
                    remaining: a.remaining(h.flow).max(1.0),
                    deadline: h.deadline,
                }
            })
            .chain(groups.iter().flatten().map(|h| FlowDemand {
                id: h.flow,
                src: h.src,
                dst: h.dst,
                remaining: h.size.max(1.0),
                deadline: h.deadline,
            }))
            .collect();
        d.sort_by(|a, b| {
            a.deadline
                .total_cmp(&b.deadline)
                .then_with(|| a.remaining.total_cmp(&b.remaining))
                .then_with(|| a.id.cmp(&b.id))
        });
        d
    }

    /// Admits one burst; returns the controller call's duration.
    fn burst(
        &mut self,
        at: f64,
        task_ids: &[usize],
        s: &Stream,
        tally: &mut Tally,
        shadow: Option<&mut Shadow<'_>>,
    ) -> f64 {
        let until = (at / self.slot).round() as u64;
        self.advance_to(until, tally);
        self.report_progress(tally);
        let groups: Vec<Vec<ProbeHeader>> = task_ids
            .iter()
            .map(|&task| {
                let d = &s.tasks[task];
                d.flows
                    .iter()
                    .map(|&(flow, src, dst, size)| ProbeHeader {
                        task,
                        flow,
                        src,
                        dst,
                        size,
                        deadline: at + d.rel_deadline,
                    })
                    .collect()
            })
            .collect();
        if let Some(sh) = shadow {
            let demands = self.demand_window(&groups);
            sh.replay(&demands, until, tally);
        }
        tally.inflight += self.live.len() as u64;

        let t = Instant::now();
        let (results, _cmds) = self.ctrl.handle_probe_burst(at, &groups);
        let e = Instant::now();
        tally.span(|s| s.burst, t, e);
        let dt = (e - t).as_secs_f64();

        if results.len() != groups.len() {
            fail("handle_probe_burst returned the wrong number of verdicts");
        }
        for (group, (verdict, grants)) in groups.iter().zip(results) {
            let task = group[0].task;
            let st = &mut self.tasks[task];
            st.flows = group.iter().map(|h| h.flow).collect();
            self.fingerprint.word(task as u64);
            match verdict {
                TaskVerdict::Rejected => {
                    st.fate = Fate::Rejected;
                    self.fingerprint.word(u64::MAX);
                    continue;
                }
                TaskVerdict::Accepted => {}
                TaskVerdict::AcceptedWithPreemption(victim) => {
                    self.fingerprint.word(victim as u64);
                    self.preempt(victim);
                }
            }
            if grants.len() != group.len() {
                fail(&format!(
                    "task {task} accepted with {} grants for {} flows",
                    grants.len(),
                    group.len()
                ));
            }
            let st = &mut self.tasks[task];
            st.fate = Fate::Granted;
            st.flows_left = group.len();
            tally.admitted_flows += group.len() as u64;
            for (h, g) in group.iter().zip(grants) {
                self.flow_task.insert(h.flow, task);
                self.live.insert(h.flow, h.clone());
                self.grant(at, h, g);
            }
        }
        self.regrant_and_check(at);
        dt
    }

    fn preempt(&mut self, victim: usize) {
        let st = &mut self.tasks[victim];
        if st.fate != Fate::Granted {
            fail(&format!("preempted task {victim} was not in flight"));
        }
        st.fate = Fate::Preempted;
        let flows = st.flows.clone();
        for f in flows {
            if let Some(h) = self.live.remove(&f) {
                self.drop_agent_flow(h.src, f);
            }
        }
    }

    /// Pushes the re-allocated grants of every in-flight flow to its
    /// agent, fingerprints them and checks that no link carries two
    /// flows in one slot.
    fn regrant_and_check(&mut self, now: f64) {
        let mut holders: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut grants: Vec<FlowGrant> = Vec::with_capacity(self.live.len());
        let live: Vec<ProbeHeader> = self.live.values().cloned().collect();
        for h in &live {
            let Some(g) = self.ctrl.grant_of(h.flow) else {
                fail(&format!("in-flight flow {} has no committed grant", h.flow));
            };
            for l in &g.path.links {
                holders.entry(l.idx()).or_default().push(grants.len());
            }
            self.fingerprint.word(h.flow as u64);
            for iv in g.slices.intervals() {
                self.fingerprint.word(iv.start);
                self.fingerprint.word(iv.end);
            }
            grants.push(g.clone());
            self.grant(now, h, g);
        }
        for (link, idx) in &holders {
            for (i, &a) in idx.iter().enumerate() {
                for &b in &idx[i + 1..] {
                    if grants[a].slices.intersects(&grants[b].slices) {
                        fail(&format!(
                            "link {link} double-booked by flows {} and {}",
                            grants[a].flow, grants[b].flow
                        ));
                    }
                }
            }
        }
    }

    /// Transmits until every admitted flow finished, then checks that
    /// each task granted and never preempted delivered all its flows by
    /// the deadline.
    fn finish_all(&mut self, tally: &mut Tally) {
        let last = self.live.values().map(|h| h.deadline).fold(0.0, f64::max);
        let until = (last / self.slot).ceil() as u64 + 2;
        self.advance_to(until, tally);
        if !self.live.is_empty() {
            fail(&format!(
                "{} granted flows never completed",
                self.live.len()
            ));
        }
        if self.late_flows > 0 {
            fail(&format!(
                "{} granted flows finished after their deadline",
                self.late_flows
            ));
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.fate == Fate::Granted && t.flows_left != 0 {
                fail(&format!("granted task {i} has {} flows left", t.flows_left));
            }
        }
    }
}

/// Shadow replay of each burst's demand window through the core
/// allocator (traced half only).
struct Shadow<'t> {
    topo: &'t Topology,
    alloc: SlotAllocator<'t>,
    cache: DeltaCache,
    slot: f64,
    alloc_s: f64,
    check_s: f64,
}

impl<'t> Shadow<'t> {
    fn new(topo: &'t Topology) -> Shadow<'t> {
        let cfg = ControllerConfig::default();
        Shadow {
            topo,
            alloc: SlotAllocator::new(topo, cfg.slot, cfg.max_candidate_paths),
            cache: DeltaCache::new(),
            slot: cfg.slot,
            alloc_s: 0.0,
            check_s: 0.0,
        }
    }

    fn replay(&mut self, demands: &[FlowDemand], start_slot: u64, tally: &mut Tally) {
        let t = Instant::now();
        let allocs = self
            .alloc
            .allocate_batch_delta(demands, start_slot, &mut self.cache)
            .unwrap_or_else(|e| fail(&format!("shadow allocation failed: {e:?}")));
        let e = Instant::now();
        self.alloc_s += (e - t).as_secs_f64();
        tally.span(|s| s.alloc, t, e);
        let t = Instant::now();
        let report = check_schedule(self.topo, self.slot, demands, &allocs, "shadow burst");
        let e = Instant::now();
        self.check_s += (e - t).as_secs_f64();
        tally.span(|s| s.check, t, e);
        if !report.is_clean() {
            fail(&format!("shadow schedule violates an invariant: {report}"));
        }
    }
}

/// Set-up: topology, stream and controller, then the warm-up bursts.
fn setup<'t>(topo: &'t Topology, s: &Stream) -> Emu<'t> {
    let mut emu = Emu::new(topo, s.tasks.len());
    let mut scratch = Tally::default();
    for (at, tasks) in &s.bursts[..WARMUP_BURSTS] {
        emu.burst(*at, tasks, s, &mut scratch, None);
    }
    emu
}

/// One task every 20 ms, each accepted with no preemption: the server
/// emulation and progress reports keep the controller's view exact.
fn self_test(topo: &Topology, seed: u64) {
    let slot = ControllerConfig::default().slot;
    let s = stream(
        topo.num_hosts(),
        seed ^ 0x5e1f,
        SELFTEST_TASKS,
        1,
        SELFTEST_GAP,
        0.010,
        slot,
    );
    let mut emu = Emu::new(topo, s.tasks.len());
    let mut tally = Tally::default();
    for (at, tasks) in &s.bursts {
        emu.burst(*at, tasks, &s, &mut tally, None);
    }
    emu.finish_all(&mut tally);
    let bad: Vec<usize> = (0..emu.tasks.len())
        .filter(|&i| emu.tasks[i].fate != Fate::Granted)
        .collect();
    if !bad.is_empty() || emu.ctrl.stats().preempted_tasks != 0 {
        fail(&format!(
            "self-test: at one task per 20 ms, tasks {bad:?} were not admitted ({} preemptions)",
            emu.ctrl.stats().preempted_tasks
        ));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let timed = ((seconds * BURSTS_PER_S).round() as usize).max(2);
    let slot = ControllerConfig::default().slot;

    let mut build_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for r in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let topo = fat_tree(K, GBPS);
        let t1 = Instant::now();
        let bursts = WARMUP_BURSTS + timed;
        let s = stream(
            topo.num_hosts(),
            seed,
            bursts,
            TASKS_PER_BURST,
            MEAN_BURST_GAP,
            0.001,
            slot,
        );
        let t2 = Instant::now();
        build_s.push((t1 - t0).as_secs_f64());
        gen_s.push((t2 - t1).as_secs_f64());
        if r + 1 < SETUP_REPEATS {
            drop(setup(&topo, &s));
            setup_s.push(t0.elapsed().as_secs_f64());
        } else {
            kept = Some((topo, s, t0));
        }
    }
    let (topo, s, t0) = kept.expect("SETUP_REPEATS > 0");
    let mut emu = setup(&topo, &s);
    setup_s.push(t0.elapsed().as_secs_f64());

    // Timed bursts; a traced run traces the second half.
    let split = if trace {
        WARMUP_BURSTS + timed / 2
    } else {
        s.bursts.len()
    };
    let mut plain = Tally::default();
    let mut traced = Tally {
        spans: Some(Spans::new()),
        ..Tally::default()
    };
    let mut shadow = Shadow::new(&topo);
    let stats0 = emu.ctrl.stats().clone();
    let mut stats_mid = stats0.clone();
    for (i, (at, tasks)) in s.bursts.iter().enumerate().skip(WARMUP_BURSTS) {
        if i == split {
            stats_mid = emu.ctrl.stats().clone();
        }
        let t = Instant::now();
        if i < split {
            let dt = emu.burst(*at, tasks, &s, &mut plain, None);
            plain.burst_s.push(dt);
            plain.loop_s.push(t.elapsed().as_secs_f64());
        } else {
            let sp = traced.spans.as_mut().expect("traced tally has spans");
            sp.parent = sp.ledger.open(sp.loop_key, ROOT);
            let dt = emu.burst(*at, tasks, &s, &mut traced, Some(&mut shadow));
            let sp = traced.spans.as_mut().expect("traced tally has spans");
            sp.ledger.close(sp.parent);
            traced.burst_s.push(dt);
            traced.loop_s.push(t.elapsed().as_secs_f64());
        }
    }
    let stats_end = emu.ctrl.stats().clone();
    emu.finish_all(&mut Tally::default());
    self_test(&topo, seed);

    // Counts over the timed bursts.
    let timed_tasks: Vec<usize> = s.bursts[WARMUP_BURSTS..]
        .iter()
        .flat_map(|(_, t)| t.iter().copied())
        .collect();
    let flows_total: usize = timed_tasks.iter().map(|&t| s.tasks[t].flows.len()).sum();
    let flows_kept: usize = timed_tasks
        .iter()
        .filter(|&&t| emu.tasks[t].fate == Fate::Granted)
        .map(|&t| s.tasks[t].flows.len())
        .sum();
    out.attempted = timed_tasks.len() as u64;
    out.failed = (stats_end.failed_tasks - stats0.failed_tasks) as u64;

    let lat: Vec<f64> = plain.burst_s.iter().map(|x| x * 1e3).collect();
    let (tail_p, tail) = windowed_tail(&lat, TAIL_WINDOWS, 1);
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("p50_ms", median(&lat), "ms");
    out.e2e("tail_ms", tail, "ms");
    out.e2e(
        "taps_flows_per_s",
        plain.admitted_flows as f64 / plain.burst_s.iter().sum::<f64>(),
        "1/s",
    );
    out.e2e(
        "goal_ratio",
        flows_kept as f64 / flows_total as f64,
        "ratio",
    );

    out.info("bursts_timed", lat.len() as f64, "count");
    out.info("burst_p50_ms", median(&lat), "ms");
    out.info(&format!("burst_p{:.0}_ms", tail_p * 100.0), tail, "ms");
    out.info(
        "admitted_flows_per_s",
        plain.admitted_flows as f64 / plain.burst_s.iter().sum::<f64>(),
        "1/s",
    );
    let kept_tasks = timed_tasks
        .iter()
        .filter(|&&t| emu.tasks[t].fate == Fate::Granted)
        .count();
    out.info(
        "admit_ratio",
        kept_tasks as f64 / timed_tasks.len() as f64,
        "ratio",
    );
    out.info(
        "preempted_tasks",
        (stats_end.preempted_tasks - stats0.preempted_tasks) as f64,
        "count",
    );
    out.info(
        "rejected_tasks",
        (stats_end.rejected_tasks - stats0.rejected_tasks) as f64,
        "count",
    );
    out.info(
        "mean_inflight_flows",
        plain.inflight as f64 / lat.len() as f64,
        "count",
    );
    println!(
        "grant-schedule fingerprint {:016x}",
        emu.fingerprint.finish()
    );

    if trace {
        let n = traced.burst_s.len() as f64;
        let burst_total: f64 = traced.burst_s.iter().sum();
        let loop_total: f64 = traced.loop_s.iter().sum();
        out.layer("topology.build_s", median(&build_s), "s");
        out.layer("workload.generate_s", median(&gen_s), "s");
        out.layer("sdn.handle_probe_burst_s", burst_total, "s");
        out.layer(
            "sdn.self_s",
            burst_total - shadow.alloc_s - shadow.check_s,
            "s",
        );
        out.layer("sdn.handle_term_s", traced.term_s, "s");
        out.layer("sdn.note_progress_s", traced.progress_s, "s");
        out.layer("core.allocate_batch_delta_s", shadow.alloc_s, "s");
        out.layer("core.check_schedule_s", shadow.check_s, "s");
        let d = shadow.cache.stats();
        out.layer("core.delta.reused_flows", d.reused_flows as f64, "count");
        out.layer(
            "core.delta.searched_flows",
            d.searched_flows as f64,
            "count",
        );
        out.layer(
            "core.delta.full_fallbacks",
            d.full_fallbacks as f64,
            "count",
        );
        let touched = d.reused_flows + d.moved_flows + d.retimed_flows + d.searched_flows;
        out.layer(
            "core.delta.reuse_ratio",
            d.reused_flows as f64 / touched.max(1) as f64,
            "ratio",
        );
        out.layer(
            "sdn.installs",
            (stats_end.installs - stats_mid.installs) as f64,
            "count",
        );
        out.layer(
            "sdn.withdrawals",
            (stats_end.withdrawals - stats_mid.withdrawals) as f64,
            "count",
        );
        out.layer(
            "sdn.rejected_tasks",
            (stats_end.rejected_tasks - stats_mid.rejected_tasks) as f64,
            "count",
        );
        out.layer(
            "sdn.preempted_tasks",
            (stats_end.preempted_tasks - stats_mid.preempted_tasks) as f64,
            "count",
        );
        out.layer("sdn.inflight_flows", traced.inflight as f64 / n, "count");
        out.layer(
            "bench.harness_s",
            loop_total
                - burst_total
                - traced.term_s
                - traced.progress_s
                - shadow.alloc_s
                - shadow.check_s,
            "s",
        );
        let plain_per = plain.loop_s.iter().sum::<f64>() / plain.loop_s.len() as f64;
        out.layer(
            "bench.tracing_overhead_ratio",
            loop_total / n / plain_per - 1.0,
            "ratio",
        );
        out.layer("bench.traced_wall_s", loop_total, "s");
        let sp = traced.spans.as_ref().expect("traced tally has spans");
        if let Err(e) = sp.ledger.write(&crate::ledger_path("ctrl")) {
            fail(&format!("cannot write the span ledger: {e}"));
        }
    }
    out
}
