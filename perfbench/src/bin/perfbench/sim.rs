//! `sim_paper_multiflow` and `sim_paper_singleflow`: a paper-scale
//! figure point (`single_rooted(30,30,40)`, 36 000 hosts) simulated
//! under all six schedulers, one after another on one thread.
//!
//! A run simulates a sequence of chunks. Each chunk is one workload
//! drawn from a seed derived from `--seed` and the chunk index, run
//! through FairSharing, D3, PDQ, Baraat, Varys and TAPS in that order.
//! The traced half of a traced run replays the chunks of the untraced
//! half with every scheduler wrapped in [`Timed`], so the two halves
//! simulate identical inputs and their reports must agree exactly.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taps_bench::{make_scheduler, workload_single_rooted, Scale, SCHEDULER_NAMES};
use taps_core::{RejectDecision, Taps};
use taps_flowsim::{
    DeadlineAction, FaultEvent, FlowId, FlowStatus, Scheduler, SimConfig, SimCtx, SimReport,
    Simulation, TaskId, Workload,
};
use taps_obs::RingRecorder;
use taps_topology::Topology;

use crate::fail;
use crate::ledger::{Ledger, ROOT};
use crate::report::Outcome;
use crate::stats::{median, Fnv};

/// Tasks per chunk of the single-flow point. Fig. 10 runs one task per
/// host at λ = 25 × tasks/s; a chunk keeps that rate rule at 1 500 tasks.
const SINGLEFLOW_TASKS: usize = 1_500;
/// Chunks simulated per second of `--seconds`, calibrated so that a run
/// lasts about `--seconds` on a 2-core x86-64 container. The work is
/// fixed by `--seed` and `--seconds`, so two runs with the same
/// arguments simulate identical inputs.
const MULTIFLOW_CHUNKS_PER_S: f64 = 0.5;
const SINGLEFLOW_CHUNKS_PER_S: f64 = 0.22;
/// Extra TAPS-only chunks per chunk of the six-scheduler pass. TAPS
/// admits only the few multi-flow tasks whose deadline is long enough,
/// and runs a chunk in about 1/50 of the baselines' time, so its
/// completion ratio and its own wall time are measured over sixteen
/// times as many multi-flow tasks at a fifth of the run's time.
/// Single-flow chunks already hold 1 500 tasks each.
const MULTIFLOW_TAPS_EXTRA: usize = 16;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Trace ring size for the traced TAPS pass (events; 80 bytes each).
const RING_EVENTS: usize = 1 << 20;
/// Tasks of a chunk replayed with the trace ring attached. Every TAPS
/// commit re-announces the grants of all flows in flight, so a whole
/// 1 500-task single-flow chunk emits about six million events; its
/// first tasks keep the stream, and the ring, small.
const OBS_TASKS: usize = 250;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// Fig. 6 §V-A point: 1200±300 flows/task, 200 KB, 40 ms, λ = 50/s.
    MultiFlow,
    /// Fig. 10 point: single-flow 200 KB tasks at λ = 25 × tasks/s.
    SingleFlow,
}

/// The chunks of one run.
///
/// A multi-flow chunk is a pair of tasks. Its cost hinges on five
/// task-level draws: the gap between the tasks (exponential, mean
/// 1/λ = 20 ms), their deadlines (exponential, mean 40 ms) and their
/// flow counts (normal, 1200 ± 300). A short deadline cuts a task's
/// flows off after a few events and a long one lets every flow finish
/// one event at a time, so the baselines' cost per chunk swings by 10×;
/// and whether TAPS admits a task at all depends on its deadline. Runs
/// of a few dozen independently drawn chunks differ by ±30% in wall
/// time and ±50% in TAPS completions from seed to seed. The plan
/// therefore stratifies the task-level draws: chunk `j` takes them at
/// quantiles of a Latin hypercube over the run's chunks that does not
/// depend on `--seed`, so every run covers the same spread of gaps,
/// deadlines and task sizes. Flow sizes and endpoints stay random draws
/// from the chunk's seed.
struct ChunkPlan {
    point: Point,
    seed: u64,
    /// Per chunk: quantiles of the gap, the two deadlines and the two
    /// flow counts.
    strata: Vec<[f64; 5]>,
}

impl ChunkPlan {
    /// `n` chunks; `layout` picks the (seed-independent) hypercube.
    fn new(point: Point, seed: u64, n: usize, layout: u64) -> ChunkPlan {
        let mut rng = StdRng::seed_from_u64(0x1a7_1c0b ^ layout);
        let perms: Vec<Vec<usize>> = (0..5)
            .map(|_| {
                let mut p: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    p.swap(i, rng.gen_range(0..i + 1));
                }
                p
            })
            .collect();
        let strata = (0..n)
            .map(|j| [0, 1, 2, 3, 4].map(|v| (perms[v][j] as f64 + 0.5) / n as f64))
            .collect();
        ChunkPlan {
            point,
            seed,
            strata,
        }
    }

    fn len(&self) -> usize {
        self.strata.len()
    }

    fn seed_of(&self, chunk: usize) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(chunk as u64)
    }

    fn workload(&self, topo: &Topology, chunk: usize) -> Workload {
        let mut cfg = workload_single_rooted(Scale::Paper, topo, self.seed_of(chunk));
        match self.point {
            Point::MultiFlow => {
                let [g, d0, d1, n0, n1] = self.strata[chunk];
                let exp_quantile = |mean: f64, u: f64| -mean * (1.0 - u).ln();
                let gap = exp_quantile(1.0 / cfg.arrival_rate, g);
                let tasks = [(d0, n0), (d1, n1)]
                    .iter()
                    .enumerate()
                    .map(|(i, &(d, n))| {
                        let mut one = cfg.clone();
                        one.seed = cfg.seed.wrapping_mul(31).wrapping_add(i as u64);
                        one.num_tasks = 1;
                        one.mean_flows_per_task = (cfg.mean_flows_per_task
                            + cfg.sd_flows_per_task * probit(n))
                        .round()
                        .max(1.0);
                        one.sd_flows_per_task = 0.0;
                        let wl = one.generate();
                        let arrival = 0.001 + gap * i as f64;
                        let rel = exp_quantile(cfg.mean_deadline, d).max(cfg.min_deadline);
                        let flows = wl.flows.iter().map(|f| (f.src, f.dst, f.size)).collect();
                        (arrival, arrival + rel, flows)
                    })
                    .collect();
                Workload::from_tasks(tasks)
            }
            Point::SingleFlow => {
                cfg.num_tasks = SINGLEFLOW_TASKS;
                cfg.mean_flows_per_task = 1.0;
                cfg.sd_flows_per_task = 0.0;
                cfg.sd_flow_size = cfg.mean_flow_size / 4.0;
                cfg.arrival_rate = 25.0 * SINGLEFLOW_TASKS as f64;
                cfg.generate()
            }
        }
    }
}

/// Quantile function of the standard normal distribution (Acklam's
/// rational approximation, relative error below 1.2e-9).
fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        let q = (-2.0 * q.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail(p)
    } else if p > 1.0 - 0.02425 {
        -tail(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

fn sim_config() -> SimConfig {
    SimConfig {
        validate_capacity: false,
        ..SimConfig::default()
    }
}

/// FNV fingerprint of a report's flow outcomes and task successes.
fn fingerprint(r: &SimReport) -> u64 {
    let mut h = Fnv::default();
    for o in &r.flow_outcomes {
        h.word(o.flow as u64);
        h.word(match o.status {
            FlowStatus::NotArrived => 0,
            FlowStatus::Admitted => 1,
            FlowStatus::Completed => 2,
            FlowStatus::Missed => 3,
            FlowStatus::Terminated => 4,
            FlowStatus::Rejected => 5,
            FlowStatus::Discarded => 6,
        });
        h.word(o.finish.map_or(u64::MAX, f64::to_bits));
        h.word(o.delivered.to_bits());
        h.word(u64::from(o.on_time));
    }
    for &s in &r.task_success {
        h.word(u64::from(s));
    }
    h.finish()
}

/// Callback kinds timed by [`Timed`].
#[derive(Clone, Copy)]
enum Cb {
    Arrival,
    Completed,
    Deadline,
    Fault,
    AssignRates,
    NextWake,
}

const CB_NAMES: [&str; 6] = [
    "on_task_arrival",
    "on_flow_completed",
    "on_flow_deadline",
    "on_fault",
    "assign_rates",
    "next_wake",
];

/// Timing decorator around a scheduler: every callback becomes a span
/// under the enclosing `Simulation::run` span.
struct Timed<'l> {
    inner: &'l mut dyn Scheduler,
    ledger: &'l mut Ledger,
    keys: [u32; 6],
    parent: u32,
}

impl<'l> Timed<'l> {
    fn new(inner: &'l mut dyn Scheduler, ledger: &'l mut Ledger, label: &str, parent: u32) -> Self {
        let keys = CB_NAMES.map(|cb| ledger.key(&format!("{label}.{cb}")));
        Timed {
            inner,
            ledger,
            keys,
            parent,
        }
    }

    fn span<R>(&mut self, cb: Cb, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let start = self.ledger.now_ns();
        let r = f(&mut *self.inner);
        let end = self.ledger.now_ns();
        self.ledger
            .record(self.keys[cb as usize], self.parent, start, end);
        r
    }
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        self.span(Cb::Arrival, |s| s.on_task_arrival(ctx, task));
    }

    fn on_flow_completed(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) {
        self.span(Cb::Completed, |s| s.on_flow_completed(ctx, flow));
    }

    fn on_flow_deadline(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) -> DeadlineAction {
        self.span(Cb::Deadline, |s| s.on_flow_deadline(ctx, flow))
    }

    fn on_fault(&mut self, ctx: &mut SimCtx<'_>, event: &FaultEvent) {
        self.span(Cb::Fault, |s| s.on_fault(ctx, event));
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        self.span(Cb::AssignRates, |s| s.assign_rates(ctx));
    }

    fn next_wake(&mut self, now: f64) -> Option<f64> {
        self.span(Cb::NextWake, |s| s.next_wake(now))
    }
}

/// Scheduler label used in per-layer metric names.
fn label(name: &str) -> String {
    if name == "TAPS" {
        "core.taps".into()
    } else {
        format!("baselines.{name}")
    }
}

/// What one scheduler did on one chunk.
struct SchedRun {
    wall: f64,
    fingerprint: u64,
    report: SimReport,
    decisions: Vec<(TaskId, RejectDecision)>,
}

/// Runs one scheduler; with a ledger, wraps it in [`Timed`] under a
/// `flowsim.run.<name>` span.
fn run_scheduler(
    topo: &Topology,
    wl: &Workload,
    name: &str,
    ledger: Option<&mut Ledger>,
) -> SchedRun {
    let sim = Simulation::new(topo, wl, sim_config());
    let start = Instant::now();
    let (report, decisions) = match (name, ledger) {
        ("TAPS", None) => {
            let mut taps = Taps::new();
            let r = sim.run(&mut taps);
            (r, taps.decisions().to_vec())
        }
        ("TAPS", Some(l)) => {
            let run_key = l.key("flowsim.run.TAPS");
            let span = l.open(run_key, ROOT);
            let mut taps = Taps::new();
            let r = sim.run(&mut Timed::new(&mut taps, l, "core.taps", span));
            l.close(span);
            (r, taps.decisions().to_vec())
        }
        (_, None) => (sim.run(make_scheduler(name).as_mut()), Vec::new()),
        (_, Some(l)) => {
            let run_key = l.key(&format!("flowsim.run.{name}"));
            let span = l.open(run_key, ROOT);
            let mut sched = make_scheduler(name);
            let r = sim.run(&mut Timed::new(sched.as_mut(), l, &label(name), span));
            l.close(span);
            (r, Vec::new())
        }
    };
    let wall = start.elapsed().as_secs_f64();
    SchedRun {
        wall,
        fingerprint: fingerprint(&report),
        report,
        decisions,
    }
}

/// Checks every scheduler's report for completeness; returns the
/// number of tasks left indeterminate (a truncated run).
fn check_report(name: &str, wl: &Workload, run: &SchedRun) -> u64 {
    let r = &run.report;
    if r.tasks_total != wl.num_tasks() || r.flow_outcomes.len() != wl.num_flows() {
        fail(&format!(
            "{name}: report covers {} tasks / {} flows of {} / {}",
            r.tasks_total,
            r.flow_outcomes.len(),
            wl.num_tasks(),
            wl.num_flows()
        ));
    }
    if r.task_success.len() != wl.num_tasks() {
        fail(&format!("{name}: task_success has the wrong length"));
    }
    let done = r.task_success.iter().filter(|&&s| s).count();
    if done != r.tasks_completed {
        fail(&format!(
            "{name}: {} successful tasks but tasks_completed = {}",
            done, r.tasks_completed
        ));
    }
    if name == "TAPS" && run.decisions.len() != wl.num_tasks() {
        fail(&format!(
            "TAPS decided {} of {} tasks",
            run.decisions.len(),
            wl.num_tasks()
        ));
    }
    if r.truncated {
        r.tasks_indeterminate.max(1) as u64
    } else {
        r.tasks_indeterminate as u64
    }
}

/// TAPS over both passes.
struct TapsTotals {
    wall: f64,
    tasks: usize,
    flows: usize,
    tasks_done: usize,
    flows_on_time: usize,
}

/// One chunk: six schedulers, their walls and fingerprints.
struct Chunk {
    events: [u64; 6],
    tasks: usize,
    flows: usize,
    walls: [f64; 6],
    fingerprints: [u64; 6],
    taps_tasks_done: usize,
    taps_flows_on_time: usize,
    indeterminate: u64,
}

fn run_chunk(topo: &Topology, wl: &Workload, mut ledger: Option<&mut Ledger>) -> Chunk {
    let mut walls = [0.0; 6];
    let mut events = [0u64; 6];
    let mut fingerprints = [0u64; 6];
    let mut taps_tasks_done = 0;
    let mut taps_flows_on_time = 0;
    let mut indeterminate = 0;
    for (i, name) in SCHEDULER_NAMES.iter().enumerate() {
        let run = run_scheduler(topo, wl, name, ledger.as_deref_mut());
        indeterminate += check_report(name, wl, &run);
        if let Some(l) = ledger.as_deref_mut() {
            l.add(&format!("flowsim.events.{name}"), run.report.events as f64);
            if *name == "TAPS" {
                count_decisions(l, &run.decisions);
            }
        }
        walls[i] = run.wall;
        events[i] = run.report.events;
        fingerprints[i] = run.fingerprint;
        if *name == "TAPS" {
            taps_tasks_done = run.report.tasks_completed;
            taps_flows_on_time = run.report.flows_on_time;
        }
    }
    Chunk {
        events,
        tasks: wl.num_tasks(),
        flows: wl.num_flows(),
        walls,
        fingerprints,
        taps_tasks_done,
        taps_flows_on_time,
        indeterminate,
    }
}

fn count_decisions(l: &mut Ledger, decisions: &[(TaskId, RejectDecision)]) {
    for (_, d) in decisions {
        match d {
            RejectDecision::Accept => l.add("core.taps.admits", 1.0),
            RejectDecision::AcceptWithPreemption(_) => {
                l.add("core.taps.admits", 1.0);
                l.add("core.taps.preempts", 1.0);
            }
            RejectDecision::Reject => l.add("core.taps.rejects", 1.0),
        }
    }
}

/// The TAPS run with a `RingRecorder` on both the engine and the
/// scheduler, over the first [`OBS_TASKS`] tasks of a chunk: its stream
/// must replay cleanly and its outcome must equal a plain TAPS run's,
/// and its wall against the plain wall is the sink's cost.
struct ObsPass {
    wall: f64,
    recorded: u64,
    dropped: u64,
    validate_s: f64,
    roundtrip_s: f64,
    plain_wall: f64,
}

fn traced_taps(topo: &Topology, wl: &Workload) -> ObsPass {
    let wl = &Workload::from_tasks(
        wl.tasks
            .iter()
            .take(OBS_TASKS)
            .map(|t| {
                let flows = wl.flows[t.flows.clone()]
                    .iter()
                    .map(|f| (f.src, f.dst, f.size))
                    .collect();
                (t.arrival, t.deadline, flows)
            })
            .collect(),
    );
    let plain = run_scheduler(topo, wl, "TAPS", None);
    let ring = Arc::new(RingRecorder::with_capacity(RING_EVENTS));
    let mut taps = Taps::new();
    taps.set_trace_sink(ring.clone());
    let start = Instant::now();
    let report = Simulation::new(topo, wl, sim_config())
        .with_trace_sink(ring.clone())
        .run(&mut taps);
    let wall = start.elapsed().as_secs_f64();
    let dropped = ring.dropped();
    let records = ring.drain();
    if dropped > 0 {
        fail(&format!(
            "trace ring dropped {dropped} events; the TAPS stream cannot be replayed"
        ));
    }
    let t = Instant::now();
    if let Err(e) = taps_obs::replay::validate(&records) {
        fail(&format!("traced TAPS stream fails replay validation: {e}"));
    }
    let validate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let text = taps_obs::jsonl::to_jsonl(&records);
    let parsed = taps_obs::jsonl::parse_jsonl(&text)
        .unwrap_or_else(|e| fail(&format!("trace JSONL does not parse back: {e:?}")));
    let roundtrip_s = t.elapsed().as_secs_f64();
    if parsed.len() != records.len() {
        fail("trace JSONL round trip changed the event count");
    }
    if fingerprint(&report) != plain.fingerprint {
        fail("a trace sink changed the TAPS outcome");
    }
    ObsPass {
        wall,
        recorded: records.len() as u64,
        dropped,
        validate_s,
        roundtrip_s,
        plain_wall: plain.wall,
    }
}

pub fn run(point: Point, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // A traced run spends half its time untraced and half replaying the
    // same chunks traced.
    let rate = match point {
        Point::MultiFlow => MULTIFLOW_CHUNKS_PER_S,
        Point::SingleFlow => SINGLEFLOW_CHUNKS_PER_S,
    };
    let budget = if trace { seconds / 2.0 } else { seconds };
    let n = ((budget * rate).round() as usize).max(1);
    let plan = ChunkPlan::new(point, seed, n, 0);
    let extra = match point {
        Point::MultiFlow => n * MULTIFLOW_TAPS_EXTRA,
        Point::SingleFlow => 0,
    };
    let taps_plan = ChunkPlan::new(point, seed ^ 0x7a95, extra, 1);

    // Set-up: the topology and every workload of the run, built
    // SETUP_REPEATS times; the last build is kept.
    let mut build_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let topo = Scale::Paper.single_rooted_topo();
        let t1 = Instant::now();
        let point_wls: Vec<Workload> = (0..plan.len()).map(|j| plan.workload(&topo, j)).collect();
        let taps_wls: Vec<Workload> = (0..taps_plan.len())
            .map(|j| taps_plan.workload(&topo, j))
            .collect();
        let t2 = Instant::now();
        build_s.push((t1 - t0).as_secs_f64());
        gen_s.push((t2 - t1).as_secs_f64());
        setup_s.push((t2 - t0).as_secs_f64());
        kept = Some((topo, point_wls, taps_wls));
    }
    let (topo, point_wls, taps_wls) = kept.expect("SETUP_REPEATS > 0");

    let mut chunks: Vec<Chunk> = Vec::new();
    for (j, wl) in point_wls.iter().enumerate() {
        let c = run_chunk(&topo, wl, None);
        println!(
            "chunk {j} seed {}: {} tasks {} flows, events {:?}, walls {:?} s, fingerprints {:016x?}",
            plan.seed_of(j),
            c.tasks,
            c.flows,
            c.events,
            c.walls.map(|w| (w * 1e3).round() / 1e3),
            c.fingerprints
        );
        chunks.push(c);
    }

    let tasks: usize = chunks.iter().map(|c| c.tasks).sum();
    let flows: usize = chunks.iter().map(|c| c.flows).sum();
    out.attempted = (tasks * SCHEDULER_NAMES.len()) as u64;
    out.failed = chunks.iter().map(|c| c.indeterminate).sum();

    let sums: Vec<f64> = chunks.iter().map(|c| c.walls.iter().sum()).collect();
    let maxes: Vec<f64> = chunks
        .iter()
        .map(|c| c.walls.iter().copied().fold(0.0, f64::max))
        .collect();
    let mut taps_rates: Vec<f64> = chunks.iter().map(|c| c.flows as f64 / c.walls[5]).collect();
    let mut taps = TapsTotals {
        wall: chunks.iter().map(|c| c.walls[5]).sum(),
        tasks,
        flows,
        tasks_done: chunks.iter().map(|c| c.taps_tasks_done).sum(),
        flows_on_time: chunks.iter().map(|c| c.taps_flows_on_time).sum(),
    };
    for wl in &taps_wls {
        let run = run_scheduler(&topo, wl, "TAPS", None);
        out.failed += check_report("TAPS", wl, &run);
        out.attempted += wl.num_tasks() as u64;
        taps.wall += run.wall;
        taps_rates.push(wl.num_flows() as f64 / run.wall);
        taps.tasks += wl.num_tasks();
        taps.flows += wl.num_flows();
        taps.tasks_done += run.report.tasks_completed;
        taps.flows_on_time += run.report.flows_on_time;
    }

    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("p50_ms", median(&sums) * 1e3, "ms");
    out.e2e("tail_ms", median(&maxes) * 1e3, "ms");
    out.e2e("taps_flows_per_s", median(&taps_rates), "1/s");
    out.e2e(
        "goal_ratio",
        taps.flows_on_time as f64 / taps.flows as f64,
        "ratio",
    );

    out.info("chunks", chunks.len() as f64, "count");
    out.info("taps_only_chunks", taps_plan.len() as f64, "count");
    out.info("sim_wall_s", sums.iter().sum(), "s");
    out.info("taps_sim_wall_s", taps.wall, "s");
    out.info(
        "taps_task_completion",
        taps.tasks_done as f64 / taps.tasks as f64,
        "ratio",
    );
    for (i, name) in SCHEDULER_NAMES.iter().enumerate() {
        let w: f64 = chunks.iter().map(|c| c.walls[i]).sum();
        out.info(&format!("sim_wall_s.{name}"), w, "s");
    }

    if trace {
        traced_half(&mut out, &topo, &point_wls, &chunks);
        out.layer("topology.build_s", median(&build_s), "s");
        out.layer("workload.generate_s", median(&gen_s), "s");
    }
    out
}

/// Replays the untraced chunks with every scheduler under [`Timed`],
/// then runs TAPS once more with a trace ring attached.
fn traced_half(out: &mut Outcome, topo: &Topology, wls: &[Workload], plain: &[Chunk]) {
    let mut ledger = Ledger::new();
    let mut traced_wall = 0.0;
    let mut plain_wall = 0.0;
    let mut obs: Vec<ObsPass> = Vec::new();
    for (i, (c, wl)) in plain.iter().zip(wls).enumerate() {
        let t = run_chunk(topo, wl, Some(&mut ledger));
        if t.fingerprints != c.fingerprints {
            fail(&format!(
                "chunk {i}: timed schedulers changed the outcome ({:016x?} vs {:016x?})",
                t.fingerprints, c.fingerprints
            ));
        }
        traced_wall += t.walls.iter().sum::<f64>();
        plain_wall += c.walls.iter().sum::<f64>();
        obs.push(traced_taps(topo, wl));
    }
    let layers = ledger.layers();
    let get = |k: &str| layers.get(k).copied().unwrap_or_default();
    for name in SCHEDULER_NAMES {
        let lab = label(name);
        let run = get(&format!("flowsim.run.{name}"));
        out.layer(&format!("flowsim.engine_self_s.{name}"), run.self_s, "s");
        out.layer(
            &format!("flowsim.events.{name}"),
            ledger.counter(&format!("flowsim.events.{name}")),
            "count",
        );
        let ar = get(&format!("{lab}.assign_rates"));
        out.layer(&format!("{lab}.assign_rates_s"), ar.total_s, "s");
        out.layer(
            &format!("{lab}.assign_rates_calls"),
            ar.count as f64,
            "count",
        );
        let ta = get(&format!("{lab}.on_task_arrival"));
        out.layer(&format!("{lab}.on_task_arrival_s"), ta.total_s, "s");
        let other: f64 = [
            "on_flow_completed",
            "on_flow_deadline",
            "on_fault",
            "next_wake",
        ]
        .iter()
        .map(|cb| get(&format!("{lab}.{cb}")).total_s)
        .sum();
        out.layer(&format!("{lab}.other_callbacks_s"), other, "s");
    }
    for k in ["admits", "rejects", "preempts"] {
        let n = ledger.counter(&format!("core.taps.{k}"));
        out.layer(&format!("core.taps.{k}"), n, "count");
    }
    let obs_wall: f64 = obs.iter().map(|o| o.wall).sum();
    let obs_plain: f64 = obs.iter().map(|o| o.plain_wall).sum();
    out.layer(
        "obs.sink_overhead_ratio",
        obs_wall / obs_plain - 1.0,
        "ratio",
    );
    out.layer(
        "obs.events_recorded",
        obs.iter().map(|o| o.recorded).sum::<u64>() as f64,
        "count",
    );
    out.layer(
        "obs.events_dropped",
        obs.iter().map(|o| o.dropped).sum::<u64>() as f64,
        "count",
    );
    out.layer(
        "obs.replay_validate_s",
        obs.iter().map(|o| o.validate_s).sum(),
        "s",
    );
    out.layer(
        "obs.jsonl_roundtrip_s",
        obs.iter().map(|o| o.roundtrip_s).sum(),
        "s",
    );
    out.layer(
        "bench.tracing_overhead_ratio",
        traced_wall / plain_wall - 1.0,
        "ratio",
    );
    out.layer("bench.traced_wall_s", traced_wall, "s");
    if let Err(e) = ledger.write(&crate::ledger_path("sim")) {
        fail(&format!("cannot write the span ledger: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::probit;

    #[test]
    fn probit_matches_known_quantiles() {
        assert!(probit(0.5).abs() < 1e-9);
        assert!((probit(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((probit(0.01) + 2.326_347_874).abs() < 1e-6);
    }
}
