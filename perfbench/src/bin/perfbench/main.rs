//! The TAPS workspace benchmark: one binary, one workload per run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--daemon-bin <path>]
//! perfbench serve --socket <path> --k <k> --ledger-out <path>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks its outputs (a failed check exits with code 1
//! and prints no result), and prints as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) split the time into an untraced and a traced half and
//! report the per-layer metrics, including the tracing overhead.
//! `serve` is the traced twin of `taps-serviced` used by traced
//! `daemon_*` runs.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! the layer → end-to-end map.

mod ctrl;
mod daemon;
mod ledger;
mod report;
mod sim;
mod stats;

use std::path::PathBuf;
use std::process::Child;
use std::sync::Mutex;

use report::{print_table, result_line, Metric, Outcome};

/// Workload names, in the order of `BENCHMARK.json`.
const WORKLOADS: [&str; 5] = [
    "sim_paper_multiflow",
    "sim_paper_singleflow",
    "ctrl_k32_burst",
    "daemon_uds",
    "daemon_uds_burst",
];

/// End-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("taps_flows_per_s", "1/s"),
    ("goal_ratio", "ratio"),
];

/// Per-layer metrics every traced run reports; a layer a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("workload.generate_s", "s"),
    ("flowsim.engine_self_s.FairSharing", "s"),
    ("flowsim.engine_self_s.D3", "s"),
    ("flowsim.engine_self_s.PDQ", "s"),
    ("flowsim.engine_self_s.Baraat", "s"),
    ("flowsim.engine_self_s.Varys", "s"),
    ("flowsim.engine_self_s.TAPS", "s"),
    ("flowsim.events.FairSharing", "count"),
    ("flowsim.events.D3", "count"),
    ("flowsim.events.PDQ", "count"),
    ("flowsim.events.Baraat", "count"),
    ("flowsim.events.Varys", "count"),
    ("flowsim.events.TAPS", "count"),
    ("baselines.FairSharing.assign_rates_s", "s"),
    ("baselines.FairSharing.assign_rates_calls", "count"),
    ("baselines.FairSharing.on_task_arrival_s", "s"),
    ("baselines.FairSharing.other_callbacks_s", "s"),
    ("baselines.D3.assign_rates_s", "s"),
    ("baselines.D3.assign_rates_calls", "count"),
    ("baselines.D3.on_task_arrival_s", "s"),
    ("baselines.D3.other_callbacks_s", "s"),
    ("baselines.PDQ.assign_rates_s", "s"),
    ("baselines.PDQ.assign_rates_calls", "count"),
    ("baselines.PDQ.on_task_arrival_s", "s"),
    ("baselines.PDQ.other_callbacks_s", "s"),
    ("baselines.Baraat.assign_rates_s", "s"),
    ("baselines.Baraat.assign_rates_calls", "count"),
    ("baselines.Baraat.on_task_arrival_s", "s"),
    ("baselines.Baraat.other_callbacks_s", "s"),
    ("baselines.Varys.assign_rates_s", "s"),
    ("baselines.Varys.assign_rates_calls", "count"),
    ("baselines.Varys.on_task_arrival_s", "s"),
    ("baselines.Varys.other_callbacks_s", "s"),
    ("core.taps.assign_rates_s", "s"),
    ("core.taps.assign_rates_calls", "count"),
    ("core.taps.on_task_arrival_s", "s"),
    ("core.taps.other_callbacks_s", "s"),
    ("core.taps.admits", "count"),
    ("core.taps.rejects", "count"),
    ("core.taps.preempts", "count"),
    ("core.allocate_batch_delta_s", "s"),
    ("core.check_schedule_s", "s"),
    ("core.delta.reused_flows", "count"),
    ("core.delta.searched_flows", "count"),
    ("core.delta.full_fallbacks", "count"),
    ("core.delta.reuse_ratio", "ratio"),
    ("sdn.handle_probe_burst_s", "s"),
    ("sdn.self_s", "s"),
    ("sdn.handle_term_s", "s"),
    ("sdn.note_progress_s", "s"),
    ("sdn.installs", "count"),
    ("sdn.withdrawals", "count"),
    ("sdn.rejected_tasks", "count"),
    ("sdn.preempted_tasks", "count"),
    ("sdn.inflight_flows", "count"),
    ("service.step_s", "s"),
    ("service.idle_s", "s"),
    ("service.transport_poll_s", "s"),
    ("service.transport_push_s", "s"),
    ("service.batch_mode_share", "ratio"),
    ("service.pending_depth_max", "count"),
    ("service.shed_total", "count"),
    ("service.decided_total", "count"),
    ("service.encode_line_us", "us"),
    ("service.decode_line_us", "us"),
    ("service.submit_bytes", "bytes"),
    ("obs.sink_overhead_ratio", "ratio"),
    ("obs.events_recorded", "count"),
    ("obs.events_dropped", "count"),
    ("obs.replay_validate_s", "s"),
    ("obs.jsonl_roundtrip_s", "s"),
    ("bench.harness_s", "s"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.failed_ratio", "ratio"),
    ("bench.tracing_overhead_ratio", "ratio"),
    ("bench.traced_wall_s", "s"),
];

/// Child processes (daemons) that must not outlive a failed run.
static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Registers a child so that a failed check stops it; returns its pid.
pub fn adopt(child: Child) -> u32 {
    let pid = child.id();
    CHILDREN
        .lock()
        .expect("child registry poisoned by a panic")
        .push(child);
    pid
}

/// Takes a registered child back to wait for it normally.
pub fn disown(pid: u32) -> Child {
    let mut children = CHILDREN.lock().expect("child registry poisoned by a panic");
    let i = children
        .iter()
        .position(|c| c.id() == pid)
        .expect("pid was adopted");
    children.swap_remove(i)
}

/// Kills and reaps every registered child.
fn stop_children() {
    let mut children = match CHILDREN.lock() {
        Ok(c) => c,
        Err(poisoned) => poisoned.into_inner(),
    };
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
    children.clear();
}

/// Reports a failed output check, stops any daemon, and exits without a
/// result line.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: check failed: {msg}");
    stop_children();
    std::process::exit(1);
}

/// Where traced runs write their span ledgers.
pub fn ledger_path(tag: &str) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("spans-{tag}-{}.txt", std::process::id()))
}

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required<T: std::str::FromStr>(args: &[String], key: &str) -> T {
    let v = arg(args, key).unwrap_or_else(|| usage(&format!("missing {key}")));
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{key}: cannot parse {v:?}")))
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--daemon-bin <path>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Orders `got` as `expected`, filling layers a workload did not touch
/// with 0; a metric missing from `expected` is a benchmark bug.
fn canonical(expected: &[(&str, &'static str)], got: Vec<Metric>, fill: bool) -> Vec<Metric> {
    for m in &got {
        if !expected.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
            fail(&format!("metric {} [{}] is not declared", m.name, m.unit));
        }
        if !m.value.is_finite() {
            fail(&format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    expected
        .iter()
        .map(|(name, unit)| match got.iter().find(|m| m.name == *name) {
            Some(m) => m.clone(),
            None if fill => Metric {
                name: (*name).into(),
                value: 0.0,
                unit,
            },
            None => fail(&format!("metric {name} was not measured")),
        })
        .collect()
}

fn main() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        stop_children();
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        daemon::serve(
            &arg(&args, "--socket").unwrap_or_else(|| usage("serve needs --socket")),
            required(&args, "--k"),
            &PathBuf::from(
                arg(&args, "--ledger-out").unwrap_or_else(|| usage("serve needs --ledger-out")),
            ),
        );
        return;
    }
    let workload: String = required(&args, "--workload");
    let seed: u64 = required(&args, "--seed");
    let seconds: u64 = required(&args, "--seconds");
    let trace = match required::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    if seconds == 0 {
        usage("--seconds must be positive");
    }
    let seconds = seconds as f64;
    let daemon_bin = || {
        PathBuf::from(
            arg(&args, "--daemon-bin")
                .unwrap_or_else(|| usage("daemon workloads need --daemon-bin")),
        )
    };
    let out: Outcome = match workload.as_str() {
        "sim_paper_multiflow" => sim::run(sim::Point::MultiFlow, seed, seconds, trace),
        "sim_paper_singleflow" => sim::run(sim::Point::SingleFlow, seed, seconds, trace),
        "ctrl_k32_burst" => ctrl::run(seed, seconds, trace),
        "daemon_uds" => daemon::run(daemon::Phase::Low, &daemon_bin(), seed, seconds, trace),
        "daemon_uds_burst" => {
            daemon::run(daemon::Phase::Burst, &daemon_bin(), seed, seconds, trace)
        }
        other => usage(&format!("unknown workload {other}")),
    };
    if out.attempted == 0 {
        fail("the run attempted nothing");
    }

    let mut layers = out.per_layer;
    layers.push(Metric {
        name: "bench.failed_ratio".into(),
        value: out.failed as f64 / out.attempted as f64,
        unit: "ratio",
    });
    print_table(
        &format!("{workload} seed {seed}: workload numbers"),
        &out.info,
    );
    let e2e = canonical(&END_TO_END, out.end_to_end, false);
    print_table("end-to-end metrics", &e2e);
    let metrics = if trace {
        let layers = canonical(PER_LAYER, layers, true);
        print_table("per-layer metrics", &layers);
        layers
    } else {
        e2e
    };
    println!("{}", result_line(out.attempted, out.failed, &metrics));
}
