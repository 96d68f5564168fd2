//! `daemon_uds` and `daemon_uds_burst`: a fresh `taps-serviced --k 8`
//! child per run, driven over one Unix-socket connection by an
//! open-loop client: one process, one thread sending, one reading.
//!
//! The client replays a seeded §V-A stream (4±1 flows per task, uniform
//! endpoints over the 128 hosts, 40 ms deadlines on the daemon's clock):
//! as a Poisson process below the per-task knee (300 tasks/s), or in
//! bursts that each overload the per-task loop and are admitted in
//! batch mode. Each submission is sent when due, whatever the daemon
//! does, and its latency runs from that due time to its decision. The
//! client never sleeps a fixed time: its sending thread sleeps until
//! the next due send, and its reading thread blocks on the socket.
//! Traffic crosses the host's loopback, not a link.
//!
//! A fresh daemon per run matters: the service answers a repeated task
//! id from its decision cache, so a second client run against the same
//! daemon would only replay old verdicts. Every run ends with a drain,
//! and the daemon must log its `drained … checkpoint` line on exit.
//!
//! Traced runs spend their second half against [`serve`], a twin of
//! `taps-serviced` that runs the same loop with a timing `Transport`
//! decorator around `UdsTransport` and timed `ServiceController::step`
//! calls, and writes its spans and counters when it exits.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{ChildStderr, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taps_flowsim::Workload;
use taps_sdn::ControllerConfig;
use taps_service::{
    decode_line, encode_line, verdict, ClientId, PushError, Request, Response, ServiceConfig,
    ServiceController, ServiceState, Transport, UdsTransport,
};
use taps_topology::build::{fat_tree, GBPS};
use taps_workload::WorkloadConfig;

use crate::fail;
use crate::ledger::{Ledger, ROOT};
use crate::report::Outcome;
use crate::stats::{median, percentile, windowed_tail, TAIL_WINDOWS};

const K: usize = 8;
const HOSTS: usize = 128;
const DEADLINE: f64 = 0.040;
const SETUP_REPEATS: usize = 3;
/// How long the client waits for outstanding decisions after the last
/// send, and for the daemon to exit after the drain request.
const GRACE: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// 300 tasks/s: below the per-task knee, decided one per loop turn.
    Low,
    /// 1 500 tasks/s in bursts of [`BURST`] submissions sent at once:
    /// every burst overloads the per-task loop and is admitted in batch
    /// mode, while the mean rate stays below the batch capacity.
    Burst,
}

/// Submissions per burst of [`Phase::Burst`]: above the service's
/// batch-mode entry depth (32), below its largest batch (64).
const BURST: usize = 40;

impl Phase {
    fn rate(self) -> f64 {
        match self {
            Phase::Low => 300.0,
            Phase::Burst => 400.0,
        }
    }
}

/// The submissions of one run and the instant each falls due, in
/// seconds after the client starts sending. Low-rate submissions arrive
/// as a Poisson process; bursts do, and all submissions of a burst are
/// due together.
fn schedule(seed: u64, phase: Phase, seconds: f64) -> (Workload, Vec<f64>) {
    let mut cfg = WorkloadConfig::paper_single_rooted(HOSTS, seed);
    cfg.num_tasks = (phase.rate() * seconds).round().max(1.0) as usize;
    cfg.mean_flows_per_task = 4.0;
    cfg.sd_flows_per_task = 1.0;
    cfg.arrival_rate = phase.rate();
    let wl = cfg.generate();
    let due = match phase {
        Phase::Low => wl.tasks.iter().map(|t| t.arrival).collect(),
        Phase::Burst => (0..wl.num_tasks())
            .map(|i| (i / BURST + 1) as f64 * BURST as f64 / phase.rate())
            .collect(),
    };
    (wl, due)
}

/// A daemon child and the client's connection to it.
struct Daemon {
    /// Pid of the adopted child (see [`crate::adopt`]).
    pid: u32,
    stderr: ChildStderr,
    stream: UnixStream,
    socket: PathBuf,
    /// `daemon_now - client_elapsed` from the Stats handshake.
    skew: f64,
    start: Instant,
    rdbuf: Vec<u8>,
    /// Time spent decoding response lines and their count, when timed.
    decode_s: Option<(f64, u64)>,
    /// Where a traced twin leaves its counters.
    metrics_out: Option<PathBuf>,
}

fn socket_path(tag: &str) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("d{}-{tag}.sock", std::process::id()))
}

/// Spawns a daemon and completes the clock-sync handshake.
fn spawn(bin: &Path, tag: &str, twin: bool) -> Daemon {
    let socket = socket_path(tag);
    if let Some(dir) = socket.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("cannot create {dir:?}: {e}")));
    }
    let _ = std::fs::remove_file(&socket);
    let mut cmd = if twin {
        let me = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
        let mut c = Command::new(me);
        c.arg("serve");
        c
    } else {
        Command::new(bin)
    };
    cmd.arg("--socket")
        .arg(&socket)
        .arg("--k")
        .arg(K.to_string());
    let metrics_out = twin.then(|| crate::ledger_path(&format!("serve-{tag}")));
    if let Some(p) = &metrics_out {
        cmd.arg("--ledger-out").arg(p);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot start the daemon {}: {e}", bin.display())));
    let stderr = child.stderr.take().expect("stderr is piped");
    let pid = crate::adopt(child);
    let t = Instant::now();
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(_) if t.elapsed() < GRACE => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => fail(&format!(
                "daemon socket {} never came up: {e}",
                socket.display()
            )),
        }
    };
    let mut d = Daemon {
        pid,
        stderr,
        stream,
        socket,
        skew: 0.0,
        start: Instant::now(),
        rdbuf: Vec::new(),
        decode_s: None,
        metrics_out,
    };
    d.send(&Request::Stats);
    let stats = loop {
        match d.read_lines(Some(GRACE)).into_iter().next() {
            Some((Response::Stats { metrics }, _)) => break metrics,
            Some((other, _)) => fail(&format!("unexpected handshake reply {other:?}")),
            None if d.now() < GRACE.as_secs_f64() => {}
            None => fail("the daemon did not answer the Stats handshake"),
        }
    };
    let daemon_now = stats.get("now").and_then(|v| v.as_f64()).unwrap_or(0.0);
    d.skew = daemon_now - d.start.elapsed().as_secs_f64();
    d
}

impl Daemon {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn send(&mut self, req: &Request) -> usize {
        let line = encode_line(req);
        self.stream
            .write_all(line.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write to the daemon failed: {e}")));
        line.len()
    }

    /// Blocks up to `wait` (forever with `None`) for bytes, then decodes
    /// every complete line with the instant it arrived.
    fn read_lines(&mut self, wait: Option<Duration>) -> Vec<(Response, f64)> {
        let wait = wait.map(|w| w.max(Duration::from_micros(20)));
        self.stream
            .set_read_timeout(wait)
            .unwrap_or_else(|e| fail(&format!("set_read_timeout: {e}")));
        let mut buf = [0u8; 65536];
        match self.stream.read(&mut buf) {
            Ok(0) => return Vec::new(),
            Ok(n) => self.rdbuf.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => fail(&format!("read from the daemon failed: {e}")),
        }
        let at = self.now();
        let mut out = Vec::new();
        while let Some(pos) = self.rdbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rdbuf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let t = Instant::now();
            let decoded = decode_line::<Response>(&text);
            if let Some((s, n)) = &mut self.decode_s {
                *s += t.elapsed().as_secs_f64();
                *n += 1;
            }
            match decoded {
                Ok(r) => out.push((r, at)),
                Err(e) => fail(&format!("undecodable daemon line {text:?}: {e}")),
            }
        }
        out
    }

    /// Drains the daemon, waits for it to exit and checks its exit line;
    /// returns where a traced twin left its counters.
    fn shut_down(mut self) -> Option<PathBuf> {
        self.send(&Request::Drain);
        let t = Instant::now();
        // The daemon exits right after its drain; EOF on the socket.
        loop {
            let mut buf = [0u8; 4096];
            self.stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap_or_else(|e| fail(&format!("set_read_timeout: {e}")));
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
            if t.elapsed() > GRACE {
                break;
            }
        }
        let mut child = crate::disown(self.pid);
        let status = loop {
            match child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if t.elapsed() < GRACE * 2 => std::thread::sleep(Duration::from_millis(2)),
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = child.kill();
            let _ = child.wait();
            fail("the daemon did not exit after the drain request");
        }
        let mut err = String::new();
        let _ = self.stderr.read_to_string(&mut err);
        let _ = std::fs::remove_file(&self.socket);
        if !(err.contains("drained") && err.contains("checkpoint")) {
            fail(&format!(
                "the daemon exited without its drained/checkpoint line: {err:?}"
            ));
        }
        if status.is_some_and(|s| !s.success()) {
            fail(&format!("the daemon exited with {status:?}: {err}"));
        }
        self.metrics_out.take()
    }
}

/// What the client saw in one replay.
#[derive(Default)]
struct Replay {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    granted: u64,
    rejected: u64,
    shed: u64,
    errors: u64,
    undecided: u64,
    flows_kept: u64,
    flows_total: u64,
    decided_flows: u64,
    span_s: f64,
    encode_s: f64,
    decode_line_us: f64,
    submit_bytes: u64,
}

/// What the sending thread measured.
#[derive(Default)]
struct Sent {
    lags_ms: Vec<f64>,
    encode_s: f64,
    submit_bytes: u64,
}

/// Sends every submission when it falls due: the thread sleeps until
/// the next due instant (a high-resolution sleep), never a fixed time.
#[allow(clippy::too_many_arguments)]
fn send_all(
    mut w: UnixStream,
    wl: &Workload,
    due_at: &[f64],
    t0: f64,
    skew: f64,
    start: Instant,
    time_lines: bool,
) -> Sent {
    let mut sent = Sent::default();
    for (i, &at) in due_at.iter().enumerate() {
        let due = t0 + at;
        let now = start.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let te = Instant::now();
        let line = encode_line(&Request::Submit(taps_service::load::submit_for_task(
            wl,
            i,
            due + skew + DEADLINE,
        )));
        if time_lines {
            sent.encode_s += te.elapsed().as_secs_f64();
        }
        w.write_all(line.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write to the daemon failed: {e}")));
        sent.submit_bytes += line.len() as u64;
        sent.lags_ms
            .push((start.elapsed().as_secs_f64() - due) * 1e3);
    }
    sent
}

/// Replays `wl` against `d` open-loop on one connection: one thread
/// sends, this one blocks on reads and timestamps each decision as it
/// arrives. Checks that every submission gets exactly one terminal
/// decision. (A single thread that waits with a socket read timeout
/// would run late: `SO_RCVTIMEO` counts in kernel ticks of 1–10 ms.)
fn replay(d: &mut Daemon, wl: &Workload, due: &[f64], time_lines: bool) -> Replay {
    let n = wl.num_tasks();
    let mut r = Replay::default();
    let mut decided: Vec<Option<u64>> = vec![None; n];
    let mut preempted = vec![false; n];
    let writer = d
        .stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("cannot clone the client socket: {e}")));
    let t0 = d.now() + 0.002;
    let (skew, start) = (d.skew, d.start);
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(move || send_all(writer, wl, due, t0, skew, start, time_lines));
        let mut done = 0usize;
        let mut last_progress = d.now();
        if time_lines {
            d.decode_s = Some((0.0, 0));
        }
        while done < n {
            let lines = d.read_lines(Some(Duration::from_millis(50)));
            if lines.is_empty() {
                if sender.is_finished() && d.now() - last_progress > GRACE.as_secs_f64() {
                    break;
                }
                continue;
            }
            last_progress = d.now();
            for (resp, at) in lines {
                match resp {
                    Response::Decision {
                        task,
                        verdict: v,
                        reason,
                        ..
                    } => {
                        let i = usize::try_from(task).unwrap_or(usize::MAX);
                        if i >= n {
                            fail(&format!("decision for unknown task {task}"));
                        }
                        if decided[i].is_some() {
                            fail(&format!("task {task} got a second terminal decision"));
                        }
                        decided[i] = Some(v);
                        done += 1;
                        r.latencies_ms.push((at - t0 - due[i]) * 1e3);
                        r.decided_flows += wl.tasks[i].num_flows() as u64;
                        r.span_s = at - t0;
                        match v {
                            verdict::GRANTED | verdict::GRANTED_PREEMPTING => r.granted += 1,
                            _ if reason.is_none_or(|c| c == taps_obs::reason::INFEASIBLE) => {
                                r.rejected += 1
                            }
                            _ => r.shed += 1,
                        }
                    }
                    Response::Preempted { task } => {
                        let i = usize::try_from(task).unwrap_or(usize::MAX);
                        let granted = i < n
                            && matches!(
                                decided[i],
                                Some(verdict::GRANTED | verdict::GRANTED_PREEMPTING)
                            );
                        if !granted {
                            fail(&format!(
                                "preemption notice for task {task}, which was not granted"
                            ));
                        }
                        preempted[i] = true;
                    }
                    Response::Error { .. } => r.errors += 1,
                    other => fail(&format!("unexpected daemon message {other:?}")),
                }
            }
        }
        r.undecided = (n - done) as u64;
        sender.join().expect("the sending thread panicked")
    });
    let (decode_s, decoded) = d.decode_s.take().unwrap_or_default();
    r.decode_line_us = decode_s / decoded.max(1) as f64 * 1e6;
    r.lags_ms = sent.lags_ms;
    r.encode_s = sent.encode_s;
    r.submit_bytes = sent.submit_bytes;
    for (i, t) in wl.tasks.iter().enumerate() {
        r.flows_total += t.num_flows() as u64;
        if matches!(
            decided[i],
            Some(verdict::GRANTED | verdict::GRANTED_PREEMPTING)
        ) && !preempted[i]
        {
            r.flows_kept += t.num_flows() as u64;
        }
    }
    r.granted -= preempted.iter().filter(|&&p| p).count() as u64;
    r
}

pub fn run(phase: Phase, bin: &Path, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let plain_s = if trace { seconds / 2.0 } else { seconds };

    // Set-up: the submission schedule, the daemon spawn and the
    // clock-sync handshake, SETUP_REPEATS times; the last daemon serves.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (wl, due) = schedule(seed, phase, plain_s);
        gen_s.push(t0.elapsed().as_secs_f64());
        let d = spawn(bin, &format!("s{i}"), false);
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            d.shut_down();
        } else {
            kept = Some((d, wl, due));
        }
    }
    let (mut d, wl, due) = kept.expect("SETUP_REPEATS > 0");
    let plain = replay(&mut d, &wl, &due, false);
    d.shut_down();

    let n = wl.num_tasks() as u64;
    out.attempted = n;
    out.failed = plain.shed + plain.errors + plain.undecided;
    // The decisions of one burst come from one batch call: a burst is
    // one independent sample, and two windows keep a p90 per window.
    let (tail_p, tail) = match phase {
        Phase::Low => windowed_tail(&plain.latencies_ms, TAIL_WINDOWS, 1),
        Phase::Burst => windowed_tail(&plain.latencies_ms, 2, BURST),
    };
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("p50_ms", median(&plain.latencies_ms), "ms");
    out.e2e("tail_ms", tail, "ms");
    out.e2e(
        "taps_flows_per_s",
        plain.decided_flows as f64 / plain.span_s,
        "1/s",
    );
    out.e2e(
        "goal_ratio",
        plain.flows_kept as f64 / plain.flows_total as f64,
        "ratio",
    );

    let prefix = match phase {
        Phase::Low => "decision",
        Phase::Burst => "burst",
    };
    let tail_name = format!("{prefix}_p{:.0}_ms", tail_p * 100.0);
    out.info("submissions", n as f64, "count");
    out.info("offered_per_s", phase.rate(), "1/s");
    out.info(
        &format!("{prefix}_p50_ms"),
        median(&plain.latencies_ms),
        "ms",
    );
    out.info(&tail_name, tail, "ms");
    out.info("admit_ratio", plain.granted as f64 / n as f64, "ratio");
    out.info("granted_never_preempted", plain.granted as f64, "count");
    out.info("rejected", plain.rejected as f64, "count");
    out.info("shed", plain.shed as f64, "count");
    out.info("errors", plain.errors as f64, "count");
    out.info("undecided", plain.undecided as f64, "count");
    out.info(
        "generator_lag_p99_ms",
        percentile(&plain.lags_ms, 0.99),
        "ms",
    );
    let q = plain.latencies_ms.len() / 4;
    out.info(
        "p50_first_quarter_ms",
        median(&plain.latencies_ms[..q]),
        "ms",
    );
    out.info(
        "p50_last_quarter_ms",
        median(&plain.latencies_ms[3 * q..]),
        "ms",
    );

    if trace {
        let (wl, due) = schedule(seed, phase, seconds - plain_s);
        let mut d = spawn(bin, "traced", true);
        let traced = replay(&mut d, &wl, &due, true);
        let metrics = d.shut_down();
        let lines = wl.num_tasks() as f64;
        let served = metrics
            .map(|p| read_counters(&p.with_extension("counters")))
            .unwrap_or_default();
        for (name, value) in &served {
            let unit = if name.ends_with("_s") {
                "s"
            } else if name.ends_with("_share") || name.ends_with("_ratio") {
                "ratio"
            } else {
                "count"
            };
            out.layer(name, *value, unit);
        }
        out.layer("workload.generate_s", median(&gen_s), "s");
        out.layer(
            "service.encode_line_us",
            traced.encode_s / lines * 1e6,
            "us",
        );
        out.layer("service.decode_line_us", traced.decode_line_us, "us");
        out.layer(
            "service.submit_bytes",
            traced.submit_bytes as f64 / lines,
            "bytes",
        );
        out.layer(
            "bench.generator_lag_ms",
            percentile(&traced.lags_ms, 0.99),
            "ms",
        );
        out.layer(
            "bench.tracing_overhead_ratio",
            median(&traced.latencies_ms) / median(&plain.latencies_ms) - 1.0,
            "ratio",
        );
    }
    out
}

fn read_counters(path: &Path) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read the twin's counters {path:?}: {e}")));
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Timing decorator around the daemon's transport.
struct TimedTransport<'l, T> {
    inner: T,
    ledger: &'l mut Ledger,
    poll: u32,
    push: u32,
    parent: u32,
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn poll(&mut self) -> Vec<(ClientId, Request)> {
        let t = Instant::now();
        let r = self.inner.poll();
        self.ledger
            .record_between(self.poll, self.parent, t, Instant::now());
        r
    }

    fn push(&mut self, client: ClientId, resp: Response) -> Result<(), PushError> {
        let t = Instant::now();
        let r = self.inner.push(client, resp);
        self.ledger
            .record_between(self.push, self.parent, t, Instant::now());
        r
    }
}

/// The traced twin of `taps-serviced`: the same topology, service
/// configuration, trace ring and loop (step, drain check, 1 ms sleep),
/// with every step, transport call and sleep kept as a span.
pub fn serve(socket: &str, k: usize, out: &Path) {
    let t = Instant::now();
    let topo = fat_tree(k, GBPS);
    let build_s = t.elapsed().as_secs_f64();
    let mut svc =
        ServiceController::new(&topo, ControllerConfig::default(), ServiceConfig::default());
    let recorder = Arc::new(taps_obs::RingRecorder::new());
    svc.set_trace_sink(recorder.clone());
    let uds = UdsTransport::bind(socket).unwrap_or_else(|e| {
        eprintln!("perfbench serve: cannot bind {socket}: {e}");
        std::process::exit(1);
    });
    let mut ledger = Ledger::new();
    let step_key = ledger.key("service.step");
    let idle_key = ledger.key("service.idle");
    let loop_key = ledger.key("service.loop");
    let poll = ledger.key("service.transport_poll");
    let push = ledger.key("service.transport_push");
    let mut tr = TimedTransport {
        inner: uds,
        ledger: &mut ledger,
        poll,
        push,
        parent: ROOT,
    };
    let (mut decided, mut batch_decided, mut depth_max) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let loop_span = tr.ledger.open(loop_key, ROOT);
    loop {
        let now = start.elapsed().as_secs_f64();
        let step = tr.ledger.open(step_key, loop_span);
        tr.parent = step;
        let n = svc.step(now, &mut tr) as u64;
        tr.ledger.close(step);
        decided += n;
        if svc.is_batch_mode() {
            batch_decided += n;
        }
        depth_max = depth_max.max(svc.pending_depth() as u64 + n);
        if svc.state() == ServiceState::Draining && svc.pending_depth() == 0 {
            tr.parent = loop_span;
            let (ckpt, end) = svc.drain(now, &mut tr);
            eprintln!(
                "perfbench serve: drained at t={end:.3}s — checkpoint epoch {} gen {} with {} flows, \
                 {} trace events recorded",
                ckpt.epoch,
                ckpt.gen,
                ckpt.flows.len(),
                recorder.len()
            );
            break;
        }
        let idle = tr.ledger.open(idle_key, loop_span);
        std::thread::sleep(Duration::from_millis(1));
        tr.ledger.close(idle);
    }
    tr.ledger.close(loop_span);
    let layers = ledger.layers();
    let get = |k: &str| layers.get(k).copied().unwrap_or_default();
    let stats = svc.controller().stats();
    let counters: Vec<(&str, f64)> = vec![
        ("topology.build_s", build_s),
        ("service.step_s", get("service.step").total_s),
        ("service.idle_s", get("service.idle").total_s),
        (
            "service.transport_poll_s",
            get("service.transport_poll").total_s,
        ),
        (
            "service.transport_push_s",
            get("service.transport_push").total_s,
        ),
        ("bench.harness_s", get("service.loop").self_s),
        ("bench.traced_wall_s", get("service.loop").total_s),
        (
            "service.batch_mode_share",
            batch_decided as f64 / decided.max(1) as f64,
        ),
        ("service.pending_depth_max", depth_max as f64),
        ("service.shed_total", svc.shed_total() as f64),
        ("service.decided_total", svc.decided_total() as f64),
        ("sdn.installs", stats.installs as f64),
        ("sdn.withdrawals", stats.withdrawals as f64),
        ("sdn.rejected_tasks", stats.rejected_tasks as f64),
        ("sdn.preempted_tasks", stats.preempted_tasks as f64),
        ("obs.events_recorded", recorder.len() as f64),
        ("obs.events_dropped", recorder.dropped() as f64),
    ];
    let text: String = counters
        .iter()
        .map(|(k, v)| format!("{k} {v:?}\n"))
        .collect();
    let written = ledger
        .write(out)
        .and_then(|()| std::fs::write(out.with_extension("counters"), text));
    if let Err(e) = written {
        eprintln!("perfbench serve: cannot write {out:?}: {e}");
        std::process::exit(1);
    }
}
