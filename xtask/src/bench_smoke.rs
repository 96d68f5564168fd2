//! `cargo xtask bench-smoke` — the admission-latency regression gate.
//!
//! Runs `bench_admission` with a tiny configuration in release mode and
//! fails if the fast or delta engine is *slower* than the paper-naive
//! reference loop (`before_legacy`, timed through
//! `taps_core::oracle::reference_allocate_batch`; `speedup_p50 < 1.0`)
//! at any benchmarked fat-tree size, or if any run's schedule diverged
//! from the reference schedule. The thresholds are deliberately loose —
//! real speedups are an order of magnitude, so 1.0x only trips on a
//! genuine hot-path regression (an earlier tracing-hook regression was
//! 0.30x), never on CI machine noise.
//!
//! The paper-scale burst section (fat-tree k=32, 8 192 hosts) is gated
//! too: batched burst admission must not be slower than the per-task
//! sequential loop (`< 1.0` fails), its schedule must stay bit-identical
//! to the sequential one (`schedules_identical`), and a second run of
//! the identical configuration must reproduce the same
//! `schedule_fingerprint` — the determinism gate.

use std::path::Path;
use std::process::Command;

/// One gate violation, human-readable.
pub struct Failure {
    /// What went wrong (includes the offending k and value).
    pub what: String,
}

/// One per-size summary row for reporting.
pub struct Row {
    /// Fat-tree parameter.
    pub k: u64,
    /// Fast-engine p50 speedup over legacy.
    pub speedup_p50: f64,
    /// Delta-engine p50 speedup over legacy.
    pub speedup_p50_delta: f64,
}

/// Summary of the paper-scale burst section for reporting.
pub struct BurstRow {
    /// Fat-tree parameter (32 → 8 192 hosts).
    pub k: u64,
    /// Batched burst admission over per-task sequential, mean.
    pub speedup_batched: f64,
    /// Flow allocations committed per second of batched wall-clock.
    pub flow_allocs_per_sec: f64,
}

/// Smoke arguments shared by both invocations of the determinism pair:
/// the burst section must see byte-identical parameters or the
/// fingerprint comparison would be meaningless.
const BURST_ARGS: [&str; 4] = ["--burst-rounds", "4", "--burst-batch", "32"];

fn run_bench(
    root: &Path,
    ks: &str,
    arrivals: &str,
    out: &Path,
    metrics_out: &Path,
) -> Result<serde_json::Value, Failure> {
    let status = Command::new("cargo")
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-p",
            "taps-bench",
            "--bin",
            "bench_admission",
            "--",
            "--ks",
            ks,
            "--arrivals",
            arrivals,
            "--window",
            "6",
            "--flows",
            "4",
        ])
        .args(BURST_ARGS)
        .arg("--out")
        .arg(out)
        .arg("--metrics-out")
        .arg(metrics_out)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            return Err(Failure {
                what: format!("bench_admission exited with {s} (schedule divergence aborts)"),
            });
        }
        Err(e) => {
            return Err(Failure {
                what: format!("cannot spawn cargo: {e}"),
            });
        }
    }
    let text = std::fs::read_to_string(out).map_err(|e| Failure {
        what: format!("cannot read {}: {e}", out.display()),
    })?;
    serde_json::from_str(&text).map_err(|e| Failure {
        what: format!("cannot parse {}: {e:?}", out.display()),
    })
}

/// Runs the smoke benchmark in `root` and checks the gate. Returns the
/// summary rows and every violation (empty = green).
pub fn run(root: &Path) -> (Vec<Row>, Option<BurstRow>, Vec<Failure>) {
    let mut failures = Vec::new();
    let out_dir = root.join("target").join("bench-smoke");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return (
            Vec::new(),
            None,
            vec![Failure {
                what: format!("cannot create {}: {e}", out_dir.display()),
            }],
        );
    }
    // Tiny config: two sizes, a dozen timed arrivals, small window —
    // enough signal for an order-of-magnitude gate, ~seconds of runtime.
    let doc = match run_bench(
        root,
        "8,16",
        "12",
        &out_dir.join("BENCH_admission.json"),
        &out_dir.join("METRICS_admission.json"),
    ) {
        Ok(doc) => doc,
        Err(f) => return (Vec::new(), None, vec![f]),
    };
    let rows = check(&doc, &mut failures);
    if rows.is_empty() {
        failures.push(Failure {
            what: "bench report contains no result rows".into(),
        });
    }
    let burst = check_burst(&doc, &mut failures);
    // Determinism gate: replay the identical burst configuration (the
    // k≤16 part shrinks to a single arrival — it is not what this run
    // checks) and require the same schedule fingerprint.
    match run_bench(
        root,
        "8",
        "1",
        &out_dir.join("BENCH_admission_rerun.json"),
        &out_dir.join("METRICS_admission_rerun.json"),
    ) {
        Ok(rerun) => check_determinism(&doc, &rerun, &mut failures),
        Err(f) => failures.push(f),
    }
    (rows, burst, failures)
}

/// The paper-scale burst gate: batched admission must beat (or at worst
/// match) the per-task sequential loop, with a bit-identical schedule.
pub fn check_burst(doc: &serde_json::Value, failures: &mut Vec<Failure>) -> Option<BurstRow> {
    let Some(row) = doc.get("burst") else {
        failures.push(Failure {
            what: "bench report has no burst section".into(),
        });
        return None;
    };
    let k = row.get("k").and_then(|v| v.as_u64()).unwrap_or(0);
    let field = "speedup_batched_vs_sequential";
    let speedup_batched = match row.get(field).and_then(|v| v.as_f64()) {
        Some(s) => {
            if s < 1.0 {
                failures.push(Failure {
                    what: format!(
                        "burst k={k}: {field} {s:.2} < 1.0 (batched admission regressed)"
                    ),
                });
            }
            s
        }
        None => {
            failures.push(Failure {
                what: format!("burst k={k}: missing {field}"),
            });
            0.0
        }
    };
    if row.get("schedules_identical").and_then(|v| v.as_bool()) != Some(true) {
        failures.push(Failure {
            what: format!("burst k={k}: schedules_identical is not true"),
        });
    }
    Some(BurstRow {
        k,
        speedup_batched,
        flow_allocs_per_sec: row
            .get("flow_allocs_per_sec_batched")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
    })
}

/// The determinism gate: two runs of the identical burst configuration
/// must report the same schedule fingerprint.
pub fn check_determinism(
    a: &serde_json::Value,
    b: &serde_json::Value,
    failures: &mut Vec<Failure>,
) {
    let fp = |doc: &serde_json::Value| {
        doc.get("burst")
            .and_then(|s| s.get("schedule_fingerprint"))
            .and_then(|v| v.as_u64())
    };
    match (fp(a), fp(b)) {
        (Some(x), Some(y)) if x == y => {}
        (Some(x), Some(y)) => failures.push(Failure {
            what: format!(
                "burst determinism violated: fingerprints {x:#018x} vs {y:#018x} across reruns"
            ),
        }),
        _ => failures.push(Failure {
            what: "burst schedule_fingerprint missing from a rerun report".into(),
        }),
    }
}

/// The gate itself, separated from process plumbing for unit testing:
/// every result row must report `speedup_p50 >= 1.0` for both engines
/// and `schedules_identical: true`.
pub fn check(doc: &serde_json::Value, failures: &mut Vec<Failure>) -> Vec<Row> {
    let mut rows = Vec::new();
    let results = doc.get("results").and_then(|r| r.as_array()).unwrap_or(&[]);
    for row in results {
        let k = row.get("k").and_then(|v| v.as_u64()).unwrap_or(0);
        let mut speedup = |field: &str| -> f64 {
            match row.get(field).and_then(|v| v.as_f64()) {
                Some(s) => {
                    if s < 1.0 {
                        failures.push(Failure {
                            what: format!("k={k}: {field} {s:.2} < 1.0 (hot path regressed)"),
                        });
                    }
                    s
                }
                None => {
                    failures.push(Failure {
                        what: format!("k={k}: missing {field}"),
                    });
                    0.0
                }
            }
        };
        let speedup_p50 = speedup("speedup_p50");
        let speedup_p50_delta = speedup("speedup_p50_delta");
        if row.get("schedules_identical").and_then(|v| v.as_bool()) != Some(true) {
            failures.push(Failure {
                what: format!("k={k}: schedules_identical is not true"),
            });
        }
        rows.push(Row {
            k,
            speedup_p50,
            speedup_p50_delta,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(speedup: f64, delta: f64, identical: bool) -> serde_json::Value {
        serde_json::Value::Object(vec![(
            "results".into(),
            serde_json::Value::Array(vec![serde_json::Value::Object(vec![
                ("k".into(), serde_json::Value::UInt(8)),
                ("speedup_p50".into(), serde_json::Value::Float(speedup)),
                ("speedup_p50_delta".into(), serde_json::Value::Float(delta)),
                (
                    "schedules_identical".into(),
                    serde_json::Value::Bool(identical),
                ),
            ])]),
        )])
    }

    #[test]
    fn healthy_report_passes() {
        let mut failures = Vec::new();
        let rows = check(&doc(3.2, 12.5, true), &mut failures);
        assert_eq!(rows.len(), 1);
        assert!(failures.is_empty(), "{}", failures[0].what);
    }

    #[test]
    fn regressed_fast_path_fails() {
        let mut failures = Vec::new();
        check(&doc(0.30, 12.5, true), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_p50 0.30"));
    }

    #[test]
    fn regressed_delta_path_fails() {
        let mut failures = Vec::new();
        check(&doc(3.2, 0.9, true), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_p50_delta"));
    }

    #[test]
    fn diverged_schedule_fails() {
        let mut failures = Vec::new();
        check(&doc(3.2, 12.5, false), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("schedules_identical"));
    }

    #[test]
    fn missing_rows_or_fields_fail() {
        let mut failures = Vec::new();
        let rows = check(&serde_json::Value::Object(Vec::new()), &mut failures);
        assert!(rows.is_empty());
    }

    fn burst_doc(batched: f64, identical: bool, fp: u64) -> serde_json::Value {
        serde_json::Value::Object(vec![(
            "burst".into(),
            serde_json::Value::Object(vec![
                ("k".into(), serde_json::Value::UInt(32)),
                (
                    "speedup_batched_vs_sequential".into(),
                    serde_json::Value::Float(batched),
                ),
                (
                    "flow_allocs_per_sec_batched".into(),
                    serde_json::Value::Float(2.0e5),
                ),
                ("schedule_fingerprint".into(), serde_json::Value::UInt(fp)),
                (
                    "schedules_identical".into(),
                    serde_json::Value::Bool(identical),
                ),
            ]),
        )])
    }

    #[test]
    fn healthy_burst_row_passes() {
        let mut failures = Vec::new();
        let row = check_burst(&burst_doc(9.5, true, 7), &mut failures);
        assert!(failures.is_empty(), "{}", failures[0].what);
        let row = row.expect("row parsed");
        assert_eq!(row.k, 32);
        assert!(row.flow_allocs_per_sec > 1.0e5);
    }

    #[test]
    fn regressed_burst_speedup_fails() {
        let mut failures = Vec::new();
        check_burst(&burst_doc(0.8, true, 7), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_batched_vs_sequential"));
    }

    #[test]
    fn diverged_burst_schedule_fails() {
        let mut failures = Vec::new();
        check_burst(&burst_doc(9.5, false, 7), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("schedules_identical"));
    }

    #[test]
    fn missing_burst_section_fails() {
        let mut failures = Vec::new();
        assert!(check_burst(&serde_json::Value::Object(Vec::new()), &mut failures).is_none());
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn matching_fingerprints_pass_determinism() {
        let mut failures = Vec::new();
        check_determinism(
            &burst_doc(9.5, true, 7),
            &burst_doc(9.5, true, 7),
            &mut failures,
        );
        assert!(failures.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_fails_determinism() {
        let mut failures = Vec::new();
        check_determinism(
            &burst_doc(9.5, true, 7),
            &burst_doc(9.5, true, 8),
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("burst determinism violated"));
    }
}
