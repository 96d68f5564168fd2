//! Differential test: the simulator scheduler and the SDN controller
//! decide identically on identical input.
//!
//! Both run Alg. 1 through the one admission core
//! (`taps_core::admission`), but each feeds it its own view of the
//! network: `Taps` reads the simulator's flow states, the controller its
//! probe registry with the progress the senders report. Every
//! scenario-matrix cell (all families × both pinned seeds, the same
//! presets the `cargo xtask scenarios` gate pins) runs once through
//! `Taps` in `Simulation` and once through the closed-loop testbed at
//! zero control RTT, on the same 16-host single-rooted tree, and the
//! `(task, verdict)` sequences must match.
//!
//! The controller admits with every weight at 1.0, because probes carry
//! no weight. The weighted cells still agree because their arrivals
//! never reach a Rule 3 comparison (exactly one harmed in-flight task),
//! so they do not exercise weights in the controller.

use taps::prelude::*;
use taps_sdn::{run_testbed, ControllerConfig, TaskVerdict};
use taps_workload::{matrix_presets, MATRIX_SEEDS};

#[test]
fn simulator_and_controller_agree_on_every_matrix_cell() {
    let topo = single_rooted(2, 2, 4, GBPS);
    let mut cells = 0;
    for seed in MATRIX_SEEDS {
        for (family, cfg) in matrix_presets(seed) {
            let wl = cfg.generate().expect("matrix presets are valid");
            let mut taps = Taps::new();
            Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
            let sim: Vec<(usize, TaskVerdict)> = taps
                .decisions()
                .iter()
                .map(|(t, d)| (*t, TaskVerdict::from(d.clone())))
                .collect();

            let horizon = wl.tasks.iter().map(|t| t.deadline).fold(0.0, f64::max) + 0.001;
            let sdn = run_testbed(&topo, &wl, ControllerConfig::default(), horizon).verdicts;

            assert_eq!(
                sim.len(),
                wl.num_tasks(),
                "{family}/{seed}: every task decided"
            );
            assert_eq!(
                sim, sdn,
                "{family}/{seed}: simulator vs controller verdicts"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 14);
}
