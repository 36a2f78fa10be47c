//! Watch ATraPos adapt: run TATP, switch the transaction mix mid-run, and
//! print the throughput time series together with the repartitioning events
//! (the paper's Figure 10 in miniature).
//!
//! The experiment is a declarative [`Scenario`]: a timeline of typed
//! events.  The same timeline could be loaded from a JSON file — see
//! `atrapos replay`.
//!
//! ```text
//! cargo run --release -p atrapos-bench --example adaptive_tatp
//! ```

use atrapos_core::{AdaptiveInterval, ControllerConfig};
use atrapos_engine::scenario::{Scenario, ScenarioEvent};
use atrapos_engine::{AtraposConfig, DesignSpec, ExecutorConfig, VirtualExecutor};
use atrapos_numa::{CostModel, Machine, Topology};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn};

fn main() {
    let machine = Machine::new(Topology::multisocket(4, 4), CostModel::westmere());
    let mut workload = Tatp::new(TatpConfig::scaled(20_000));
    workload.set_single(TatpTxn::UpdateSubscriberData);
    let spec = DesignSpec::atrapos_with(AtraposConfig {
        controller: ControllerConfig {
            interval: AdaptiveInterval::new(0.05, 0.4, 0.10),
            ..ControllerConfig::default()
        },
        ..AtraposConfig::default()
    });
    let design = spec.build(&machine, &workload);
    let mut ex = VirtualExecutor::new(
        machine,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: 7,
            default_interval_secs: 0.05,
            time_series_bucket_secs: 0.05,
        },
    );

    let scenario = Scenario::new("adaptive-tatp", 0.75)
        .starting_as("UpdSubData")
        .at(
            0.25,
            "GetNewDest",
            ScenarioEvent::SetWorkloadPhase {
                txn: "GetNewDest".to_string(),
            },
        )
        .at(0.5, "TATP-Mix", ScenarioEvent::SetMix);

    let outcome = ex.run_scenario(&scenario).expect("scenario runs");
    for segment in &outcome.segments {
        println!(
            "phase {:<11} throughput {:>9.0} TPS  repartitionings {}",
            segment.label, segment.stats.throughput_tps, segment.stats.repartitions
        );
        for p in &segment.stats.time_series {
            let bar = "#".repeat((p.tps / 20_000.0).round() as usize);
            println!("  t={:>5.2}s {:>9.0} TPS {bar}", p.secs, p.tps);
        }
    }
}
