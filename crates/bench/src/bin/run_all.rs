//! Runs every figure and ablation binary's logic in sequence by invoking
//! the sibling binaries; writes all `results/*.json` artifacts. Each
//! paper cell runs once: a binary writes every figure its runs describe.
//!
//! `cargo run -p nestless-bench --release --bin run_all`

use std::process::Command;

const BINS: [&str; 18] = [
    "fig04_brfusion_micro",
    "fig05_brfusion_macro",
    "fig08_boot_time",
    "fig09_cost_savings",
    "fig10_hostlo_micro",
    "fig11_hostlo_memcached",
    "fig13_hostlo_nginx",
    "ablation_stage_count",
    "ablation_vhost",
    "ablation_batching",
    "ablation_hostlo_fanout",
    "ablation_sched_policy",
    "ablation_ring_size",
    "table_substrate_inventory",
    "pathfinder",
    "ext_online_costs",
    "ext_shaped_pod",
    "topology_dot",
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let dir = self_path.parent().expect("bin dir");
    let mut failures = Vec::new();
    for bin in BINS {
        println!("\n######## {bin} ########");
        let status = Command::new(dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("[{bin} failed: {other:?}]");
                failures.push(bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll figures regenerated; see results/*.json");
    } else {
        eprintln!("\nFailed: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::BINS;

    /// Binaries outside the suite: the perf-gate scenarios, the demos
    /// (each checked against its own committed artifacts) and this one.
    const NOT_IN_SUITE: [&str; 8] = [
        "engine_throughput",
        "engine_hybrid",
        "policy_churn",
        "cloudsim_hyperscale",
        "flight_demo",
        "chaos_demo",
        "telemetry_demo",
        "run_all",
    ];

    #[test]
    fn bins_are_every_figure_binary() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut found: Vec<String> = std::fs::read_dir(dir)
            .expect("src/bin lists")
            .map(|e| e.expect("src/bin entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| !NOT_IN_SUITE.contains(&stem.as_str()))
            .collect();
        found.sort_unstable();
        let mut bins = BINS.to_vec();
        bins.sort_unstable();
        assert_eq!(found, bins);
    }
}
