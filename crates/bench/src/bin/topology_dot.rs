//! Emit Graphviz DOT for every experiment topology (the fig. 1 diagrams,
//! generated from the live device graph). Files land in `results/`.
//!
//! ```sh
//! cargo run -p nestless-bench --release --bin topology_dot
//! dot -Tsvg results/topology_nat.dot -o nat.svg
//! ```

use nestless::topology::{build, Config};
use nestless_bench::harness::write_artifact;

fn main() {
    for config in Config::ALL {
        let tb = build(config, 1);
        let name = format!("{config:?}").to_lowercase();
        let dot = tb.vmm.network().to_dot(&format!("{config:?}"));
        let path = format!("results/topology_{name}.dot");
        write_artifact(&path, &dot);
        println!(
            "{path}: {} devices, {} links",
            tb.vmm.network().device_count(),
            tb.vmm.network().links().len()
        );
    }
}
