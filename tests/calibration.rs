//! The claims ledger: every `Claim` row the figure binaries publish in
//! `results/fig*.json` carries its check, and these tests judge the
//! committed rows without simulating: a row's check must hold exactly when
//! the row names no deviation, so a refresh that flips a status fails until
//! the binary says why. The calibration tests pin the paper's headline
//! shapes to exactly the bounds given here, so no binary can widen one.

use nestless_bench::Check::{self, Above, Below, Within};
use nestless_bench::Claim;
use serde::Deserialize;

/// Every published figure and its claim rows, in order.
const LEDGER: [(&str, &[&str]); 13] = [
    (
        "fig02",
        &["throughput degradation @1280B", "latency increase @1280B"],
    ),
    (
        "fig04",
        &[
            "BrFusion/NAT throughput @1280B",
            "BrFusion latency reduction vs NAT @1280B",
            "BrFusion gap to NoCont (tput) @1280B",
            "NAT 1024->8192B tput growth relative to NoCont's",
            "BrFusion 1024->8192B tput growth gap to NoCont's",
        ],
    ),
    (
        "fig05",
        &[
            "Kafka: BrFusion latency improvement over NAT",
            "Kafka: BrFusion above NoCont",
            "NGINX: BrFusion latency improvement over NAT",
            "NGINX: BrFusion above NoCont",
        ],
    ),
    (
        "fig06",
        &[
            "BrFusion softirq CPU reduction vs NAT (in VM)",
            "NAT host sys (vhost) CPU",
        ],
    ),
    ("fig07", &["BrFusion softirq CPU reduction vs NAT (in VM)"]),
    ("fig08", &["fraction of runs where BrFusion boots faster"]),
    (
        "fig09",
        &[
            "fraction of users saving",
            "savers above 5%",
            "max relative saving",
            "max absolute saving",
            "relative saving of max-abs user",
        ],
    ),
    (
        "fig10",
        &[
            "Hostlo tput above NAT @1024B",
            "Hostlo tput below Overlay @1024B",
            "SameNode/Hostlo tput @1024B",
            "Hostlo latency below NAT @1024B",
            "Hostlo latency below Overlay @1024B",
            "Overlay latency above NAT @1024B",
            "Hostlo/SameNode latency @1024B",
            "Hostlo latency cv relative to max(NAT, Overlay) @1024B",
            "worst-case SameNode/Hostlo tput",
            "worst-case Hostlo/SameNode latency",
        ],
    ),
    (
        "fig11",
        &[
            "Hostlo/SameNode throughput",
            "Hostlo beats NAT (latency ratio NAT/Hostlo)",
            "Hostlo beats Overlay (latency ratio Overlay/Hostlo)",
        ],
    ),
    ("fig12", &["Hostlo/SameNode latency cv"]),
    (
        "fig13",
        &[
            "Hostlo above SameNode",
            "Hostlo latency below Overlay",
            "Hostlo latency below NAT",
        ],
    ),
    (
        "fig14",
        &[
            "Hostlo guest CPU increase vs SameNode",
            "host-kernel CPU: Hostlo vs NAT ratio",
        ],
    ),
    ("fig15", &["Hostlo guest CPU increase vs SameNode"]),
];

/// The part of a figure file the ledger reads.
#[derive(Deserialize)]
struct Published {
    claims: Vec<Claim>,
}

/// The committed `results/{id}.json`.
fn published(id: &str) -> Published {
    let path = format!("{}/../../results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_published_claim_holds_unless_it_names_a_deviation() {
    let mut wrong = Vec::new();
    for (id, rows) in LEDGER {
        let claims = published(id).claims;
        let whats: Vec<&str> = claims.iter().map(|c| c.what.as_str()).collect();
        assert_eq!(whats, rows, "{id}'s claim rows");
        for c in &claims {
            let excused = c.deviation.as_ref().is_some_and(|r| !r.trim().is_empty());
            if c.check.holds(c.measured) == excused {
                wrong.push(format!(
                    "{id} {:?}: measured {} {}, check {:?}, deviation {:?}",
                    c.what, c.measured, c.unit, c.check, c.deviation
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "a check that holds must name no deviation, and one that fails must name why:\n{}",
        wrong.join("\n")
    );
}

/// Asserts that `id`'s row `what` declares exactly `check` and meets it.
fn pin(id: &str, what: &str, check: Check) {
    let c = published(id).claims.into_iter().find(|c| c.what == what);
    let c = c.unwrap_or_else(|| panic!("{id} has no row {what:?}"));
    assert!(c.check == check && check.holds(c.measured), "{id}: {c:?}");
}

#[test]
fn fig2_nested_nat_degrades_throughput_and_latency() {
    pin("fig02", "throughput degradation @1280B", Within(45.0, 75.0));
    pin("fig02", "latency increase @1280B", Within(20.0, 45.0));
}

#[test]
fn fig4_brfusion_restores_single_level_performance() {
    pin("fig04", "BrFusion gap to NoCont (tput) @1280B", Below(3.5));
    pin("fig04", "BrFusion/NAT throughput @1280B", Within(1.8, 3.2));
    let cut = "BrFusion latency reduction vs NAT @1280B";
    pin("fig04", cut, Within(12.0, 35.0));
}

#[test]
fn fig4_nat_scales_worst_with_message_size() {
    let nat = "NAT 1024->8192B tput growth relative to NoCont's";
    pin("fig04", nat, Below(1.0));
    let brfusion = "BrFusion 1024->8192B tput growth gap to NoCont's";
    pin("fig04", brfusion, Below(15.0));
}

#[test]
fn fig6_brfusion_removes_guest_softirq_hooks() {
    // A cut of at most 85 % leaves BrFusion some softirq time.
    let cut = "BrFusion softirq CPU reduction vs NAT (in VM)";
    pin("fig06", cut, Within(50.0, 85.0));
    pin("fig07", cut, Within(50.0, 85.0));
}

#[test]
fn fig10_hostlo_order_and_stability() {
    // SameNode < Hostlo << NAT < Overlay in latency; Overlay > Hostlo > NAT in tput.
    pin("fig10", "Hostlo/SameNode latency @1024B", Within(1.5, 2.8));
    pin("fig10", "Hostlo latency below NAT @1024B", Above(75.0));
    pin("fig10", "Overlay latency above NAT @1024B", Above(0.0));
    let cv = "Hostlo latency cv relative to max(NAT, Overlay) @1024B";
    pin("fig10", cv, Below(0.3));
    pin("fig10", "Hostlo tput above NAT @1024B", Above(0.0));
    pin("fig10", "Hostlo tput below Overlay @1024B", Above(0.0));
    pin("fig10", "SameNode/Hostlo tput @1024B", Within(4.0, 7.0));
}

#[test]
fn fig11_hostlo_reaches_same_node_for_memcached() {
    pin("fig11", "Hostlo/SameNode throughput", Above(0.75));
    let nat = "Hostlo beats NAT (latency ratio NAT/Hostlo)";
    pin("fig11", nat, Above(1.0));
    pin("fig12", "Hostlo/SameNode latency cv", Below(1.0));
}

#[test]
fn host_kernel_serves_vhost_on_behalf_of_guests() {
    // §5.3.4: vhost workers run in the host kernel as `sys` time; the
    // `guest` half is `engine::tests::vm_work_mirrors_into_host_guest_bucket`.
    pin("fig06", "NAT host sys (vhost) CPU", Above(0.0));
}
