//! Property-based tests for the cost simulation: packing feasibility,
//! container conservation, monotone improvement, catalog minimality and
//! CSV round-trips.

extern crate nestless_cloudsim as cloudsim;

use cloudsim::trace::TraceStream;
use cloudsim::{
    cheapest_fitting, hostlo_improve, kube_schedule, parse_csv, synthetic_trace, FreeCapIndex,
    PlacePolicy, Res, Trace, TraceContainer, TracePod, TraceUser, LARGEST, M5_CATALOG,
};
use proptest::prelude::*;

/// Containers sized so that any pod of up to 6 always fits the largest
/// model (96 vCPU / 384 GiB).
fn arb_container() -> impl Strategy<Value = TraceContainer> {
    (100u64..16_000, 64u64..65_536).prop_map(|(cpu_m, mem_mib)| TraceContainer {
        res: Res::new(cpu_m, mem_mib),
    })
}

fn arb_pod() -> impl Strategy<Value = TracePod> {
    prop::collection::vec(arb_container(), 1..6).prop_map(|containers| TracePod { containers })
}

fn arb_user() -> impl Strategy<Value = TraceUser> {
    prop::collection::vec(arb_pod(), 1..12).prop_map(|pods| TraceUser { id: 0, pods })
}

proptest! {
    /// The baseline always produces a feasible placement holding every
    /// container, with every pod intact on a single VM.
    #[test]
    fn kube_schedule_is_feasible_and_whole_pod(user in arb_user()) {
        let total: usize = user.pods.iter().map(|p| p.containers.len()).sum();
        let placement = kube_schedule(&user);
        prop_assert!(placement.is_feasible());
        prop_assert_eq!(placement.container_count(), total);
        // Whole-pod: all containers of a pod share one VM.
        for (pod_idx, _) in user.pods.iter().enumerate() {
            let homes: Vec<usize> = placement
                .vms
                .iter()
                .enumerate()
                .filter(|(_, v)| v.containers().iter().any(|&(p, _, _)| p == pod_idx))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(homes.len(), 1, "pod {} split by the baseline", pod_idx);
        }
    }

    /// The Hostlo pass never raises cost, never loses a container, and
    /// stays feasible.
    #[test]
    fn hostlo_improves_monotonically(user in arb_user()) {
        let base = kube_schedule(&user);
        let improved = hostlo_improve(base.clone());
        prop_assert!(improved.cost_per_h() <= base.cost_per_h() + 1e-9);
        prop_assert_eq!(improved.container_count(), base.container_count());
        prop_assert!(improved.is_feasible());
        // The improvement is idempotent at its fixed point.
        let again = hostlo_improve(improved.clone());
        prop_assert!((again.cost_per_h() - improved.cost_per_h()).abs() < 1e-9);
    }

    /// `cheapest_fitting` returns the minimum-price feasible model.
    #[test]
    fn cheapest_fitting_is_minimal(cpu in 1u64..100_000, mem in 1u64..400_000) {
        let req = Res::new(cpu, mem);
        match cheapest_fitting(req) {
            Some(m) => {
                prop_assert!(req.fits_in(m.capacity()));
                for other in &M5_CATALOG {
                    if req.fits_in(other.capacity()) {
                        prop_assert!(m.price_per_h <= other.price_per_h);
                    }
                }
            }
            None => prop_assert!(!req.fits_in(LARGEST.capacity())),
        }
    }

    /// Resource algebra: addition then subtraction round-trips, and
    /// `fits_in` is monotone under growth of the capacity.
    #[test]
    fn res_algebra(a_cpu in 0u64..1_000_000, a_mem in 0u64..1_000_000, b_cpu in 0u64..1_000_000, b_mem in 0u64..1_000_000) {
        let a = Res::new(a_cpu, a_mem);
        let b = Res::new(b_cpu, b_mem);
        prop_assert_eq!((a + b) - b, a);
        prop_assert!(a.fits_in(a + b));
        prop_assert_eq!(a.saturating_sub(a), Res::ZERO);
    }

    /// The streaming generator is bit-identical to the materialized
    /// trace for any `(users, seed)`: same users, same order.
    #[test]
    fn streaming_equals_materialized(users in 1usize..60, seed in 0u64..1_000) {
        let t = synthetic_trace(users, seed);
        let streamed: Vec<TraceUser> = TraceStream::new(users, seed).collect();
        prop_assert_eq!(t.users, streamed);
    }

    /// Under arbitrary insert/remove/update churn the incremental index
    /// (a) picks exactly what the exhaustive scan picks for every policy
    /// and (b) never yields an infeasible placement.
    #[test]
    fn index_matches_naive_under_churn(
        ops in prop::collection::vec((0u8..4, 0u64..8_000, 0u64..32_000), 1..80),
        req_cpu in 0u64..10_000,
        req_mem in 0u64..40_000,
    ) {
        const POLICIES: [PlacePolicy; 3] =
            [PlacePolicy::MostRequested, PlacePolicy::BinPack, PlacePolicy::Spread];
        let mut idx = FreeCapIndex::new();
        let mut live: Vec<u32> = Vec::new();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            match op {
                0 => live.push(idx.insert(Res::new(a, b), Res::ZERO)),
                1 => live.push(idx.insert(Res::new(a, b), Res::new(a / 2, b / 3))),
                2 if !live.is_empty() => {
                    let i = (a as usize) % live.len();
                    idx.remove(live.swap_remove(i));
                }
                _ if !live.is_empty() => {
                    let id = live[(a as usize) % live.len()];
                    let cap = idx.cap(id);
                    idx.update_used(id, Res::new(b % (cap.cpu_m + 1), (a ^ b) % (cap.mem_mib + 1)));
                }
                _ => live.push(idx.insert(Res::new(b, a), Res::ZERO)),
            }
            // Vary the probe per step so queries hit many regimes.
            let req = Res::new(req_cpu.rotate_left(step as u32) % 10_000, req_mem % (b + 1));
            for p in POLICIES {
                let fast = idx.pick(req, p);
                let slow = idx.pick_naive(req, p);
                prop_assert_eq!(fast, slow, "step {} policy {:?}", step, p);
                if let Some(id) = fast {
                    prop_assert!(
                        req.fits_in(idx.cap(id).saturating_sub(idx.used(id))),
                        "infeasible pick at step {}", step
                    );
                }
            }
        }
    }

    /// A trace serialized to CSV parses back identically.
    #[test]
    fn csv_roundtrip(users in prop::collection::vec(arb_user(), 1..6)) {
        let trace = Trace {
            users: users
                .into_iter()
                .enumerate()
                .map(|(i, mut u)| {
                    u.id = i as u32;
                    u
                })
                .collect(),
        };
        let mut csv = String::from("user,pod,container,cpu_rel,mem_rel\n");
        for u in &trace.users {
            for (pi, p) in u.pods.iter().enumerate() {
                for (ci, c) in p.containers.iter().enumerate() {
                    // Relative encoding as in the Google traces.
                    let cpu_rel = c.res.cpu_m as f64 / 96_000.0;
                    let mem_rel = c.res.mem_mib as f64 / 393_216.0;
                    csv.push_str(&format!("{},{},{},{:.9},{:.9}\n", u.id, pi, ci, cpu_rel, mem_rel));
                }
            }
        }
        let parsed = parse_csv(&csv).unwrap();
        prop_assert_eq!(parsed.users.len(), trace.users.len());
        for (a, b) in parsed.users.iter().zip(&trace.users) {
            prop_assert_eq!(a.pods.len(), b.pods.len());
            for (pa, pb) in a.pods.iter().zip(&b.pods) {
                prop_assert_eq!(pa.containers.len(), pb.containers.len());
                for (ca, cb) in pa.containers.iter().zip(&pb.containers) {
                    // Rounding through the relative encoding is ±1 unit.
                    prop_assert!((ca.res.cpu_m as i64 - cb.res.cpu_m as i64).abs() <= 1);
                    prop_assert!((ca.res.mem_mib as i64 - cb.res.mem_mib as i64).abs() <= 1);
                }
            }
        }
    }
}
