//! The two schedulers compared in §5.3.1.
//!
//! The baseline replays what Kubernetes-on-VMs does today:
//!
//! 1. "a user's pods are scheduled offline, biggest first;
//! 2. try to schedule the whole pod on the already bought VM that best
//!    fits (most requested policy), otherwise
//! 3. buy a new VM to host the whole pod, of the size that best fits
//!    (the cheapest one that can host the pod)."
//!
//! The Hostlo pass then "improves this scheduling by moving containers to
//! the VMs that have the most wasted resources, smallest containers first,
//! in the hope of eliminating the waste and reducing the number of needed
//! VMs or shrinking the sizes of VMs — thus reducing costs."

use crate::catalog::{cheapest_fitting, VmModel};
use crate::resources::Res;
use crate::trace::TraceUser;

/// A container owned by a VM in a placement: `(pod index, container index,
/// request)`.
pub type PlacedContainer = (usize, usize, Res);

/// A bought VM and its assigned containers.
///
/// The total request is maintained incrementally (`used` is a running
/// sum, not a rescan), so the hot fit loops in [`kube_schedule_with`] and
/// [`hostlo_improve`] stop re-summing every container on every check.
/// Mutation goes through [`SimVm::push`] / [`SimVm::retain`] / etc. to
/// keep the cache in lockstep; `used()` debug-asserts cache == rescan.
#[derive(Debug, Clone, PartialEq)]
pub struct SimVm {
    /// Model name (resolved against the catalog).
    pub model: VmModel,
    containers: Vec<PlacedContainer>,
    used: Res,
}

impl SimVm {
    /// An empty VM of the given model.
    pub fn new(model: VmModel) -> SimVm {
        SimVm {
            model,
            containers: Vec::new(),
            used: Res::ZERO,
        }
    }

    /// A VM pre-loaded with containers (computes the running total once).
    pub fn with_containers(model: VmModel, containers: Vec<PlacedContainer>) -> SimVm {
        let used = containers.iter().map(|&(_, _, r)| r).sum();
        SimVm {
            model,
            containers,
            used,
        }
    }

    /// Containers placed on this VM.
    pub fn containers(&self) -> &[PlacedContainer] {
        &self.containers
    }

    /// Places a container, growing the running total.
    pub fn push(&mut self, pc: PlacedContainer) {
        self.used += pc.2;
        self.containers.push(pc);
    }

    /// Removes every container (the evacuation commit).
    pub fn clear(&mut self) {
        self.containers.clear();
        self.used = Res::ZERO;
    }

    /// Keeps only containers matching `keep`, re-deriving the total.
    pub fn retain(&mut self, keep: impl FnMut(&PlacedContainer) -> bool) {
        self.containers.retain(keep);
        self.used = self.containers.iter().map(|&(_, _, r)| r).sum();
    }

    /// Total requested resources (cached running sum).
    pub fn used(&self) -> Res {
        debug_assert_eq!(
            self.used,
            self.containers.iter().map(|&(_, _, r)| r).sum::<Res>(),
            "cached used total diverged from the container list"
        );
        self.used
    }

    /// Free (wasted, if never fillable) resources.
    pub fn free(&self) -> Res {
        self.model.capacity().saturating_sub(self.used())
    }

    /// The most-requested priority: mean requested fraction after
    /// hypothetically adding `req`.
    fn requested_fraction_with(&self, req: Res) -> f64 {
        let used = self.used() + req;
        let cap = self.model.capacity();
        let cpu = used.cpu_m as f64 / cap.cpu_m.max(1) as f64;
        let mem = used.mem_mib as f64 / cap.mem_mib.max(1) as f64;
        (cpu + mem) / 2.0
    }
}

/// A user's full placement: the set of bought VMs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Placement {
    /// Bought VMs.
    pub vms: Vec<SimVm>,
}

impl Placement {
    /// Hourly bill.
    pub fn cost_per_h(&self) -> f64 {
        self.vms.iter().map(|v| v.model.price_per_h).sum()
    }

    /// Total container count (conservation check).
    pub fn container_count(&self) -> usize {
        self.vms.iter().map(|v| v.containers.len()).sum()
    }

    /// Every placed container respects its VM's capacity.
    pub fn is_feasible(&self) -> bool {
        self.vms
            .iter()
            .all(|v| v.used().fits_in(v.model.capacity()))
    }
}

/// Node-selection priority used when grouping whole pods onto bought VMs
/// (ablation `ablation_sched_policy`; Kubernetes' default simulated by the
/// paper is "most requested").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingPolicy {
    /// Prefer the fullest feasible VM (Kubernetes `MostRequestedPriority`).
    MostRequested,
    /// Prefer the emptiest feasible VM (spreading).
    LeastRequested,
    /// First feasible VM in purchase order.
    FirstFit,
}

/// The Kubernetes baseline: whole pods, biggest first, most-requested
/// grouping, cheapest new VM on miss.
pub fn kube_schedule(user: &TraceUser) -> Placement {
    kube_schedule_with(user, GroupingPolicy::MostRequested)
}

/// [`kube_schedule`] with an explicit grouping policy.
pub fn kube_schedule_with(user: &TraceUser, policy: GroupingPolicy) -> Placement {
    // Biggest pods first (stable order for determinism).
    let mut order: Vec<usize> = (0..user.pods.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(user.pods[i].total().size_key()));

    let mut placement = Placement::default();
    for pod_idx in order {
        let pod = &user.pods[pod_idx];
        let total = pod.total();
        // (a) best already-bought VM under the grouping policy.
        let cmp = |a: &&mut SimVm, b: &&mut SimVm| {
            a.requested_fraction_with(total)
                .partial_cmp(&b.requested_fraction_with(total))
                .expect("fractions are finite")
        };
        let feasible = placement.vms.iter_mut().filter(|v| total.fits_in(v.free()));
        let target = match policy {
            GroupingPolicy::MostRequested => feasible.max_by(cmp),
            GroupingPolicy::LeastRequested => feasible.min_by(cmp),
            GroupingPolicy::FirstFit => feasible.into_iter().next(),
        };
        let vm = match target {
            Some(vm) => vm,
            None => {
                // (b) buy the cheapest VM hosting the whole pod.
                let model = cheapest_fitting(total)
                    .unwrap_or_else(|| panic!("pod {pod_idx} exceeds the largest model"))
                    .clone();
                placement.vms.push(SimVm::new(model));
                placement.vms.last_mut().expect("just pushed")
            }
        };
        for (cont_idx, c) in pod.containers.iter().enumerate() {
            vm.push((pod_idx, cont_idx, c.res));
        }
    }
    placement
}

/// First-fit-decreasing packing of containers into fresh VMs (each bin is
/// later shrunk to the cheapest fitting model).
fn pack_ffd(mut conts: Vec<PlacedContainer>) -> Vec<SimVm> {
    conts.sort_by_key(|&(_, _, r)| std::cmp::Reverse(r.size_key()));
    let mut vms: Vec<SimVm> = Vec::new();
    for pc in conts {
        match vms.iter_mut().find(|v| pc.2.fits_in(v.free())) {
            Some(v) => v.push(pc),
            None => {
                let model = cheapest_fitting(pc.2)
                    .expect("container exceeds the largest model")
                    .clone();
                vms.push(SimVm::with_containers(model, vec![pc]));
            }
        }
    }
    for v in &mut vms {
        if let Some(best) = cheapest_fitting(v.used()) {
            if best.price_per_h < v.model.price_per_h {
                v.model = best.clone();
            }
        }
    }
    vms
}

/// The Hostlo improvement pass over a baseline placement.
///
/// Repeats three moves to a fixed point:
/// * **shrink** — resize every VM to the cheapest model holding its load;
/// * **evacuate** — try to empty one VM by moving its containers (smallest
///   first) into the other VMs' waste (most wasted target first); commit
///   only if the entire VM empties, then drop it;
/// * **offload / split** — move the smallest containers of a VM into other
///   VMs' waste until the remainder fits a cheaper model, or re-buy one VM
///   as a set of strictly cheaper smaller VMs (the paper's §2 example:
///   one 2xlarge -> large + xlarge for a 6 vCPU pod).
pub fn hostlo_improve(mut placement: Placement) -> Placement {
    loop {
        let mut changed = false;

        // Shrink.
        for vm in &mut placement.vms {
            if let Some(best) = cheapest_fitting(vm.used()) {
                if best.price_per_h < vm.model.price_per_h {
                    vm.model = best.clone();
                    changed = true;
                }
            }
        }

        // Evacuate: try the emptiest VM first (cheapest to relocate).
        let mut order: Vec<usize> = (0..placement.vms.len()).collect();
        order.sort_by_key(|&i| placement.vms[i].used().size_key());
        let mut evacuated: Option<usize> = None;
        'victims: for &victim in &order {
            // Tentative free capacities of every other VM.
            let mut free: Vec<Res> = placement.vms.iter().map(SimVm::free).collect();
            let mut moves: Vec<(usize, PlacedContainer)> = Vec::new();
            // Smallest containers first.
            let mut conts = placement.vms[victim].containers.clone();
            conts.sort_by_key(|&(_, _, r)| r.size_key());
            for pc in conts {
                // Most-wasted feasible target first.
                let target = (0..placement.vms.len())
                    .filter(|&t| t != victim && pc.2.fits_in(free[t]))
                    .max_by_key(|&t| free[t].size_key());
                match target {
                    Some(t) => {
                        free[t] = free[t] - pc.2;
                        moves.push((t, pc));
                    }
                    None => continue 'victims,
                }
            }
            // All containers relocate: commit.
            for (t, pc) in moves {
                placement.vms[t].push(pc);
            }
            placement.vms[victim].clear();
            evacuated = Some(victim);
            break;
        }
        if let Some(victim) = evacuated {
            placement.vms.remove(victim);
            changed = true;
        }

        // Offload-to-shrink: the paper's own example (§2) — move the
        // smallest containers of a VM into other VMs' waste until the
        // remainder fits a cheaper model. Commit the shortest prefix of
        // moves that pays off.
        if !changed {
            'offload: for victim in 0..placement.vms.len() {
                let victim_price = placement.vms[victim].model.price_per_h;
                let mut free: Vec<Res> = placement.vms.iter().map(SimVm::free).collect();
                let mut conts = placement.vms[victim].containers.clone();
                conts.sort_by_key(|&(_, _, r)| r.size_key());
                let mut remaining = placement.vms[victim].used();
                let mut moves: Vec<(usize, PlacedContainer)> = Vec::new();
                for pc in conts {
                    let target = (0..placement.vms.len())
                        .filter(|&t| t != victim && pc.2.fits_in(free[t]))
                        .max_by_key(|&t| free[t].size_key());
                    let Some(t) = target else { break };
                    free[t] = free[t] - pc.2;
                    remaining = remaining - pc.2;
                    moves.push((t, pc));
                    let cheaper =
                        cheapest_fitting(remaining).filter(|m| m.price_per_h < victim_price - 1e-9);
                    if let Some(model) = cheaper {
                        // Commit this prefix of moves and shrink.
                        for &(t, pc) in &moves {
                            placement.vms[t].push(pc);
                        }
                        let moved: Vec<PlacedContainer> = moves.iter().map(|&(_, pc)| pc).collect();
                        placement.vms[victim].retain(|pc| !moved.contains(pc));
                        // A container may appear twice with identical keys;
                        // retain() above would drop duplicates together, so
                        // assert conservation instead of guessing.
                        placement.vms[victim].model = model.clone();
                        changed = true;
                        break 'offload;
                    }
                }
            }
        }

        // Split: replace one VM by a cheaper multiset of smaller VMs.
        if !changed {
            for victim in 0..placement.vms.len() {
                let repacked = pack_ffd(placement.vms[victim].containers.clone());
                let new_cost: f64 = repacked.iter().map(|v| v.model.price_per_h).sum();
                if new_cost < placement.vms[victim].model.price_per_h - 1e-9 {
                    placement.vms.remove(victim);
                    placement.vms.extend(repacked);
                    changed = true;
                    break;
                }
            }
        }

        if !changed {
            return placement;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceContainer, TracePod};

    fn pod(containers: &[(u64, u64)]) -> TracePod {
        TracePod {
            containers: containers
                .iter()
                .map(|&(c, m)| TraceContainer {
                    res: Res::new(c, m),
                })
                .collect(),
        }
    }

    fn user(pods: Vec<TracePod>) -> TraceUser {
        TraceUser { id: 0, pods }
    }

    #[test]
    fn paper_example_6vcpu_pod() {
        // §2: a pod needing 6 vCPU / 24 GiB must use a 2xlarge ($0.448/h)
        // when whole...
        let u = user(vec![pod(&[(3_000, 12 * 1024), (3_000, 12 * 1024)])]);
        let base = kube_schedule(&u);
        assert_eq!(base.vms.len(), 1);
        assert_eq!(base.vms[0].model.name, "m5.2xlarge");
        assert!((base.cost_per_h() - 0.448).abs() < 1e-9);
        assert!(base.is_feasible());
    }

    #[test]
    fn whole_pod_constraint_forces_bigger_vm_than_containers_need() {
        // Two pods of 6 vCPU each -> two 2xlarge at baseline; with Hostlo
        // the four 3-vCPU containers re-pack into 12 vCPU total, e.g. a
        // single 4xlarge at $0.896... equal here; richer cases below.
        let u = user(vec![
            pod(&[(3_000, 12 * 1024), (3_000, 12 * 1024)]),
            pod(&[(3_000, 12 * 1024), (3_000, 12 * 1024)]),
        ]);
        let base = kube_schedule(&u);
        let improved = hostlo_improve(base.clone());
        assert!(improved.cost_per_h() <= base.cost_per_h());
        assert_eq!(improved.container_count(), base.container_count());
        assert!(improved.is_feasible());
    }

    #[test]
    fn hostlo_shrinks_oversized_vms() {
        // A pod of 5 vCPU buys a 2xlarge (8 vCPU); nothing to move, but if
        // one container (2 vCPU) migrates into another VM's waste, the rest
        // (3 vCPU) fits an xlarge.
        let u = user(vec![
            pod(&[(3_000, 12_288), (2_000, 8_192)]), // 5 vCPU -> 2xlarge
            pod(&[(2_000, 8_192)]),                  // 2 vCPU -> large... exactly full
        ]);
        let base = kube_schedule(&u);
        let improved = hostlo_improve(base.clone());
        assert!(improved.cost_per_h() <= base.cost_per_h());
        assert!(improved.is_feasible());
        assert_eq!(improved.container_count(), 3);
    }

    #[test]
    fn evacuation_conserves_containers() {
        // Many small single-container pods spread over VMs with waste.
        let pods: Vec<TracePod> = (0..10).map(|_| pod(&[(500, 2_048)])).collect();
        let u = user(pods);
        let base = kube_schedule(&u);
        let improved = hostlo_improve(base.clone());
        assert_eq!(improved.container_count(), 10);
        assert!(improved.is_feasible());
        assert!(improved.vms.len() <= base.vms.len());
    }

    #[test]
    fn most_requested_groups_onto_fullest_vm() {
        // First (big) pod buys a 2xlarge with room to spare; the small pod
        // must join it rather than buy a new VM.
        let u = user(vec![pod(&[(6_000, 8_192)]), pod(&[(1_000, 1_024)])]);
        let base = kube_schedule(&u);
        assert_eq!(base.vms.len(), 1, "small pod groups onto the bought VM");
    }

    #[test]
    fn improvement_never_raises_cost() {
        let t = crate::trace::synthetic_trace(60, 3);
        for u in &t.users {
            let base = kube_schedule(u);
            let improved = hostlo_improve(base.clone());
            assert!(
                improved.cost_per_h() <= base.cost_per_h() + 1e-9,
                "user {}: {} -> {}",
                u.id,
                base.cost_per_h(),
                improved.cost_per_h()
            );
            assert_eq!(improved.container_count(), base.container_count());
            assert!(improved.is_feasible());
        }
    }
}
