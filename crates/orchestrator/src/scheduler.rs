//! Pod schedulers.
//!
//! Vanilla Kubernetes "only implements single-VM pod deployments:
//! containers belonging to the same pod must be deployed inside the same
//! VM" (§1). [`MostRequestedScheduler`] implements that whole-pod policy
//! with the "most requested" priority the paper simulates against (§5.3.1).
//! The [`Scheduler`] trait also admits per-container placements, which is
//! what Hostlo's cross-VM scheduler (in the `nestless` crate) returns.

use crate::node::{Node, NodeId};
use crate::pod::PodSpec;
use std::fmt;

/// Placement decision: one node per container (whole-pod schedulers repeat
/// the same node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `assignments[i]` is the node for `pod.containers[i]`.
    pub assignments: Vec<NodeId>,
}

impl Placement {
    /// Distinct nodes used, in first-seen order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for &n in &self.assignments {
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        seen
    }

    /// True when the whole pod landed on one node.
    pub fn is_single_node(&self) -> bool {
        self.nodes().len() == 1
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedError {
    /// Human-readable cause.
    pub reason: String,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unschedulable: {}", self.reason)
    }
}

impl std::error::Error for SchedError {}

/// A pod scheduler.
pub trait Scheduler {
    /// Chooses nodes for a pod's containers. Must not mutate the nodes;
    /// the control plane commits allocations after a successful placement.
    fn place(&self, pod: &PodSpec, nodes: &[Node]) -> Result<Placement, SchedError>;
}

/// Whole-pod scheduling with Kubernetes's "most requested" priority: among
/// nodes with room for the entire pod, pick the one that would be fullest —
/// a grouping strategy (§5.3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MostRequestedScheduler;

impl Scheduler for MostRequestedScheduler {
    fn place(&self, pod: &PodSpec, nodes: &[Node]) -> Result<Placement, SchedError> {
        let total = pod.total_resources();
        let best = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.fits(total))
            .max_by(|(_, a), (_, b)| {
                a.requested_fraction_with(total)
                    .partial_cmp(&b.requested_fraction_with(total))
                    .expect("fractions are finite")
            });
        match best {
            Some((idx, _)) => Ok(Placement {
                assignments: vec![NodeId(idx); pod.containers.len()],
            }),
            None => Err(SchedError {
                reason: format!(
                    "no node fits pod {} ({} mCPU, {} MiB)",
                    pod.name, total.cpu_millis, total.memory_mib
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contd::{ContainerSpec, ResourceRequest};
    use vmm::{VmId, VmSpec};

    fn nodes() -> Vec<Node> {
        (0..3)
            .map(|i| Node::from_vm(VmId(i), &VmSpec::paper_eval(format!("vm{i}"))))
            .collect()
    }

    fn pod(cpu: u64, mem: u64) -> PodSpec {
        PodSpec::new(
            "p",
            vec![ContainerSpec::new("c", "img:1").with_resources(ResourceRequest::new(cpu, mem))],
        )
    }

    #[test]
    fn picks_fullest_fitting_node() {
        let mut ns = nodes();
        ns[1].allocate(ResourceRequest::new(3000, 2048)); // fullest with room
        ns[2].allocate(ResourceRequest::new(4500, 3584)); // too full for the pod
        let p = pod(1000, 512);
        let placement = MostRequestedScheduler.place(&p, &ns).unwrap();
        assert_eq!(placement.assignments, vec![NodeId(1)]);
        assert!(placement.is_single_node());
    }

    #[test]
    fn whole_pod_must_fit_one_node() {
        // Two containers of 3000 mCPU each: 6000 total never fits a 5000
        // node, even though each half would.
        let p = PodSpec::new(
            "big",
            vec![
                ContainerSpec::new("a", "i:1").with_resources(ResourceRequest::new(3000, 512)),
                ContainerSpec::new("b", "i:1").with_resources(ResourceRequest::new(3000, 512)),
            ],
        );
        let err = MostRequestedScheduler.place(&p, &nodes()).unwrap_err();
        assert!(err.reason.contains("no node fits"));
    }

    #[test]
    fn empty_cluster_unschedulable() {
        let p = pod(100, 100);
        assert!(MostRequestedScheduler.place(&p, &[]).is_err());
    }

    #[test]
    fn placement_node_helpers() {
        let pl = Placement {
            assignments: vec![NodeId(2), NodeId(0), NodeId(2)],
        };
        assert_eq!(pl.nodes(), vec![NodeId(2), NodeId(0)]);
        assert!(!pl.is_single_node());
    }
}
