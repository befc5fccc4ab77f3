//! Pods: the orchestrator's unit of deployment.
//!
//! "We use the term pod, from Kubernetes's jargon, to refer to a
//! micro-service" (§1): a group of logically coupled containers that share
//! a localhost interface, volumes, and (pre-Hostlo) a single VM.

use contd::{ContainerSpec, ResourceRequest};

/// Pod identifier within a control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(pub u32);

/// A pod specification.
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Pod name.
    pub name: String,
    /// Member containers.
    pub containers: Vec<ContainerSpec>,
}

impl PodSpec {
    /// Builds a pod.
    pub fn new(name: impl Into<String>, containers: Vec<ContainerSpec>) -> PodSpec {
        let spec = PodSpec {
            name: name.into(),
            containers,
        };
        assert!(
            !spec.containers.is_empty(),
            "a pod has at least one container"
        );
        spec
    }

    /// Sum of the member containers' requests — what whole-pod scheduling
    /// must fit into a single VM.
    pub fn total_resources(&self) -> ResourceRequest {
        self.containers
            .iter()
            .fold(ResourceRequest::default(), |acc, c| acc.plus(c.resources))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_members() {
        let pod = PodSpec::new(
            "p",
            vec![
                ContainerSpec::new("a", "img:1").with_resources(ResourceRequest::new(1000, 512)),
                ContainerSpec::new("b", "img:1").with_resources(ResourceRequest::new(500, 256)),
            ],
        );
        let t = pod.total_resources();
        assert_eq!(t.cpu_millis, 1500);
        assert_eq!(t.memory_mib, 768);
    }

    #[test]
    #[should_panic(expected = "at least one container")]
    fn empty_pod_rejected() {
        PodSpec::new("empty", vec![]);
    }
}
