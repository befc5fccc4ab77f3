//! Nodes: the VMs the orchestrator schedules onto.

use contd::ResourceRequest;
use vmm::{VmId, VmSpec};

/// Node index in the control plane's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A schedulable node (a VM registered with the control plane).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The backing VM.
    pub vm: VmId,
    /// Allocatable capacity.
    pub capacity: ResourceRequest,
    /// Currently allocated requests.
    pub allocated: ResourceRequest,
}

impl Node {
    /// Builds a node from a VM's spec (1 vCPU = 1000 millicores).
    pub fn from_vm(vm: VmId, spec: &VmSpec) -> Node {
        Node {
            vm,
            capacity: ResourceRequest::new(u64::from(spec.vcpus) * 1000, spec.memory_mib),
            allocated: ResourceRequest::default(),
        }
    }

    /// Resources still free.
    pub fn free(&self) -> ResourceRequest {
        ResourceRequest::new(
            self.capacity
                .cpu_millis
                .saturating_sub(self.allocated.cpu_millis),
            self.capacity
                .memory_mib
                .saturating_sub(self.allocated.memory_mib),
        )
    }

    /// True when `req` fits in the remaining capacity.
    pub fn fits(&self, req: ResourceRequest) -> bool {
        req.fits_in(self.free())
    }

    /// Commits an allocation.
    ///
    /// # Panics
    /// Panics if the request does not fit (callers must check first).
    pub fn allocate(&mut self, req: ResourceRequest) {
        assert!(
            self.fits(req),
            "allocation does not fit on node {:?}",
            self.vm
        );
        self.allocated = self.allocated.plus(req);
    }

    /// Frees an allocation made by [`Node::allocate`], saturating at zero.
    pub fn release(&mut self, req: ResourceRequest) {
        self.allocated = ResourceRequest::new(
            self.allocated.cpu_millis.saturating_sub(req.cpu_millis),
            self.allocated.memory_mib.saturating_sub(req.memory_mib),
        );
    }

    /// The "requested fraction" the most-requested policy maximizes:
    /// mean of CPU and memory utilization after hypothetically placing
    /// `req` (Kubernetes `MostRequestedPriority`).
    pub fn requested_fraction_with(&self, req: ResourceRequest) -> f64 {
        let cpu = (self.allocated.cpu_millis + req.cpu_millis) as f64
            / self.capacity.cpu_millis.max(1) as f64;
        let mem = (self.allocated.memory_mib + req.memory_mib) as f64
            / self.capacity.memory_mib.max(1) as f64;
        (cpu + mem) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::from_vm(VmId(0), &VmSpec::paper_eval("vm0"))
    }

    #[test]
    fn capacity_from_vm_spec() {
        let n = node();
        assert_eq!(n.capacity.cpu_millis, 5000);
        assert_eq!(n.capacity.memory_mib, 4096);
    }

    #[test]
    fn allocate_and_free() {
        let mut n = node();
        let req = ResourceRequest::new(2000, 1024);
        assert!(n.fits(req));
        n.allocate(req);
        assert_eq!(n.free().cpu_millis, 3000);
        assert_eq!(n.free().memory_mib, 3072);
        assert!(!n.fits(ResourceRequest::new(4000, 1)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn over_allocate_panics() {
        let mut n = node();
        n.allocate(ResourceRequest::new(6000, 1));
    }

    #[test]
    fn requested_fraction_grows_with_load() {
        let mut n = node();
        let req = ResourceRequest::new(1000, 1024);
        let before = n.requested_fraction_with(req);
        n.allocate(ResourceRequest::new(2000, 1024));
        let after = n.requested_fraction_with(req);
        assert!(after > before);
    }
}
