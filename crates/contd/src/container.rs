//! Containers: identity, resource requests, port mappings, lifecycle.

use simnet::nat::Proto;

/// Container identifier, engine-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u32);

/// Resources a container requests. Units follow the Google-trace convention
/// used by the cost simulation: CPU in millicores, memory in MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceRequest {
    /// CPU request in millicores (1000 = one core).
    pub cpu_millis: u64,
    /// Memory request in MiB.
    pub memory_mib: u64,
}

impl ResourceRequest {
    /// Builds a request.
    pub const fn new(cpu_millis: u64, memory_mib: u64) -> ResourceRequest {
        ResourceRequest {
            cpu_millis,
            memory_mib,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: ResourceRequest) -> ResourceRequest {
        ResourceRequest {
            cpu_millis: self.cpu_millis + other.cpu_millis,
            memory_mib: self.memory_mib + other.memory_mib,
        }
    }

    /// True when `self` fits inside `capacity`.
    pub fn fits_in(self, capacity: ResourceRequest) -> bool {
        self.cpu_millis <= capacity.cpu_millis && self.memory_mib <= capacity.memory_mib
    }
}

/// A published port (Docker `-p host:container`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortMapping {
    /// Protocol.
    pub proto: Proto,
    /// Port on the node (VM) address.
    pub host_port: u16,
    /// Port inside the container.
    pub container_port: u16,
}

/// Container lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Created, network not yet configured.
    Created,
    /// Running.
    Running,
    /// Exited.
    Exited,
}

/// What the user asks the engine to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerSpec {
    /// Container name.
    pub name: String,
    /// Image reference.
    pub image: String,
    /// Resource request.
    pub resources: ResourceRequest,
    /// Published ports.
    pub ports: Vec<PortMapping>,
}

impl ContainerSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, image: impl Into<String>) -> ContainerSpec {
        ContainerSpec {
            name: name.into(),
            image: image.into(),
            resources: ResourceRequest::default(),
            ports: Vec::new(),
        }
    }

    /// Sets resources.
    pub fn with_resources(mut self, r: ResourceRequest) -> ContainerSpec {
        self.resources = r;
        self
    }

    /// Publishes a port.
    pub fn with_port(mut self, proto: Proto, host_port: u16, container_port: u16) -> ContainerSpec {
        self.ports.push(PortMapping {
            proto,
            host_port,
            container_port,
        });
        self
    }
}

/// A container known to the engine.
#[derive(Debug, Clone)]
pub struct Container {
    /// Identity.
    pub id: ContainerId,
    /// Requested spec.
    pub spec: ContainerSpec,
    /// Lifecycle state.
    pub state: ContainerState,
    /// Container IP inside the node's container subnet (bridge/overlay
    /// drivers; `None` for host networking).
    pub ip: Option<simnet::Ip4>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_fit() {
        let small = ResourceRequest::new(500, 256);
        let big = ResourceRequest::new(2000, 4096);
        assert!(small.fits_in(big));
        assert!(!big.fits_in(small));
        let sum = small.plus(big);
        assert_eq!(sum.cpu_millis, 2500);
        assert_eq!(sum.memory_mib, 4352);
    }

    #[test]
    fn spec_builder() {
        let s = ContainerSpec::new("web", "nginx:1.15")
            .with_resources(ResourceRequest::new(1000, 512))
            .with_port(Proto::Tcp, 8080, 80);
        assert_eq!(s.ports.len(), 1);
        assert_eq!(s.ports[0].host_port, 8080);
        assert_eq!(s.resources.cpu_millis, 1000);
    }
}
