//! # nestless-contd
//!
//! A Docker-like container engine over the simulated VMM/network stack:
//! layered images with a node-local cache, container lifecycle with
//! resource requests and published ports, the default bridge+NAT dataplane
//! the paper's `NAT` baseline uses, a VXLAN overlay driver (the `Overlay`
//! baseline), and the boot-time pipeline model behind fig. 8.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boot;
pub mod container;
pub mod dataplane;
pub mod engine;
pub mod image;
pub mod overlay;

pub use boot::{fig8_experiment, BootPipeline, BootSample};
pub use container::{
    Container, ContainerId, ContainerSpec, ContainerState, PortMapping, ResourceRequest,
};
pub use dataplane::{ContainerNet, NodeDataplane, DOCKER_SUBNET};
pub use engine::{ContainerEngine, EngineEvent, EngineEventKind, NetworkMode};
pub use image::{Image, ImageStore, Layer};
pub use overlay::{build_two_node_overlay, OverlayAttachment, Vtep, OVERLAY_SUBNET};
