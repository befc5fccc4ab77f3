//! The QEMU-style side-channel management interface.
//!
//! "When QEMU creates a VM, it also provides a side-channel management
//! interface. [...] One of the many management actions the VMM can execute
//! is to add or remove NICs to and from the VM." (§3.2). The orchestrator's
//! CNI plugins speak this protocol; [`Vmm::qmp_json`] parses a command from
//! JSON and writes the response as JSON, exactly like the real QMP JSON
//! socket.

use crate::vm::{NicId, VmId};
use crate::vmm::Vmm;
use serde::{Deserialize, Serialize};

/// A management command, as the orchestrator would send it.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum QmpCommand {
    /// Hot-plug a new NIC into `vm`, attached to the named host-level
    /// networking domain (bridge). `coalesce` selects interrupt coalescing
    /// on the backend (off for per-pod NICs).
    NetdevAdd {
        /// Target VM.
        vm: u32,
        /// Host bridge name ("the host-level networking domain", §3.1).
        bridge: String,
        /// Backend interrupt coalescing.
        coalesce: bool,
    },
    /// Remove a NIC from a VM.
    DeviceDel {
        /// Target VM.
        vm: u32,
        /// NIC to remove.
        nic: u32,
    },
    /// Create a hostlo TAP spanning `vms` and hot-plug an endpoint into
    /// each (§4.1 step 1-2).
    HostloCreate {
        /// VMs targeted for the pod deployment.
        vms: Vec<u32>,
    },
    /// List the active NICs of a VM.
    QueryNics {
        /// Target VM.
        vm: u32,
    },
}

/// A NIC descriptor in a response; the MAC is "some sort of identifier of
/// the new NIC so that the VM agent can use it" (§3.1 step 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QmpNic {
    /// Owning VM.
    pub vm: u32,
    /// NIC id.
    pub nic: u32,
    /// MAC address in canonical string form.
    pub mac: String,
}

/// Management responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QmpResponse {
    /// A NIC was added.
    NicAdded(QmpNic),
    /// A NIC was removed.
    Removed,
    /// A hostlo TAP was created; one endpoint per requested VM, in order.
    HostloCreated {
        /// The per-VM endpoints.
        endpoints: Vec<QmpNic>,
    },
    /// NIC listing.
    Nics(Vec<QmpNic>),
    /// Command failed.
    Error {
        /// Human-readable cause.
        desc: String,
    },
}

impl Vmm {
    /// Executes one management command, QMP-style.
    pub fn qmp(&mut self, cmd: QmpCommand) -> QmpResponse {
        // Injected management-channel faults claim the command before any
        // dispatch, exactly like a dead monitor socket would.
        if self.qmp_fault_fires() {
            return QmpResponse::Error {
                desc: "management socket unreachable (injected fault)".to_owned(),
            };
        }
        match cmd {
            QmpCommand::NetdevAdd {
                vm,
                bridge,
                coalesce,
            } => {
                if vm as usize >= self.vms().len() {
                    return QmpResponse::Error {
                        desc: format!("no such VM: {vm}"),
                    };
                }
                if self.vm(VmId(vm)).state == crate::vm::VmState::Crashed {
                    return QmpResponse::Error {
                        desc: format!("VM {vm} has crashed"),
                    };
                }
                let Some(br) = self.bridge_by_name(&bridge) else {
                    return QmpResponse::Error {
                        desc: format!("no such bridge: {bridge}"),
                    };
                };
                let info = self.add_nic(VmId(vm), br, coalesce, true);
                QmpResponse::NicAdded(QmpNic {
                    vm,
                    nic: info.nic.0,
                    mac: info.mac.to_string(),
                })
            }
            QmpCommand::DeviceDel { vm, nic } => {
                if vm as usize >= self.vms().len() {
                    return QmpResponse::Error {
                        desc: format!("no such VM: {vm}"),
                    };
                }
                if self.detach_nic(VmId(vm), NicId(nic)) {
                    QmpResponse::Removed
                } else {
                    QmpResponse::Error {
                        desc: format!("no such NIC: {nic} on VM {vm}"),
                    }
                }
            }
            QmpCommand::HostloCreate { vms } => {
                if vms.len() < 2 {
                    return QmpResponse::Error {
                        desc: "hostlo needs at least two VMs".to_owned(),
                    };
                }
                if let Some(&bad) = vms.iter().find(|&&v| v as usize >= self.vms().len()) {
                    return QmpResponse::Error {
                        desc: format!("no such VM: {bad}"),
                    };
                }
                let ids: Vec<VmId> = vms.iter().map(|&v| VmId(v)).collect();
                let mode = self.hostlo_fanout();
                let (_h, eps) = self.create_hostlo(&ids, mode);
                QmpResponse::HostloCreated {
                    endpoints: eps
                        .iter()
                        .map(|e| QmpNic {
                            vm: e.vm.0,
                            nic: e.nic.0,
                            mac: e.mac.to_string(),
                        })
                        .collect(),
                }
            }
            QmpCommand::QueryNics { vm } => {
                if vm as usize >= self.vms().len() {
                    return QmpResponse::Error {
                        desc: format!("no such VM: {vm}"),
                    };
                }
                QmpResponse::Nics(
                    self.vm(VmId(vm))
                        .active_nics()
                        .map(|n| QmpNic {
                            vm,
                            nic: n.id.0,
                            mac: n.mac.to_string(),
                        })
                        .collect(),
                )
            }
        }
    }
}

/// The wire form of the management protocol: line-delimited JSON, like
/// QEMU's QMP socket.
impl Vmm {
    /// Executes one JSON-encoded command and returns the JSON response.
    /// Malformed input produces an `Error` response (never a panic): the
    /// management socket must survive anything the orchestrator sends.
    pub fn qmp_json(&mut self, line: &str) -> String {
        let resp = match serde_json::from_str::<QmpCommand>(line) {
            Ok(cmd) => self.qmp(cmd),
            Err(e) => QmpResponse::Error {
                desc: format!("malformed command: {e}"),
            },
        };
        serde_json::to_string(&resp).expect("responses always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSpec;
    use simnet::StopCondition;

    fn vmm_with_vm() -> Vmm {
        let mut vmm = Vmm::new(0);
        vmm.create_bridge("br0", 8);
        vmm.create_vm(VmSpec::paper_eval("vm0"));
        vmm
    }

    #[test]
    fn netdev_add_returns_mac() {
        let mut vmm = vmm_with_vm();
        let r = vmm.qmp(QmpCommand::NetdevAdd {
            vm: 0,
            bridge: "br0".into(),
            coalesce: false,
        });
        let QmpResponse::NicAdded(nic) = r else {
            panic!("expected NicAdded, got {r:?}")
        };
        assert_eq!(nic.vm, 0);
        assert!(
            nic.mac.starts_with("52:54:"),
            "QEMU OUI prefix: {}",
            nic.mac
        );
        // The agent can find the NIC by that MAC.
        let mac: Vec<&str> = vec![]; // silence unused in older rustc
        let _ = mac;
    }

    #[test]
    fn netdev_add_unknown_bridge_errors() {
        let mut vmm = vmm_with_vm();
        let r = vmm.qmp(QmpCommand::NetdevAdd {
            vm: 0,
            bridge: "nope".into(),
            coalesce: false,
        });
        assert!(matches!(r, QmpResponse::Error { .. }));
    }

    #[test]
    fn netdev_add_unknown_vm_errors() {
        let mut vmm = vmm_with_vm();
        let r = vmm.qmp(QmpCommand::NetdevAdd {
            vm: 9,
            bridge: "br0".into(),
            coalesce: false,
        });
        assert!(matches!(r, QmpResponse::Error { .. }));
    }

    #[test]
    fn query_and_delete_roundtrip() {
        let mut vmm = vmm_with_vm();
        vmm.qmp(QmpCommand::NetdevAdd {
            vm: 0,
            bridge: "br0".into(),
            coalesce: false,
        });
        let QmpResponse::Nics(nics) = vmm.qmp(QmpCommand::QueryNics { vm: 0 }) else {
            panic!("expected Nics")
        };
        assert_eq!(nics.len(), 1);
        let r = vmm.qmp(QmpCommand::DeviceDel {
            vm: 0,
            nic: nics[0].nic,
        });
        assert_eq!(r, QmpResponse::Removed);
        let QmpResponse::Nics(nics) = vmm.qmp(QmpCommand::QueryNics { vm: 0 }) else {
            panic!("expected Nics")
        };
        assert!(nics.is_empty());
        // Deleting again fails.
        let r = vmm.qmp(QmpCommand::DeviceDel { vm: 0, nic: 0 });
        assert!(matches!(r, QmpResponse::Error { .. }));
    }

    #[test]
    fn hostlo_create_spans_vms() {
        let mut vmm = Vmm::new(0);
        vmm.create_vm(VmSpec::paper_eval("vm0"));
        vmm.create_vm(VmSpec::paper_eval("vm1"));
        let r = vmm.qmp(QmpCommand::HostloCreate { vms: vec![0, 1] });
        let QmpResponse::HostloCreated { endpoints } = r else {
            panic!("expected HostloCreated")
        };
        assert_eq!(endpoints.len(), 2);
        assert_eq!(endpoints[0].vm, 0);
        assert_eq!(endpoints[1].vm, 1);
        assert_ne!(endpoints[0].mac, endpoints[1].mac);
    }

    #[test]
    fn json_wire_roundtrip() {
        let mut vmm = vmm_with_vm();
        let resp = vmm.qmp_json(r#"{"NetdevAdd":{"vm":0,"bridge":"br0","coalesce":true}}"#);
        assert!(resp.contains("NicAdded"), "got {resp}");
        assert!(resp.contains("52:54:"));
        let listing = vmm.qmp_json(r#"{"QueryNics":{"vm":0}}"#);
        assert!(listing.contains("Nics"));
        // Responses parse back as QmpResponse.
        let parsed: QmpResponse = serde_json::from_str(&listing).unwrap();
        assert!(matches!(parsed, QmpResponse::Nics(nics) if nics.len() == 1));
    }

    #[test]
    fn json_wire_survives_garbage() {
        let mut vmm = vmm_with_vm();
        for junk in ["", "{", "null", r#"{"Reboot":{}}"#, "not json at all"] {
            let resp = vmm.qmp_json(junk);
            assert!(resp.contains("Error"), "junk {junk:?} -> {resp}");
        }
        // The VMM still works afterwards.
        assert!(vmm.qmp_json(r#"{"QueryNics":{"vm":0}}"#).contains("Nics"));
    }

    #[test]
    fn json_wire_rejects_out_of_range_ids() {
        let mut vmm = vmm_with_vm();
        vmm.qmp(QmpCommand::NetdevAdd {
            vm: 0,
            bridge: "br0".into(),
            coalesce: false,
        });
        // Neither id fits a u32, so neither may be clamped into one.
        for line in [
            r#"{"DeviceDel":{"vm":-1.0,"nic":0}}"#,
            r#"{"DeviceDel":{"vm":1e10,"nic":0}}"#,
        ] {
            let resp: QmpResponse = serde_json::from_str(&vmm.qmp_json(line)).unwrap();
            assert!(
                matches!(&resp, QmpResponse::Error { desc } if desc.starts_with("malformed command")),
                "{line} -> {resp:?}"
            );
        }
        let QmpResponse::Nics(nics) = vmm.qmp(QmpCommand::QueryNics { vm: 0 }) else {
            panic!("expected Nics")
        };
        assert_eq!(nics.iter().map(|n| n.nic).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn injected_outage_rejects_commands_by_sim_time() {
        use simnet::{SimDuration, SimTime};
        let mut vmm = vmm_with_vm();
        vmm.inject_qmp_outage(SimTime::ZERO, SimTime::ZERO + SimDuration::micros(50));
        let r = vmm.qmp(QmpCommand::QueryNics { vm: 0 });
        assert!(matches!(r, QmpResponse::Error { ref desc } if desc.contains("injected")));
        assert_eq!(vmm.qmp_faults_injected(), 1);
        // Past the window the socket works again.
        vmm.network_mut()
            .run(StopCondition::For(SimDuration::micros(100)));
        assert!(matches!(
            vmm.qmp(QmpCommand::QueryNics { vm: 0 }),
            QmpResponse::Nics(_)
        ));
        assert_eq!(vmm.qmp_faults_injected(), 1);
    }

    #[test]
    fn fail_next_qmp_claims_exactly_n_commands() {
        let mut vmm = vmm_with_vm();
        vmm.fail_next_qmp(2);
        for _ in 0..2 {
            assert!(matches!(
                vmm.qmp(QmpCommand::QueryNics { vm: 0 }),
                QmpResponse::Error { .. }
            ));
        }
        assert!(matches!(
            vmm.qmp(QmpCommand::QueryNics { vm: 0 }),
            QmpResponse::Nics(_)
        ));
        assert_eq!(vmm.qmp_faults_injected(), 2);
    }

    #[test]
    fn crashed_vm_refuses_netdev_add() {
        let mut vmm = vmm_with_vm();
        vmm.crash_vm(crate::vm::VmId(0));
        let r = vmm.qmp(QmpCommand::NetdevAdd {
            vm: 0,
            bridge: "br0".into(),
            coalesce: false,
        });
        assert!(matches!(r, QmpResponse::Error { ref desc } if desc.contains("crashed")));
        vmm.restart_vm(crate::vm::VmId(0));
        assert!(matches!(
            vmm.qmp(QmpCommand::NetdevAdd {
                vm: 0,
                bridge: "br0".into(),
                coalesce: false,
            }),
            QmpResponse::NicAdded(_)
        ));
    }

    #[test]
    fn hostlo_validates_inputs() {
        let mut vmm = vmm_with_vm();
        assert!(matches!(
            vmm.qmp(QmpCommand::HostloCreate { vms: vec![0] }),
            QmpResponse::Error { .. }
        ));
        assert!(matches!(
            vmm.qmp(QmpCommand::HostloCreate { vms: vec![0, 5] }),
            QmpResponse::Error { .. }
        ));
    }
}
