//! Kubernetes-NetworkPolicy-like ingress isolation, compiled to filter
//! chains.
//!
//! A [`NetworkPolicy`] selects one pod and whitelists its allowed ingress.
//! Selecting a pod flips it to default-deny: traffic that matches no
//! [`IngressRule`] is discarded at whichever device actually carries the
//! pod's frames — the CNI plugin decides the enforcement point and compiles
//! the policy there ([`CniPlugin::apply_policy`](crate::cni::CniPlugin::apply_policy)):
//!
//! * default bridge+NAT CNI — the nested guest's NAT router (FORWARD,
//!   post-DNAT, so rules match container sockets);
//! * Hostlo — the host's hostlo TAP queues;
//! * BrFusion — the host bridge the fused NICs hang off; when a pod is
//!   parked on the degraded nested path the chains migrate to the fallback
//!   guest NAT, and back to the bridge on re-promotion.
//!
//! Compilation is a pure function of `(policy, pod address)` producing an
//! ordered rule list for the first-match-wins filter engine:
//!
//! 1. accept ESTABLISHED/RELATED to the pod (conntrack replies always
//!    pass, like the canonical iptables state-match preamble);
//! 2. one ACCEPT per ingress rule;
//! 3. a trailing catch-all DROP (or REJECT) for the pod's address.

use crate::pod::PodSpec;
use simnet::filter::{FilterRule, StateMask, Verdict};
use simnet::nat::Proto;
use simnet::{Ip4, Ip4Net};

/// One whitelisted ingress class: who may open NEW connections to the
/// selected pod, on which ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressRule {
    /// Source subnet allowed to connect; `None` allows any source.
    pub from: Option<Ip4Net>,
    /// Protocol; `None` matches both UDP and TCP.
    pub proto: Option<Proto>,
    /// Destination (container) port range on the pod; `None` allows all.
    pub ports: Option<(u16, u16)>,
}

impl IngressRule {
    /// An allow-anything ingress rule (refine with the builders).
    pub fn any() -> IngressRule {
        IngressRule {
            from: None,
            proto: None,
            ports: None,
        }
    }

    /// Restricts the rule to sources inside `net`.
    pub fn from(mut self, net: Ip4Net) -> IngressRule {
        self.from = Some(net);
        self
    }

    /// Restricts the rule to one protocol.
    pub fn proto(mut self, p: Proto) -> IngressRule {
        self.proto = Some(p);
        self
    }

    /// Restricts the rule to a destination port range.
    pub fn ports(mut self, lo: u16, hi: u16) -> IngressRule {
        assert!(lo <= hi, "port range must be ordered");
        self.ports = Some((lo, hi));
        self
    }

    /// Restricts the rule to one destination port.
    pub fn port(self, p: u16) -> IngressRule {
        self.ports(p, p)
    }
}

/// A NetworkPolicy object: default-deny ingress for one pod, with an
/// allow-list of [`IngressRule`]s.
#[derive(Debug, Clone)]
pub struct NetworkPolicy {
    /// Policy object name (journals, logs).
    pub name: String,
    /// Name of the pod the policy selects (label-selector stand-in).
    pub pod: String,
    /// Whitelisted ingress, first match wins.
    pub ingress: Vec<IngressRule>,
    /// Deny verdict: `false` drops silently (Kubernetes semantics),
    /// `true` actively rejects so the sender sees the refusal.
    pub reject: bool,
}

impl NetworkPolicy {
    /// A deny-all-ingress policy for `pod` (the K8s "default-deny"
    /// idiom); whitelist entries are added with [`NetworkPolicy::allow`].
    pub fn deny_all(name: impl Into<String>, pod: impl Into<String>) -> NetworkPolicy {
        NetworkPolicy {
            name: name.into(),
            pod: pod.into(),
            ingress: Vec::new(),
            reject: false,
        }
    }

    /// Appends a whitelisted ingress class.
    pub fn allow(mut self, rule: IngressRule) -> NetworkPolicy {
        self.ingress.push(rule);
        self
    }

    /// Makes the trailing deny an active REJECT instead of a silent DROP.
    pub fn with_reject(mut self) -> NetworkPolicy {
        self.reject = true;
        self
    }

    /// True when the policy selects `pod`.
    pub fn selects(&self, pod: &PodSpec) -> bool {
        self.pod == pod.name
    }

    /// Compiles the policy for one pod address into an ordered rule list
    /// for a FORWARD table (install in order; the engine is
    /// first-match-wins).
    pub fn compile(&self, pod_ip: Ip4) -> Vec<FilterRule> {
        let mut rules = Vec::with_capacity(self.ingress.len() + 2);
        // Conntrack preamble: replies and related flows of connections the
        // enforcement point already admitted always pass.
        rules.push(
            FilterRule::any(Verdict::Accept)
                .to_ip(pod_ip)
                .states(StateMask::ESTABLISHED.or(StateMask::RELATED)),
        );
        for ing in &self.ingress {
            let mut r = FilterRule::any(Verdict::Accept).to_ip(pod_ip);
            if let Some(net) = ing.from {
                r = r.from_net(net);
            }
            if let Some(p) = ing.proto {
                r = r.proto(p);
            }
            if let Some((lo, hi)) = ing.ports {
                r = r.ports(lo, hi);
            }
            rules.push(r);
        }
        let deny = if self.reject {
            Verdict::Reject
        } else {
            Verdict::Drop
        };
        rules.push(FilterRule::any(deny).to_ip(pod_ip));
        rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contd::ContainerSpec;

    #[test]
    fn compile_orders_preamble_allows_deny() {
        let pol = NetworkPolicy::deny_all("web-allow", "web")
            .allow(
                IngressRule::any()
                    .from(Ip4Net::new(Ip4::new(10, 0, 0, 0), 24))
                    .proto(Proto::Tcp)
                    .port(80),
            )
            .allow(IngressRule::any().ports(9000, 9100));
        let ip = Ip4::new(192, 168, 0, 50);
        let rules = pol.compile(ip);
        assert_eq!(rules.len(), 4);
        // Conntrack preamble first: state-matched accept, no NEW.
        assert_eq!(rules[0].verdict, Verdict::Accept);
        assert!(rules[0]
            .states
            .matches(simnet::filter::ConnState::Established));
        assert!(!rules[0].states.matches(simnet::filter::ConnState::New));
        // Whitelist in declaration order.
        assert_eq!(rules[1].proto, Some(Proto::Tcp));
        assert_eq!(rules[1].dst_ports, (80, 80));
        assert_eq!(rules[2].dst_ports, (9000, 9100));
        // Trailing deny covers only the selected pod.
        assert_eq!(rules[3].verdict, Verdict::Drop);
        assert_eq!(rules[3].dst, Some(Ip4Net::new(ip, 32)));
        assert_eq!(rules[3].states, StateMask::ANY);
    }

    #[test]
    fn reject_flag_switches_the_trailing_deny() {
        let pol = NetworkPolicy::deny_all("p", "w").with_reject();
        let rules = pol.compile(Ip4::new(1, 2, 3, 4));
        assert_eq!(rules.last().unwrap().verdict, Verdict::Reject);
    }

    #[test]
    fn selects_by_pod_name() {
        let pol = NetworkPolicy::deny_all("p", "web");
        let web = PodSpec::new("web", vec![ContainerSpec::new("c", "i:1")]);
        let db = PodSpec::new("db", vec![ContainerSpec::new("c", "i:1")]);
        assert!(pol.selects(&web));
        assert!(!pol.selects(&db));
    }
}
