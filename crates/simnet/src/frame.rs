//! Ethernet frames and the minimal L3/L4 headers the datapath manipulates.
//!
//! The simulator is packet-level but not byte-level: headers are structured
//! Rust values and payloads carry a *length*, not bytes. Per-byte costs are
//! computed from [`Frame::wire_len`].

use crate::addr::{Ip4, MacAddr, SockAddr};
use crate::flow::FlowTag;
use crate::time::SimTime;
use metrics::FlightStamp;
use std::fmt;

/// Ethernet header bytes on the wire (dst + src + ethertype + FCS).
pub const ETH_HEADER_LEN: u32 = 18;
/// IPv4 header bytes (no options).
pub const IPV4_HEADER_LEN: u32 = 20;
/// UDP header bytes.
pub const UDP_HEADER_LEN: u32 = 8;
/// TCP header bytes (no options).
pub const TCP_HEADER_LEN: u32 = 20;
/// Extra bytes added by VXLAN encapsulation: outer Ethernet + IP + UDP +
/// VXLAN header.
pub const VXLAN_OVERHEAD: u32 = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + 8;
/// Conventional Ethernet MTU (L3 bytes).
pub const DEFAULT_MTU: u32 = 1500;

/// Application payload: a declared length and an opaque application tag
/// used to correlate requests and responses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload {
    /// Payload length in bytes (drives serialization and per-byte costs).
    pub len: u32,
    /// Application correlation tag (e.g. transaction id).
    pub tag: u64,
    /// Timestamp the sending application stamped into the message; carried
    /// so the receiver can compute one-way/round-trip times. In the real
    /// system this lives in the payload; the paper used a TSC passed across
    /// the virtual boundary for the same purpose.
    pub sent_at: SimTime,
}

impl Payload {
    /// A payload of `len` bytes with tag 0.
    pub fn sized(len: u32) -> Payload {
        Payload {
            len,
            ..Default::default()
        }
    }
}

/// Kind of TCP segment, reduced to what the stream model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpKind {
    /// Data-bearing segment.
    Data,
    /// Pure acknowledgement.
    Ack,
}

/// Transport-layer content of an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Application payload.
        payload: Payload,
    },
    /// A (highly simplified) TCP segment: enough for a windowed stream.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number of this segment (in segments, not bytes).
        seq: u64,
        /// Data or pure ACK.
        kind: TcpKind,
        /// Application payload (empty for ACKs).
        payload: Payload,
    },
    /// A VXLAN-encapsulated inner frame (the overlay driver's wire format).
    Vxlan {
        /// VXLAN network identifier.
        vni: u32,
        /// The encapsulated original frame.
        inner: Box<Frame>,
    },
}

impl Transport {
    /// Transport + payload length in bytes (excluding the IP header).
    /// Never zero (headers always exist), hence no `is_empty` twin.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        match self {
            Transport::Udp { payload, .. } => UDP_HEADER_LEN + payload.len,
            Transport::Tcp { payload, .. } => TCP_HEADER_LEN + payload.len,
            Transport::Vxlan { inner, .. } => UDP_HEADER_LEN + 8 + inner.wire_len(),
        }
    }

    /// Source port if this is UDP or TCP.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            Transport::Udp { src_port, .. } | Transport::Tcp { src_port, .. } => Some(*src_port),
            Transport::Vxlan { .. } => None,
        }
    }

    /// Destination port if this is UDP or TCP.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            Transport::Udp { dst_port, .. } | Transport::Tcp { dst_port, .. } => Some(*dst_port),
            Transport::Vxlan { .. } => None,
        }
    }

    /// Application payload, if data-bearing.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            Transport::Udp { payload, .. } | Transport::Tcp { payload, .. } => Some(payload),
            Transport::Vxlan { .. } => None,
        }
    }

    /// Rewrites the source port (SNAT helper).
    pub fn set_src_port(&mut self, port: u16) {
        if let Transport::Udp { src_port, .. } | Transport::Tcp { src_port, .. } = self {
            *src_port = port;
        }
    }

    /// Rewrites the destination port (DNAT helper).
    pub fn set_dst_port(&mut self, port: u16) {
        if let Transport::Udp { dst_port, .. } | Transport::Tcp { dst_port, .. } = self {
            *dst_port = port;
        }
    }
}

/// An IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4 {
    /// Source address.
    pub src: Ip4,
    /// Destination address.
    pub dst: Ip4,
    /// Remaining hop budget; routers decrement and drop at zero.
    pub ttl: u8,
    /// Transport content.
    pub transport: Transport,
}

impl Ipv4 {
    /// Total L3 length in bytes. Never zero (the header alone is 20 B),
    /// hence no `is_empty` twin.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        IPV4_HEADER_LEN + self.transport.len()
    }

    /// Source socket address, when ports exist.
    pub fn src_sock(&self) -> Option<SockAddr> {
        self.transport
            .src_port()
            .map(|p| SockAddr::new(self.src, p))
    }

    /// Destination socket address, when ports exist.
    pub fn dst_sock(&self) -> Option<SockAddr> {
        self.transport
            .dst_port()
            .map(|p| SockAddr::new(self.dst, p))
    }
}

/// An Ethernet frame carrying an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC (may be broadcast).
    pub dst_mac: MacAddr,
    /// L3 content.
    pub ip: Ipv4,
    /// Flight-recorder context (per-frame trace id + last stage span).
    /// Not part of the frame's wire content: it compares equal to
    /// everything, so frame equality stays a statement about headers and
    /// payload.
    pub flight: FlightStamp,
    /// Flow-learning probe stamp (hybrid fidelity only). Also equality-
    /// transparent and empty by default; packet-level runs never set it.
    pub flow: FlowTag,
}

impl Frame {
    /// Default initial TTL.
    pub const DEFAULT_TTL: u8 = 64;

    /// Builds a UDP frame.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src: SockAddr,
        dst: SockAddr,
        payload: Payload,
    ) -> Frame {
        Frame {
            src_mac,
            dst_mac,
            ip: Ipv4 {
                src: src.ip,
                dst: dst.ip,
                ttl: Self::DEFAULT_TTL,
                transport: Transport::Udp {
                    src_port: src.port,
                    dst_port: dst.port,
                    payload,
                },
            },
            flight: FlightStamp::default(),
            flow: FlowTag::default(),
        }
    }

    /// Builds a TCP frame.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src: SockAddr,
        dst: SockAddr,
        seq: u64,
        kind: TcpKind,
        payload: Payload,
    ) -> Frame {
        Frame {
            src_mac,
            dst_mac,
            ip: Ipv4 {
                src: src.ip,
                dst: dst.ip,
                ttl: Self::DEFAULT_TTL,
                transport: Transport::Tcp {
                    src_port: src.port,
                    dst_port: dst.port,
                    seq,
                    kind,
                    payload,
                },
            },
            flight: FlightStamp::default(),
            flow: FlowTag::default(),
        }
    }

    /// Wraps this frame in a VXLAN envelope addressed between two VTEPs.
    pub fn vxlan_encap(
        self,
        vni: u32,
        outer_src_mac: MacAddr,
        outer_dst_mac: MacAddr,
        outer_src: Ip4,
        outer_dst: Ip4,
    ) -> Frame {
        // The envelope inherits the inner frame's flight context so one
        // trace follows the packet across the encapsulation boundary.
        let flight = self.flight;
        // Flow probes deliberately die at the encapsulation boundary:
        // overlay paths are never flow-modeled (the tunnel hops would be
        // invisible to the learned path's fault-escalation checks).
        let mut inner = self;
        inner.flow = FlowTag::default();
        Frame {
            src_mac: outer_src_mac,
            dst_mac: outer_dst_mac,
            ip: Ipv4 {
                src: outer_src,
                dst: outer_dst,
                ttl: Self::DEFAULT_TTL,
                transport: Transport::Vxlan {
                    vni,
                    inner: Box::new(inner),
                },
            },
            flight,
            flow: FlowTag::default(),
        }
    }

    /// Unwraps a VXLAN envelope, returning `(vni, inner)` or the frame
    /// unchanged if it is not VXLAN.
    #[allow(clippy::result_large_err)] // Err IS the frame, handed back by value
    pub fn vxlan_decap(self) -> Result<(u32, Frame), Frame> {
        let flight = self.flight;
        match self.ip.transport {
            Transport::Vxlan { vni, inner } => {
                // Carry the (possibly restamped) outer context back onto
                // the inner frame: stages after decap parent to the last
                // stage the envelope crossed.
                let mut inner = *inner;
                inner.flight = flight;
                Ok((vni, inner))
            }
            _ => Err(self),
        }
    }

    /// Total bytes on the wire.
    pub fn wire_len(&self) -> u32 {
        ETH_HEADER_LEN + self.ip.len()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ip.transport {
            Transport::Udp {
                src_port,
                dst_port,
                payload,
            } => write!(
                f,
                "UDP {}:{} -> {}:{} ({}B tag={})",
                self.ip.src, src_port, self.ip.dst, dst_port, payload.len, payload.tag
            ),
            Transport::Tcp {
                src_port,
                dst_port,
                seq,
                kind,
                payload,
            } => write!(
                f,
                "TCP {}:{} -> {}:{} seq={} {:?} ({}B)",
                self.ip.src, src_port, self.ip.dst, dst_port, seq, kind, payload.len
            ),
            Transport::Vxlan { vni, inner } => {
                write!(
                    f,
                    "VXLAN vni={} {} -> {} [{}]",
                    vni, self.ip.src, self.ip.dst, inner
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock(d: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip4::new(10, 0, 0, d), port)
    }

    #[test]
    fn udp_wire_len() {
        let f = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            sock(1, 1000),
            sock(2, 2000),
            Payload::sized(1280),
        );
        assert_eq!(f.wire_len(), 18 + 20 + 8 + 1280);
        assert_eq!(f.ip.src_sock(), Some(sock(1, 1000)));
        assert_eq!(f.ip.dst_sock(), Some(sock(2, 2000)));
    }

    #[test]
    fn tcp_ack_is_headers_only() {
        let f = Frame::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            sock(1, 1000),
            sock(2, 2000),
            7,
            TcpKind::Ack,
            Payload::sized(0),
        );
        assert_eq!(f.wire_len(), 18 + 20 + 20);
    }

    #[test]
    fn vxlan_roundtrip_and_overhead() {
        let inner = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            sock(1, 1000),
            sock(2, 2000),
            Payload::sized(100),
        );
        let inner_len = inner.wire_len();
        let outer = inner.clone().vxlan_encap(
            42,
            MacAddr::local(3),
            MacAddr::local(4),
            Ip4::new(192, 168, 0, 1),
            Ip4::new(192, 168, 0, 2),
        );
        assert_eq!(outer.wire_len(), inner_len + VXLAN_OVERHEAD);
        let (vni, back) = outer.vxlan_decap().unwrap();
        assert_eq!(vni, 42);
        assert_eq!(back, inner);
    }

    #[test]
    fn vxlan_decap_on_plain_frame_is_err() {
        let f = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            sock(1, 1),
            sock(2, 2),
            Payload::sized(1),
        );
        assert!(f.vxlan_decap().is_err());
    }

    #[test]
    fn nat_port_rewrites() {
        let mut f = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            sock(1, 1000),
            sock(2, 2000),
            Payload::sized(10),
        );
        f.ip.transport.set_dst_port(8080);
        f.ip.transport.set_src_port(3333);
        assert_eq!(f.ip.transport.dst_port(), Some(8080));
        assert_eq!(f.ip.transport.src_port(), Some(3333));
    }

    #[test]
    fn payload_constructors() {
        let p = Payload::sized(9);
        assert_eq!(p.len, 9);
        assert_eq!((p.tag, p.sent_at), (0, SimTime::ZERO));
    }
}
