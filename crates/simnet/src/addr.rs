//! Link- and network-layer addressing: Ethernet MAC addresses, IPv4
//! addresses and subnets.
//!
//! The paper's §2 observation is that mutualizing *network identity* (MAC and
//! IP addresses) is what forces the bridge+NAT design at every virtualization
//! layer; these are the identities being mutualized.

use std::fmt;
use std::str::FromStr;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Deterministically allocates a locally-administered unicast MAC from a
    /// 32-bit id (used by the VMM when provisioning NICs).
    pub fn local(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        // 0x52:54 is the QEMU/KVM locally-administered prefix.
        MacAddr([0x52, 0x54, b[0], b[1], b[2], b[3]])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// True for group (multicast/broadcast) addresses.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl FromStr for MacAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(format!("invalid MAC address: {s:?}"));
        }
        let mut m = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            m[i] = u8::from_str_radix(p, 16)
                .map_err(|_| format!("invalid MAC octet {p:?} in {s:?}"))?;
        }
        Ok(MacAddr(m))
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ip4(pub u32);

impl Ip4 {
    /// Builds from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ip4 {
        Ip4(u32::from_be_bytes([a, b, c, d]))
    }

    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ip4 = Ip4(0);

    /// The loopback address `127.0.0.1`.
    pub const LOCALHOST: Ip4 = Ip4::new(127, 0, 0, 1);

    /// Octets in network order.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// True for `127.0.0.0/8`.
    pub fn is_loopback(self) -> bool {
        self.octets()[0] == 127
    }
}

impl fmt::Display for Ip4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Ip4 {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(format!("invalid IPv4 address: {s:?}"));
        }
        let mut o = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            o[i] = p
                .parse::<u8>()
                .map_err(|_| format!("invalid IPv4 octet {p:?} in {s:?}"))?;
        }
        Ok(Ip4::new(o[0], o[1], o[2], o[3]))
    }
}

/// An IPv4 subnet in CIDR form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ip4Net {
    /// Network base address.
    pub addr: Ip4,
    /// Prefix length in bits, `0..=32`.
    pub prefix: u8,
}

impl Ip4Net {
    /// Builds a subnet; the address is masked to the prefix.
    ///
    /// # Panics
    /// Panics if `prefix > 32`.
    pub fn new(addr: Ip4, prefix: u8) -> Ip4Net {
        assert!(prefix <= 32, "prefix length must be <= 32");
        Ip4Net {
            addr: Ip4(addr.0 & Self::mask_bits(prefix)),
            prefix,
        }
    }

    fn mask_bits(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix as u32)
        }
    }

    /// Netmask as an address.
    pub fn mask(self) -> Ip4 {
        Ip4(Self::mask_bits(self.prefix))
    }

    /// True when `ip` is inside this subnet.
    pub fn contains(self, ip: Ip4) -> bool {
        ip.0 & Self::mask_bits(self.prefix) == self.addr.0
    }

    /// The `n`-th host address in the subnet (1-based; 0 is the network
    /// address). Used by topology builders to hand out addresses.
    ///
    /// # Panics
    /// Panics if the host index does not fit in the subnet.
    pub fn host(self, n: u32) -> Ip4 {
        let host_bits = 32 - self.prefix as u32;
        assert!(
            host_bits == 32 || u64::from(n) < (1u64 << host_bits),
            "host index {n} out of range for /{}",
            self.prefix
        );
        Ip4(self.addr.0 | n)
    }
}

impl fmt::Display for Ip4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix)
    }
}

/// A transport endpoint: IPv4 address plus port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockAddr {
    /// IPv4 address.
    pub ip: Ip4,
    /// Transport port.
    pub port: u16,
}

impl SockAddr {
    /// Builds a socket address.
    pub const fn new(ip: Ip4, port: u16) -> SockAddr {
        SockAddr { ip, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_flags() {
        let m = MacAddr([0x52, 0x54, 0, 0, 0, 0x01]);
        assert_eq!(m.to_string(), "52:54:00:00:00:01");
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!m.is_multicast());
    }

    #[test]
    fn mac_parses_from_string() {
        let m: MacAddr = "52:54:00:0a:0b:0c".parse().unwrap();
        assert_eq!(m, MacAddr([0x52, 0x54, 0, 0x0a, 0x0b, 0x0c]));
        assert_eq!(m.to_string().parse::<MacAddr>().unwrap(), m);
        assert!("52:54:00".parse::<MacAddr>().is_err());
        assert!("zz:54:00:0a:0b:0c".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_local_is_unique_per_id() {
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
        assert_eq!(MacAddr::local(7), MacAddr::local(7));
        assert!(!MacAddr::local(123).is_multicast());
    }

    #[test]
    fn ip_roundtrip() {
        let ip: Ip4 = "192.168.1.42".parse().unwrap();
        assert_eq!(ip, Ip4::new(192, 168, 1, 42));
        assert_eq!(ip.to_string(), "192.168.1.42");
        assert!("1.2.3".parse::<Ip4>().is_err());
        assert!("1.2.3.256".parse::<Ip4>().is_err());
        assert!(Ip4::LOCALHOST.is_loopback());
        assert!(!ip.is_loopback());
    }

    #[test]
    fn subnet_contains_and_hosts() {
        let net = Ip4Net::new(Ip4::new(10, 0, 42, 99), 24);
        assert_eq!(net.addr, Ip4::new(10, 0, 42, 0), "address is masked");
        assert!(net.contains(Ip4::new(10, 0, 42, 1)));
        assert!(!net.contains(Ip4::new(10, 0, 43, 1)));
        assert_eq!(net.host(7), Ip4::new(10, 0, 42, 7));
        assert_eq!(net.mask(), Ip4::new(255, 255, 255, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subnet_host_bounds() {
        Ip4Net::new(Ip4::new(10, 0, 0, 0), 30).host(4);
    }

    #[test]
    fn sockaddr_display() {
        let sa = SockAddr::new(Ip4::new(10, 0, 0, 1), 8080);
        assert_eq!(sa.to_string(), "10.0.0.1:8080");
    }
}
