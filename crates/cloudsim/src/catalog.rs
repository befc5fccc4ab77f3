//! The VM catalog of Table 2: "AWS EC2 VM m5 models used to simulate
//! Hostlo money savings", on-demand prices.
//!
//! Resource specifications are also exposed relative to the biggest model
//! (24xlarge), "similarly to resources given in Google traces".

use crate::resources::Res;

/// One VM model of the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct VmModel {
    /// Model name (e.g. "m5.2xlarge").
    pub name: &'static str,
    /// vCPU count.
    pub vcpus: u32,
    /// Memory in GiB.
    pub memory_gib: u32,
    /// On-demand price, dollars per hour.
    pub price_per_h: f64,
}

impl VmModel {
    /// Capacity in absolute resource units.
    pub fn capacity(&self) -> Res {
        Res::new(
            u64::from(self.vcpus) * 1000,
            u64::from(self.memory_gib) * 1024,
        )
    }

    /// vCPUs relative to the largest model (Table 2's "vCPU (rel.)").
    pub fn vcpu_rel(&self) -> f64 {
        f64::from(self.vcpus) / f64::from(LARGEST.vcpus)
    }

    /// Memory relative to the largest model (Table 2's "Memory (rel.)").
    pub fn memory_rel(&self) -> f64 {
        f64::from(self.memory_gib) / f64::from(LARGEST.memory_gib)
    }
}

/// Table 2, in ascending size order.
pub const M5_CATALOG: [VmModel; 6] = [
    VmModel {
        name: "m5.large",
        vcpus: 2,
        memory_gib: 8,
        price_per_h: 0.112,
    },
    VmModel {
        name: "m5.xlarge",
        vcpus: 4,
        memory_gib: 16,
        price_per_h: 0.224,
    },
    VmModel {
        name: "m5.2xlarge",
        vcpus: 8,
        memory_gib: 32,
        price_per_h: 0.448,
    },
    VmModel {
        name: "m5.4xlarge",
        vcpus: 16,
        memory_gib: 64,
        price_per_h: 0.896,
    },
    VmModel {
        name: "m5.12xlarge",
        vcpus: 48,
        memory_gib: 192,
        price_per_h: 2.689,
    },
    VmModel {
        name: "m5.24xlarge",
        vcpus: 96,
        memory_gib: 384,
        price_per_h: 5.376,
    },
];

/// The largest model (reference for relative units).
pub const LARGEST: VmModel = VmModel {
    name: "m5.24xlarge",
    vcpus: 96,
    memory_gib: 384,
    price_per_h: 5.376,
};

/// The cheapest model able to host `req`, if any.
pub fn cheapest_fitting(req: Res) -> Option<&'static VmModel> {
    M5_CATALOG
        .iter()
        .filter(|m| req.fits_in(m.capacity()))
        .min_by(|a, b| {
            a.price_per_h
                .partial_cmp(&b.price_per_h)
                .expect("prices are finite")
        })
}

/// Converts a Google-trace-style relative request into absolute units.
pub fn res_from_relative(cpu_rel: f64, mem_rel: f64) -> Res {
    Res::new(
        (cpu_rel * f64::from(LARGEST.vcpus) * 1000.0).round() as u64,
        (mem_rel * f64::from(LARGEST.memory_gib) * 1024.0).round() as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_prices_and_sizes() {
        assert_eq!(M5_CATALOG.len(), 6);
        let large = &M5_CATALOG[0];
        assert_eq!(large.vcpus, 2);
        assert_eq!(large.memory_gib, 8);
        assert!((large.price_per_h - 0.112).abs() < 1e-12);
        let big = &M5_CATALOG[5];
        assert_eq!(big.vcpus, 96);
        assert!((big.price_per_h - 5.376).abs() < 1e-12);
    }

    #[test]
    fn relative_columns_match_table2() {
        // Table 2's relative columns: large = 0.0208, 12xlarge = 0.5, etc.
        assert!((M5_CATALOG[0].vcpu_rel() - 0.0208).abs() < 1e-3);
        assert!((M5_CATALOG[4].vcpu_rel() - 0.5).abs() < 1e-12);
        assert!((M5_CATALOG[5].memory_rel() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pricing_is_linear_in_size() {
        // m5 pricing doubles with size (except the 12xlarge step).
        for w in M5_CATALOG.windows(2).take(3) {
            assert!((w[1].price_per_h / w[0].price_per_h - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cheapest_fitting_picks_minimum() {
        // The paper's own example (§2): a 6 vCPU / 24 GiB pod needs a
        // 2xlarge when whole.
        let pod = Res::new(6_000, 24 * 1024);
        assert_eq!(cheapest_fitting(pod).unwrap().name, "m5.2xlarge");
        // Too big for anything:
        assert!(cheapest_fitting(Res::new(97_000, 1)).is_none());
    }

    #[test]
    fn relative_conversion_roundtrips() {
        let r = res_from_relative(0.0208, 0.0208);
        // ~2 vCPU, ~8 GiB
        assert!((r.cpu_m as i64 - 1997).abs() < 5);
        assert!((r.mem_mib as i64 - 8178).abs() < 10);
    }
}
