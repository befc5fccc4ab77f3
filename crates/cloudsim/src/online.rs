//! Online cost simulation: pods arrive and depart over time.
//!
//! The paper's fig. 9 methodology is *offline* ("a user's pods are
//! scheduled offline, biggest first"). Real tenants churn; this module
//! extends the comparison to an event-driven timeline where VMs are bought
//! when needed and released when empty, and the bill integrates price over
//! uptime. It quantifies a second Hostlo benefit the offline analysis
//! cannot see: fine-grained placement absorbs churn into existing waste
//! instead of buying whole-pod-sized VMs at every arrival peak.

use crate::catalog::cheapest_fitting;
use crate::resources::Res;
use crate::trace::TracePod;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEvent {
    /// A pod arrives.
    Arrive {
        /// Pod id (unique in the trace).
        pod: u32,
        /// What arrives.
        spec: TracePod,
    },
    /// A pod departs (must have arrived earlier).
    Depart {
        /// Pod id.
        pod: u32,
    },
}

/// A time-ordered event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineTrace {
    /// `(time in hours, event)`, non-decreasing in time.
    pub events: Vec<(f64, OnlineEvent)>,
    /// End of the billing horizon, hours.
    pub horizon_h: f64,
}

/// Generates a churning workload: `n_pods` arrivals spread over the
/// horizon, each staying for a heavy-tailed duration.
pub fn synthetic_online_trace(n_pods: usize, horizon_h: f64, seed: u64) -> OnlineTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(2 * n_pods);
    for pod in 0..n_pods as u32 {
        let arrive = rng.gen_range(0.0..horizon_h * 0.8);
        let stay = rng.gen_range(0.5..horizon_h * 0.5) * rng.gen_range(0.2..1.0f64);
        let depart = (arrive + stay).min(horizon_h);
        let ncont = rng.gen_range(1..=4);
        let containers = (0..ncont)
            .map(|_| {
                let quarters = rng.gen_range(2u64..=16);
                crate::trace::TraceContainer {
                    res: Res::new(quarters * 250, quarters * 1024),
                }
            })
            .collect();
        events.push((
            arrive,
            OnlineEvent::Arrive {
                pod,
                spec: TracePod { containers },
            },
        ));
        events.push((depart, OnlineEvent::Depart { pod }));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    OnlineTrace { events, horizon_h }
}

/// Placement granularity of the online scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineMode {
    /// Whole pods (the vanilla Kubernetes constraint).
    WholePod,
    /// Individual containers (what Hostlo unlocks).
    PerContainer,
}

#[derive(Debug)]
struct LiveVm {
    capacity: Res,
    price_per_h: f64,
    bought_at: f64,
    /// `(pod, used)` per placed unit.
    units: Vec<(u32, Res)>,
    /// Running total of `units` (the hot fit loop checks `free()` per
    /// candidate VM; re-summing every unit there is quadratic).
    used: Res,
}

impl LiveVm {
    fn push_unit(&mut self, pod: u32, req: Res) {
        self.used += req;
        self.units.push((pod, req));
    }
    /// Drops every unit of `pod`, shrinking the running total.
    fn remove_pod(&mut self, pod: u32) {
        let mut removed = Res::ZERO;
        self.units.retain(|&(p, r)| {
            if p == pod {
                removed += r;
                false
            } else {
                true
            }
        });
        self.used = self.used.saturating_sub(removed);
    }
    fn used(&self) -> Res {
        debug_assert_eq!(
            self.used,
            self.units.iter().map(|&(_, r)| r).sum::<Res>(),
            "cached used total diverged from the unit list"
        );
        self.used
    }
    fn free(&self) -> Res {
        self.capacity.saturating_sub(self.used())
    }
}

/// Result of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Scheduling granularity used.
    pub mode: OnlineMode,
    /// Total bill over the horizon, dollars.
    pub total_cost: f64,
    /// Maximum simultaneous VM count.
    pub peak_vms: usize,
    /// Total VM purchases.
    pub vms_bought: usize,
}

/// Runs the online simulation in the given mode.
///
/// # Panics
/// Panics on malformed traces (departure without arrival, unplaceable
/// units) — the generator upholds these invariants.
pub fn run_online(trace: &OnlineTrace, mode: OnlineMode) -> OnlineReport {
    let mut vms: Vec<LiveVm> = Vec::new();
    let mut total_cost = 0.0;
    let mut peak = 0usize;
    let mut bought = 0usize;

    #[allow(clippy::type_complexity)]
    let place_unit = |vms: &mut Vec<LiveVm>, bought: &mut usize, now: f64, pod: u32, req: Res| {
        // Fill the fullest VM with room (most-requested grouping).
        let target = vms
            .iter_mut()
            .filter(|v| req.fits_in(v.free()))
            .max_by_key(|v| v.used().size_key());
        match target {
            Some(v) => v.push_unit(pod, req),
            None => {
                let model = cheapest_fitting(req).expect("unit exceeds largest model");
                *bought += 1;
                vms.push(LiveVm {
                    capacity: model.capacity(),
                    price_per_h: model.price_per_h,
                    bought_at: now,
                    units: vec![(pod, req)],
                    used: req,
                });
            }
        }
    };

    for (at, ev) in &trace.events {
        match ev {
            OnlineEvent::Arrive { pod, spec } => {
                match mode {
                    OnlineMode::WholePod => {
                        place_unit(&mut vms, &mut bought, *at, *pod, spec.total());
                    }
                    OnlineMode::PerContainer => {
                        for c in &spec.containers {
                            place_unit(&mut vms, &mut bought, *at, *pod, c.res);
                        }
                    }
                }
                peak = peak.max(vms.len());
            }
            OnlineEvent::Depart { pod } => {
                for v in &mut vms {
                    v.remove_pod(*pod);
                }
                // Release empty VMs: bill them until now.
                vms.retain(|v| {
                    if v.units.is_empty() {
                        total_cost += v.price_per_h * (at - v.bought_at);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        debug_assert!(vms.iter().all(|v| v.used().fits_in(v.capacity)));
    }
    // Bill survivors to the horizon.
    for v in &vms {
        total_cost += v.price_per_h * (trace.horizon_h - v.bought_at);
    }
    OnlineReport {
        mode,
        total_cost,
        peak_vms: peak,
        vms_bought: bought,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContainer;

    fn pod(containers: &[(u64, u64)]) -> TracePod {
        TracePod {
            containers: containers
                .iter()
                .map(|&(c, m)| TraceContainer {
                    res: Res::new(c, m),
                })
                .collect(),
        }
    }

    #[test]
    fn single_pod_billed_for_its_stay() {
        let trace = OnlineTrace {
            events: vec![
                (
                    1.0,
                    OnlineEvent::Arrive {
                        pod: 0,
                        spec: pod(&[(1000, 4096)]),
                    },
                ),
                (5.0, OnlineEvent::Depart { pod: 0 }),
            ],
            horizon_h: 10.0,
        };
        let r = run_online(&trace, OnlineMode::WholePod);
        // 1 vCPU/4 GiB -> m5.large at $0.112/h for 4 hours.
        assert!((r.total_cost - 0.112 * 4.0).abs() < 1e-9);
        assert_eq!(r.peak_vms, 1);
        assert_eq!(r.vms_bought, 1);
    }

    #[test]
    fn per_container_fills_waste_where_whole_pod_buys() {
        // A resident pod leaves 3 vCPU of waste; then a 2-container pod
        // (2 x 1.5 vCPU = 3) arrives. Whole-pod cannot use the waste
        // (needs 3 contiguous on one VM: it actually fits! craft tighter):
        // resident leaves 2 vCPU waste; arrival = 2 x 1.5: whole pod (3)
        // does not fit, containers (1.5 each) do not fit either... use
        // waste 2 and containers of 1 + 2: whole 3 > 2 buys; split: the
        // 1-vCPU container fits the waste, only the 2-vCPU one buys small.
        let resident = pod(&[(6000, 8192)]); // 2xlarge: 8 vCPU cap -> 2 free
        let newcomer = pod(&[(1000, 2048), (2000, 4096)]);
        let trace = OnlineTrace {
            events: vec![
                (
                    0.0,
                    OnlineEvent::Arrive {
                        pod: 0,
                        spec: resident,
                    },
                ),
                (
                    1.0,
                    OnlineEvent::Arrive {
                        pod: 1,
                        spec: newcomer,
                    },
                ),
                (9.0, OnlineEvent::Depart { pod: 1 }),
                (10.0, OnlineEvent::Depart { pod: 0 }),
            ],
            horizon_h: 10.0,
        };
        let whole = run_online(&trace, OnlineMode::WholePod);
        let fine = run_online(&trace, OnlineMode::PerContainer);
        assert!(
            fine.total_cost < whole.total_cost,
            "fine {} < whole {}",
            fine.total_cost,
            whole.total_cost
        );
        assert!(fine.peak_vms <= whole.peak_vms);
    }

    #[test]
    fn empty_vms_are_released() {
        let trace = OnlineTrace {
            events: vec![
                (
                    0.0,
                    OnlineEvent::Arrive {
                        pod: 0,
                        spec: pod(&[(1000, 1024)]),
                    },
                ),
                (1.0, OnlineEvent::Depart { pod: 0 }),
                (
                    2.0,
                    OnlineEvent::Arrive {
                        pod: 1,
                        spec: pod(&[(1000, 1024)]),
                    },
                ),
                (3.0, OnlineEvent::Depart { pod: 1 }),
            ],
            horizon_h: 10.0,
        };
        let r = run_online(&trace, OnlineMode::WholePod);
        assert_eq!(r.vms_bought, 2, "released VM is not reused later");
        assert!((r.total_cost - 2.0 * 0.112).abs() < 1e-9);
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_well_formed() {
        let a = synthetic_online_trace(100, 24.0, 5);
        assert_eq!(a, synthetic_online_trace(100, 24.0, 5));
        assert_eq!(a.events.len(), 200);
        assert!(
            a.events.windows(2).all(|w| w[0].0 <= w[1].0),
            "sorted by time"
        );
    }

    #[test]
    fn per_container_never_loses_on_synthetic_churn() {
        for seed in [1, 2, 3] {
            let trace = synthetic_online_trace(150, 24.0, seed);
            let whole = run_online(&trace, OnlineMode::WholePod);
            let fine = run_online(&trace, OnlineMode::PerContainer);
            assert!(
                fine.total_cost <= whole.total_cost * 1.02,
                "seed {seed}: fine {} vs whole {}",
                fine.total_cost,
                whole.total_cost
            );
        }
    }
}
