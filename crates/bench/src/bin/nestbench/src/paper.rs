//! `paper_packet` and `steady_hybrid`: the paper's Netperf and memcached
//! cells, run one after another on one thread, with the paper claims
//! their results compute.
//!
//! Cell seeds follow `nestless_bench::Sweep` (and fig. 11's memcached
//! seeds), so with the default seed 42 every packet-fidelity cell is the
//! figure binaries' cell and the claims equal those the figure binaries
//! compute.

use crate::harness::{guarded, percentile, timed, Claim, Ctx, Fnv, StoreCounts, Workload};
use crate::trace::GLUE;
use nestless::topology::{self, Config};
use workloads::netperf::{Netperf, NetperfRun};
use workloads::{run_memcached, MemtierParams};

/// What a cell measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    UdpRr,
    TcpStream,
    TcpRr,
    Memcached,
}

/// One (kind, configuration, message size) simulation.
#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: Kind,
    config: Config,
    size: u32,
}

impl Cell {
    /// The cell's simulation seed: `Sweep`'s per-cell derivation for
    /// Netperf cells, fig. 11's `110 + i` (at seed 42) for memcached.
    fn seed(&self, base: u64, memcached_idx: u64) -> u64 {
        let mode = match self.kind {
            Kind::UdpRr => 0,
            Kind::TcpStream => 1,
            Kind::TcpRr => 2,
            Kind::Memcached => return base.wrapping_add(68 + memcached_idx),
        };
        base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(self.size) * 7 + mode)
    }

    fn label(&self) -> &'static str {
        match self.kind {
            Kind::UdpRr => "Netperf::udp_rr",
            Kind::TcpStream => "Netperf::tcp_stream",
            Kind::TcpRr => "Netperf::tcp_rr",
            Kind::Memcached => "run_memcached",
        }
    }
}

/// Paper-fidelity cells: UDP_RR and TCP_STREAM at 64/1024/1280 B on every
/// configuration, then memcached on fig. 11's four configurations.
fn packet_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for config in Config::ALL {
        for size in [64, 1024, 1280] {
            for kind in [Kind::UdpRr, Kind::TcpStream] {
                cells.push(Cell { kind, config, size });
            }
        }
    }
    for config in [
        Config::Hostlo,
        Config::NatCross,
        Config::Overlay,
        Config::SameNode,
    ] {
        cells.push(Cell {
            kind: Kind::Memcached,
            config,
            size: 0,
        });
    }
    cells
}

/// Hybrid-fidelity cells: long request/response flows the flow table
/// promotes, windowed streams it keeps at packet level, and cross-VM
/// flows it never promotes.
fn hybrid_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for config in [
        Config::Nat,
        Config::NoCont,
        Config::BrFusion,
        Config::NatCross,
    ] {
        for size in [64, 1280, 8192] {
            for kind in [Kind::UdpRr, Kind::TcpRr] {
                cells.push(Cell { kind, config, size });
            }
        }
    }
    for config in [Config::Nat, Config::NoCont, Config::BrFusion] {
        cells.push(Cell {
            kind: Kind::TcpStream,
            config,
            size: 1280,
        });
    }
    for config in [Config::Hostlo, Config::Overlay] {
        cells.push(Cell {
            kind: Kind::UdpRr,
            config,
            size: 1280,
        });
    }
    cells
}

/// One cell's outcome.
struct CellOut {
    /// Mean latency (us) for RR and memcached cells, mean throughput
    /// (Mbit/s) for streams.
    value: f64,
    /// Memcached throughput (responses/s); 0 for Netperf cells.
    rate: f64,
    digest: u64,
}

/// The Netperf/memcached workloads.
pub struct Cells {
    name: &'static str,
    cells: Vec<Cell>,
    /// Value of each cell in the last rep (`None` when it failed).
    values: Vec<Option<(f64, f64)>>,
    cell_ms: Vec<f64>,
    build_us: Vec<f64>,
    hybrid: bool,
}

impl Cells {
    /// `paper_packet`.
    pub fn packet() -> Cells {
        Cells::new("paper_packet", packet_cells(), false)
    }

    /// `steady_hybrid` (the caller sets `SIMNET_FIDELITY=hybrid`).
    pub fn hybrid() -> Cells {
        Cells::new("steady_hybrid", hybrid_cells(), true)
    }

    fn new(name: &'static str, cells: Vec<Cell>, hybrid: bool) -> Cells {
        Cells {
            name,
            values: vec![None; cells.len()],
            cells,
            cell_ms: Vec::new(),
            build_us: Vec::new(),
            hybrid,
        }
    }

    fn netperf(&self, ctx: &Ctx, size: u32) -> Netperf {
        let (duration, warmup) = if self.hybrid {
            (ctx.scale.hybrid, ctx.scale.hybrid_warmup)
        } else {
            (ctx.scale.netperf, ctx.scale.netperf_warmup)
        };
        Netperf {
            msg_size: size,
            duration,
            warmup,
            window: 64,
        }
    }

    /// Simulation seed of cell `i`.
    fn cell_seed(&self, base: u64, i: usize) -> u64 {
        let memcached_idx = self.cells[..i]
            .iter()
            .filter(|c| c.kind == Kind::Memcached)
            .count() as u64;
        self.cells[i].seed(base, memcached_idx)
    }

    /// Runs cell `i` inside a span; `None` when it panicked or came back
    /// empty.
    fn run_cell(&self, ctx: &mut Ctx, i: usize, counts: &mut StoreCounts) -> Option<CellOut> {
        let cell = self.cells[i];
        let seed = self.cell_seed(ctx.seed, i);
        if cell.kind == Kind::Memcached {
            let params = MemtierParams {
                duration: ctx.scale.memcached,
                warmup: ctx.scale.memcached_warmup,
                ..MemtierParams::paper()
            };
            let r = ctx.rec.span("workloads", cell.label(), || {
                guarded(|| run_memcached(params, cell.config, seed))
            })?;
            if r.latency_us.count == 0 || r.throughput_per_s <= 0.0 {
                return None;
            }
            let (p50, p90, p99) = r.latency_percentiles_us;
            let digest = Fnv::new()
                .summary(&r.latency_us)
                .f64(r.throughput_per_s)
                .f64(p50)
                .f64(p90)
                .f64(p99)
                .finish();
            return Some(CellOut {
                value: r.latency_us.mean,
                rate: r.throughput_per_s,
                digest,
            });
        }
        let np = self.netperf(ctx, cell.size);
        let run: NetperfRun = ctx.rec.span("workloads", cell.label(), || {
            guarded(|| match cell.kind {
                Kind::UdpRr => np.udp_rr(cell.config, seed),
                Kind::TcpRr => np.tcp_rr(cell.config, seed),
                _ => np.tcp_stream(cell.config, seed),
            })
        })?;
        let summary = run.latency_us.or(run.throughput_mbps)?;
        if summary.count == 0 {
            return None;
        }
        let net = run.testbed.vmm.network();
        counts.add(net.store(), net.events_processed());
        let digest = ctx.rec.span(GLUE, "digest", || {
            Fnv::new()
                .summary(&summary)
                .u64(net.events_processed())
                .u64(crate::harness::store_digest(net.store()))
                .finish()
        });
        Some(CellOut {
            value: summary.mean,
            rate: 0.0,
            digest,
        })
    }

    /// Value of the last rep's cell matching `kind`, `config`, `size`.
    fn value(&self, kind: Kind, config: Config, size: u32) -> Option<f64> {
        let i = self
            .cells
            .iter()
            .position(|c| c.kind == kind && c.config == config && c.size == size)?;
        self.values[i].map(|(v, _)| v)
    }

    /// Memcached (latency, throughput) of `config` in the last rep.
    fn memcached(&self, config: Config) -> Option<(f64, f64)> {
        let i = self
            .cells
            .iter()
            .position(|c| c.kind == Kind::Memcached && c.config == config)?;
        self.values[i]
    }
}

impl Workload for Cells {
    fn name(&self) -> &'static str {
        self.name
    }

    fn warm_up(&mut self, ctx: &mut Ctx) {
        let ok = self.run_cell(ctx, 0, &mut StoreCounts::default()).is_some();
        ctx.tally(ok);
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Vec<u64> {
        let mut counts = StoreCounts::default();
        let mut digests = Vec::with_capacity(self.cells.len());
        let mut netperf_s = 0.0;
        for i in 0..self.cells.len() {
            // Netperf and memcached build their testbed inside the cell's
            // call, so set-up is timed by building it once more on its own.
            let (config, seed) = (self.cells[i].config, self.cell_seed(ctx.seed, i));
            let (testbed, secs) = ctx.setup(|ctx| {
                timed(|| {
                    ctx.rec.span("topology", "topology::build", || {
                        topology::build(config, seed)
                    })
                })
            });
            drop(testbed);
            self.build_us.push(secs * 1e6);
            let (out, secs) = ctx.op("cell", |ctx| timed(|| self.run_cell(ctx, i, &mut counts)));
            ctx.tally(out.is_some());
            self.cell_ms.push(secs * 1e3);
            if self.cells[i].kind != Kind::Memcached {
                netperf_s += secs;
            }
            digests.push(out.as_ref().map_or(0, |o| o.digest));
            self.values[i] = out.map(|o| (o.value, o.rate));
        }
        counts.publish(ctx);
        ctx.set("topology.build_us_p50", percentile(&self.build_us, 50.0));
        ctx.set(
            "engine.ns_per_event",
            netperf_s * 1e9 / counts.events().max(1.0),
        );
        ctx.set("workloads.cells", self.cells.len() as f64);
        ctx.set("workloads.cell_ms_p50", percentile(&self.cell_ms, 50.0));
        ctx.set("workloads.cell_ms_p90", percentile(&self.cell_ms, 90.0));
        digests
    }

    fn claims(&self) -> Vec<Claim> {
        let lat = |c, s| self.value(Kind::UdpRr, c, s);
        let tput = |c, s| self.value(Kind::TcpStream, c, s);
        let mut claims = Vec::new();
        let mut push = |what, paper, measured: Option<f64>| {
            if let Some(measured) = measured {
                claims.push(Claim {
                    what,
                    paper,
                    measured,
                });
            }
        };
        use Config::*;
        // Fig. 2: nested NAT against single-level virtualization.
        let (t_nat, t_nocont, t_brf) = (tput(Nat, 1280), tput(NoCont, 1280), tput(BrFusion, 1280));
        let (l_nat, l_nocont, l_brf) = (lat(Nat, 1280), lat(NoCont, 1280), lat(BrFusion, 1280));
        let both = |a: Option<f64>, b: Option<f64>| a.zip(b);
        push(
            "fig02 throughput degradation @1280B (%)",
            68.0,
            both(t_nat, t_nocont).map(|(n, c)| (1.0 - n / c) * 100.0),
        );
        push(
            "fig02 latency increase @1280B (%)",
            31.0,
            both(l_nat, l_nocont).map(|(n, c)| (n / c - 1.0) * 100.0),
        );
        // Fig. 4: BrFusion against NAT and NoCont.
        push(
            "fig04 BrFusion/NAT throughput @1280B (x)",
            2.1,
            both(t_brf, t_nat).map(|(b, n)| b / n),
        );
        push(
            "fig04 BrFusion latency reduction vs NAT @1280B (%)",
            18.4,
            both(l_brf, l_nat).map(|(b, n)| (1.0 - b / n) * 100.0),
        );
        push(
            "fig04 BrFusion gap to NoCont (tput) @1280B (%)",
            3.5,
            both(t_nocont, t_brf).map(|(c, b)| (c - b).abs() / c * 100.0),
        );
        if self.hybrid {
            return claims;
        }
        // Fig. 10: Hostlo across VMs at 1024 B.
        let (th, tn, to, ts) = (
            tput(Hostlo, 1024),
            tput(NatCross, 1024),
            tput(Overlay, 1024),
            tput(SameNode, 1024),
        );
        let (lh, ln, lo, ls) = (
            lat(Hostlo, 1024),
            lat(NatCross, 1024),
            lat(Overlay, 1024),
            lat(SameNode, 1024),
        );
        push(
            "fig10 Hostlo tput above NAT @1024B (%)",
            17.9,
            both(th, tn).map(|(h, n)| (h / n - 1.0) * 100.0),
        );
        push(
            "fig10 Hostlo tput below Overlay @1024B (%)",
            27.0,
            both(th, to).map(|(h, o)| (1.0 - h / o) * 100.0),
        );
        push(
            "fig10 SameNode/Hostlo tput @1024B (x)",
            5.3,
            both(ts, th).map(|(s, h)| s / h),
        );
        push(
            "fig10 Hostlo latency below NAT @1024B (%)",
            87.3,
            both(lh, ln).map(|(h, n)| (1.0 - h / n) * 100.0),
        );
        push(
            "fig10 Hostlo latency below Overlay @1024B (%)",
            89.8,
            both(lh, lo).map(|(h, o)| (1.0 - h / o) * 100.0),
        );
        push(
            "fig10 Hostlo/SameNode latency @1024B (x)",
            2.0,
            both(lh, ls).map(|(h, s)| h / s),
        );
        // Fig. 11: memcached under Hostlo reaches SameNode.
        let m_lat = |c| self.memcached(c).map(|(l, _)| l);
        let m_tput = |c| self.memcached(c).map(|(_, t)| t);
        push(
            "fig11 Hostlo/SameNode memcached throughput (x)",
            1.0,
            both(m_tput(Hostlo), m_tput(SameNode)).map(|(h, s)| h / s),
        );
        push(
            "fig11 NAT/Hostlo memcached latency (x)",
            2.0,
            both(m_lat(NatCross), m_lat(Hostlo)).map(|(n, h)| n / h),
        );
        push(
            "fig11 Overlay/Hostlo memcached latency (x)",
            2.0,
            both(m_lat(Overlay), m_lat(Hostlo)).map(|(o, h)| o / h),
        );
        claims
    }
}
