//! Memcached + memtier_benchmark (Table 1).
//!
//! "Memcached, a key-value store; benchmark memtier_benchmark; parameters:
//! 4 threads, 50 connections/thread, SET:GET = 1:10; metrics: responses/s,
//! latency."
//!
//! The client is a closed-loop multi-connection driver: 200 logical
//! connections each keep exactly one request outstanding. Requests are SETs
//! with probability 1/11 and GETs otherwise.

use crate::report::{MacroResult, ServiceProfile};
use metrics::MetricId;
use nestless::topology::{build, Config, CLIENT_PORT, SERVER_PORT};
use rand::Rng;
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::frame::Payload;
use simnet::StopCondition;
use simnet::{SimDuration, SimTime, SockAddr};

/// memtier parameters (Table 1 defaults).
#[derive(Debug, Clone, Copy)]
pub struct MemtierParams {
    /// Driver threads.
    pub threads: u32,
    /// Connections per thread.
    pub conns_per_thread: u32,
    /// SET weight in SET:GET (1 in the paper).
    pub set_weight: u32,
    /// GET weight in SET:GET (10 in the paper).
    pub get_weight: u32,
    /// Stored value size in bytes.
    pub value_size: u32,
    /// Measured duration.
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
}

impl MemtierParams {
    /// The paper's Table 1 parameters (duration shortened: the simulation
    /// is deterministic and converges fast).
    pub fn paper() -> MemtierParams {
        MemtierParams {
            threads: 4,
            conns_per_thread: 50,
            set_weight: 1,
            get_weight: 10,
            value_size: 128,
            duration: SimDuration::secs(1),
            warmup: SimDuration::millis(100),
        }
    }

    /// Total concurrent connections.
    pub fn connections(&self) -> u32 {
        self.threads * self.conns_per_thread
    }
}

/// The Memcached server model: O(1) hash work per request, small response
/// for SETs, value-sized response for GETs.
pub struct MemcachedServer {
    service: ServiceProfile,
    value_size: u32,
}

impl MemcachedServer {
    /// Creates the server; `containerized` adds the container runtime's
    /// overhead to the per-request work.
    pub fn new(value_size: u32, containerized: bool) -> MemcachedServer {
        let service = if containerized {
            ServiceProfile {
                base_us: 2.4,
                jitter_frac: 0.3,
                spike_prob: 0.01,
                spike_mult: 8.0,
            }
        } else {
            ServiceProfile {
                base_us: 2.0,
                jitter_frac: 0.25,
                spike_prob: 0.008,
                spike_mult: 8.0,
            }
        };
        MemcachedServer {
            service,
            value_size,
        }
    }
}

/// Tag layout: high bit set = SET request.
const SET_BIT: u64 = 1 << 63;

impl Application for MemcachedServer {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let d = self.service.sample(api.rng());
        api.compute(d);
        let is_set = msg.payload.tag & SET_BIT != 0;
        let mut p = Payload::sized(if is_set { 8 } else { self.value_size });
        p.tag = msg.payload.tag;
        p.sent_at = msg.payload.sent_at;
        api.send_udp(SERVER_PORT, msg.src, p);
    }
}

/// The memtier client model.
pub struct MemtierClient {
    target: SockAddr,
    params: MemtierParams,
    warmup_until: SimTime,
    seq: u64,
    sent_id: Option<MetricId>,
    latency_id: Option<MetricId>,
}

impl MemtierClient {
    /// Creates the driver.
    pub fn new(target: SockAddr, params: MemtierParams, warmup_until: SimTime) -> MemtierClient {
        MemtierClient {
            target,
            params,
            warmup_until,
            seq: 0,
            sent_id: None,
            latency_id: None,
        }
    }

    fn fire(&mut self, conn: u64, api: &mut AppApi<'_, '_>) {
        self.seq += 1;
        let total = self.params.set_weight + self.params.get_weight;
        let is_set = api.rng().gen_range(0..total) < self.params.set_weight;
        let mut p = Payload::sized(if is_set {
            32 + self.params.value_size
        } else {
            48
        });
        // Tag: SET bit | connection | sequence (connection in bits 32..56).
        p.tag = (if is_set { SET_BIT } else { 0 }) | (conn << 32) | (self.seq & 0xFFFF_FFFF);
        api.send_udp(CLIENT_PORT, self.target, p);
        let id = *self
            .sent_id
            .get_or_insert_with(|| api.metric("memtier.sent"));
        api.count_id(id, 1.0);
    }
}

impl Application for MemtierClient {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        for conn in 0..u64::from(self.params.connections()) {
            self.fire(conn, api);
        }
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if api.now() >= self.warmup_until {
            let latency = api.now().since(msg.payload.sent_at);
            let id = *self
                .latency_id
                .get_or_insert_with(|| api.metric("memcached.latency_us"));
            api.record_id(id, latency.as_micros_f64());
        }
        let conn = (msg.payload.tag & !SET_BIT) >> 32;
        self.fire(conn, api);
    }
}

/// Runs the Memcached macro-benchmark on `config`.
pub fn run_memcached(params: MemtierParams, config: Config, seed: u64) -> MacroResult {
    let mut tb = build(config, seed);
    // memtier's 4 threads x 50 connections plus the server oversubscribe a
    // single 5-vCPU VM (the SameNode "extreme variability" of §5.3.3).
    tb.share_app_station_if_colocated();
    let containerized = config != Config::NoCont;
    let target = tb.target;
    let warmup_until = SimTime::ZERO + params.warmup;
    let server = tb.install(
        "memcached",
        &tb.server.clone(),
        [SERVER_PORT],
        Box::new(MemcachedServer::new(params.value_size, containerized)),
    );
    let client = tb.install(
        "memtier",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(MemtierClient::new(target, params, warmup_until)),
    );
    tb.start(&[server, client]);
    tb.vmm
        .network_mut()
        .run(StopCondition::For(params.warmup + params.duration));
    MacroResult::collect(&tb, "memcached.latency_us", params.duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MemtierParams {
        MemtierParams {
            duration: SimDuration::millis(200),
            warmup: SimDuration::millis(50),
            ..MemtierParams::paper()
        }
    }

    #[test]
    fn paper_params_match_table1() {
        let p = MemtierParams::paper();
        assert_eq!(p.threads, 4);
        assert_eq!(p.conns_per_thread, 50);
        assert_eq!(p.connections(), 200);
        assert_eq!((p.set_weight, p.get_weight), (1, 10));
    }

    #[test]
    fn memcached_reports_throughput_and_latency() {
        let r = run_memcached(quick(), Config::NoCont, 3);
        assert!(
            r.throughput_per_s > 1_000.0,
            "resp/s = {}",
            r.throughput_per_s
        );
        assert!(r.latency_us.mean > 0.0);
        assert!(r.latency_us.count > 100);
    }

    #[test]
    fn nested_nat_slower_than_nocont() {
        let nat = run_memcached(quick(), Config::Nat, 3);
        let nocont = run_memcached(quick(), Config::NoCont, 3);
        assert!(nat.throughput_per_s < nocont.throughput_per_s);
        assert!(nat.latency_us.mean > nocont.latency_us.mean);
    }

    #[test]
    fn cpu_breakdowns_present() {
        let r = run_memcached(quick(), Config::Nat, 3);
        let vm = r.cpu_server_vm.expect("server runs in a VM");
        assert!(vm.total() > 0.0);
        assert!(r.cpu_host.guest > 0.0, "host must see guest time");
    }
}
