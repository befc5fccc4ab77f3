//! NGINX + wrk2 (Table 1).
//!
//! "NGINX, a web server; benchmark wrk2; parameters: 2 threads, 100
//! connections total, 10 k req/s on a 1 kB file; metric: latency."
//!
//! wrk2 is an *open-loop* driver: requests are issued on a fixed schedule
//! regardless of completions, so queueing at the server directly inflates
//! the measured latency — which is why the paper observes standard
//! deviations of up to twice the average (§5.2.2). The paper attributes
//! most of NGINX's containerized overhead "to the software itself rather
//! than to the networking layer": the containerized service profile below
//! carries that extra, spiky per-request work.

use crate::report::{MacroResult, ServiceProfile};
use metrics::MetricId;
use nestless::topology::{build, Config, CLIENT_PORT, SERVER_PORT};
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::frame::Payload;
use simnet::StopCondition;
use simnet::{SimDuration, SimTime, SockAddr};

/// wrk2 parameters (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct Wrk2Params {
    /// Driver threads.
    pub threads: u32,
    /// Total connections.
    pub connections: u32,
    /// Offered request rate per second.
    pub rate_per_s: u64,
    /// Served file size in bytes.
    pub file_size: u32,
    /// Measured duration.
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
}

impl Wrk2Params {
    /// The paper's Table 1 parameters.
    pub fn paper() -> Wrk2Params {
        Wrk2Params {
            threads: 2,
            connections: 100,
            rate_per_s: 10_000,
            file_size: 1_024,
            duration: SimDuration::secs(1),
            warmup: SimDuration::millis(100),
        }
    }
}

/// The NGINX server model: parse + sendfile of a cached 1 kB file.
pub struct NginxServer {
    service: ServiceProfile,
    file_size: u32,
}

impl NginxServer {
    /// Creates the server; `containerized` adds the container runtime's
    /// per-request overhead (overlayfs access logging, cgroup accounting),
    /// the spiky "software itself" cost of §5.2.2.
    pub fn new(file_size: u32, containerized: bool) -> NginxServer {
        let service = if containerized {
            ServiceProfile {
                base_us: 34.0,
                jitter_frac: 0.5,
                spike_prob: 0.018,
                spike_mult: 18.0,
            }
        } else {
            ServiceProfile {
                base_us: 26.0,
                jitter_frac: 0.35,
                spike_prob: 0.01,
                spike_mult: 8.0,
            }
        };
        NginxServer { service, file_size }
    }
}

impl Application for NginxServer {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let d = self.service.sample(api.rng());
        api.compute(d);
        let mut p = Payload::sized(self.file_size + 220); // body + headers
        p.tag = msg.payload.tag;
        p.sent_at = msg.payload.sent_at;
        api.send_udp(SERVER_PORT, msg.src, p);
    }
}

const TICK: u64 = 1;

/// The wrk2 client model: constant-rate open-loop request generator.
pub struct Wrk2Client {
    target: SockAddr,
    params: Wrk2Params,
    warmup_until: SimTime,
    interval: SimDuration,
    seq: u64,
    sent_id: Option<MetricId>,
    latency_id: Option<MetricId>,
}

impl Wrk2Client {
    /// Creates the driver.
    pub fn new(target: SockAddr, params: Wrk2Params, warmup_until: SimTime) -> Wrk2Client {
        let interval = SimDuration::nanos(1_000_000_000 / params.rate_per_s);
        Wrk2Client {
            target,
            params,
            warmup_until,
            interval,
            seq: 0,
            sent_id: None,
            latency_id: None,
        }
    }

    fn fire(&mut self, api: &mut AppApi<'_, '_>) {
        self.seq += 1;
        let mut p = Payload::sized(96); // GET request line + headers
        p.tag = self.seq;
        api.send_udp(CLIENT_PORT, self.target, p);
        let id = *self.sent_id.get_or_insert_with(|| api.metric("wrk2.sent"));
        api.count_id(id, 1.0);
    }
}

impl Application for Wrk2Client {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.fire(api);
        api.set_timer(self.interval, TICK);
    }

    fn on_timer(&mut self, token: u64, api: &mut AppApi<'_, '_>) {
        assert_eq!(token, TICK);
        self.fire(api);
        api.set_timer(self.interval, TICK);
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        assert_eq!(
            msg.payload.len,
            self.params.file_size + 220,
            "full file served"
        );
        if api.now() >= self.warmup_until {
            let latency = api.now().since(msg.payload.sent_at);
            let id = *self
                .latency_id
                .get_or_insert_with(|| api.metric("nginx.latency_us"));
            api.record_id(id, latency.as_micros_f64());
        }
    }
}

/// Runs the NGINX macro-benchmark on `config`.
pub fn run_nginx(params: Wrk2Params, config: Config, seed: u64) -> MacroResult {
    let mut tb = build(config, seed);
    let containerized = config != Config::NoCont;
    let target = tb.target;
    let warmup_until = SimTime::ZERO + params.warmup;
    let server = tb.install(
        "nginx",
        &tb.server.clone(),
        [SERVER_PORT],
        Box::new(NginxServer::new(params.file_size, containerized)),
    );
    let client = tb.install(
        "wrk2",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(Wrk2Client::new(target, params, warmup_until)),
    );
    tb.start(&[server, client]);
    tb.vmm
        .network_mut()
        .run(StopCondition::For(params.warmup + params.duration));
    MacroResult::collect(&tb, "nginx.latency_us", params.duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Wrk2Params {
        Wrk2Params {
            duration: SimDuration::millis(200),
            warmup: SimDuration::millis(50),
            ..Wrk2Params::paper()
        }
    }

    #[test]
    fn paper_params_match_table1() {
        let p = Wrk2Params::paper();
        assert_eq!(p.threads, 2);
        assert_eq!(p.connections, 100);
        assert_eq!(p.rate_per_s, 10_000);
        assert_eq!(p.file_size, 1_024);
    }

    #[test]
    fn open_loop_rate_is_respected() {
        let r = run_nginx(quick(), Config::NoCont, 5);
        // 10k req/s offered; completions should be close to offered.
        assert!(
            (8_000.0..=11_000.0).contains(&r.throughput_per_s),
            "resp/s = {}",
            r.throughput_per_s
        );
    }

    #[test]
    fn containerized_nginx_is_much_slower_than_native() {
        // §5.2.2: even BrFusion stays >100% above NoCont — the software
        // itself dominates.
        let brf = run_nginx(quick(), Config::BrFusion, 5);
        let nocont = run_nginx(quick(), Config::NoCont, 5);
        assert!(
            brf.latency_us.mean > 1.5 * nocont.latency_us.mean,
            "BrFusion {} vs NoCont {}",
            brf.latency_us.mean,
            nocont.latency_us.mean
        );
    }

    #[test]
    fn containerized_latency_is_high_variance() {
        let nat = run_nginx(quick(), Config::Nat, 5);
        assert!(
            nat.latency_us.cv() > 0.8,
            "containerized NGINX latency should be spiky, cv = {}",
            nat.latency_us.cv()
        );
    }
}
