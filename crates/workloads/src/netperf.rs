//! The Netperf micro-benchmark (§5.1).
//!
//! "We use Netperf's UDP_RR and TCP_STREAM benchmarking modes for latency
//! and throughput evaluations respectively. UDP_RR measures request/
//! response time by sending synchronous transactions, one at a time; while
//! TCP_STREAM sends as much data as possible for a specified duration. We
//! measure the performance over different message sizes."
//!
//! `TCP_STREAM` is modeled as a fixed-window stream of TSO-sized frames
//! (virtio lets the guest hand 16-64 KiB super-frames to vhost, so one
//! message = one frame across the sweep); throughput emerges from the
//! bottleneck station of the configured path.

use metrics::{MetricId, OnlineStats, Summary};
use nestless::topology::{build, Config, Testbed, CLIENT_PORT, SERVER_PORT};
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::frame::{Payload, TcpKind};
use simnet::StopCondition;
use simnet::{SimDuration, SimTime, SockAddr};

/// Message sizes swept by figs. 2, 4 and 10 (bytes).
pub const MESSAGE_SIZES: [u32; 9] = [64, 128, 256, 512, 1024, 1280, 2048, 4096, 8192];

/// UDP echo server (the Netperf UDP_RR responder).
pub struct UdpEchoServer;

impl Application for UdpEchoServer {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        // UDP_RR: respond with a message of the same size, same tag.
        let mut p = Payload::sized(msg.payload.len);
        p.tag = msg.payload.tag;
        p.sent_at = msg.payload.sent_at; // carry the client's send stamp back
        api.send_udp(SERVER_PORT, msg.src, p);
    }
}

/// How long an RR transaction may stay unanswered before the client
/// retransmits (failure injection: lossy links would otherwise stall the
/// closed loop forever).
const RR_TIMEOUT: SimDuration = SimDuration::millis(5);

/// UDP_RR client: synchronous transactions, one at a time, with a
/// retransmit timer so injected frame loss cannot wedge the loop.
struct UdpRrClient {
    target: SockAddr,
    msg_size: u32,
    warmup_until: SimTime,
    next_tag: u64,
    rtt_id: Option<MetricId>,
    timeouts_id: Option<MetricId>,
}

impl UdpRrClient {
    fn fire(&mut self, api: &mut AppApi<'_, '_>) {
        self.next_tag += 1;
        self.resend(api);
    }

    fn resend(&mut self, api: &mut AppApi<'_, '_>) {
        let mut p = Payload::sized(self.msg_size);
        p.tag = self.next_tag;
        api.send_udp(CLIENT_PORT, self.target, p);
        api.set_timer(RR_TIMEOUT, self.next_tag);
    }
}

impl Application for UdpRrClient {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.fire(api);
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if msg.payload.tag == self.next_tag {
            if api.now() >= self.warmup_until {
                let rtt = api.now().since(msg.payload.sent_at);
                let id = *self
                    .rtt_id
                    .get_or_insert_with(|| api.metric("netperf.rtt_us"));
                api.record_id(id, rtt.as_micros_f64());
            }
            self.fire(api);
        }
        // Stale replies (late duplicates of retransmitted transactions)
        // are ignored.
    }

    fn on_timer(&mut self, token: u64, api: &mut AppApi<'_, '_>) {
        if token == self.next_tag {
            // The transaction is still outstanding: the request or the
            // response was lost.
            let id = *self
                .timeouts_id
                .get_or_insert_with(|| api.metric("netperf.rr_timeouts"));
            api.count_id(id, 1.0);
            self.resend(api);
        }
    }
}

/// TCP_STREAM receiver: acknowledges data segments and accounts bytes.
pub struct TcpStreamServer {
    /// Ignore bytes before this instant (warm-up).
    pub warmup_until: SimTime,
    bytes_id: Option<MetricId>,
    t_ns_id: Option<MetricId>,
    len_id: Option<MetricId>,
}

impl TcpStreamServer {
    /// A receiver that ignores bytes before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> TcpStreamServer {
        TcpStreamServer {
            warmup_until,
            bytes_id: None,
            t_ns_id: None,
            len_id: None,
        }
    }
}

impl Application for TcpStreamServer {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let Some((seq, TcpKind::Data)) = msg.tcp else {
            return;
        };
        if api.now() >= self.warmup_until {
            let bytes = *self
                .bytes_id
                .get_or_insert_with(|| api.metric("netperf.rx_bytes"));
            api.count_id(bytes, msg.payload.len as f64);
            let t_ns = *self
                .t_ns_id
                .get_or_insert_with(|| api.metric("netperf.rx_t_ns"));
            api.record_id(t_ns, api.now().as_nanos() as f64);
            let len = *self
                .len_id
                .get_or_insert_with(|| api.metric("netperf.rx_len"));
            api.record_id(len, msg.payload.len as f64);
        }
        api.send_tcp(SERVER_PORT, msg.src, seq, TcpKind::Ack, Payload::sized(0));
    }
}

/// TCP_STREAM sender: keeps `window` segments in flight.
struct TcpStreamClient {
    target: SockAddr,
    msg_size: u32,
    window: u32,
    next_seq: u64,
}

impl TcpStreamClient {
    fn send_one(&mut self, api: &mut AppApi<'_, '_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        api.send_tcp(
            CLIENT_PORT,
            self.target,
            seq,
            TcpKind::Data,
            Payload::sized(self.msg_size),
        );
    }
}

impl Application for TcpStreamClient {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        for _ in 0..self.window {
            self.send_one(api);
        }
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if matches!(msg.tcp, Some((_, TcpKind::Ack))) {
            self.send_one(api);
        }
    }
}

/// TCP_RR client: synchronous request/response transactions over TCP
/// (netperf's third classic mode; not swept by the paper's figures but
/// part of a complete Netperf driver).
struct TcpRrClient {
    target: SockAddr,
    msg_size: u32,
    warmup_until: SimTime,
    seq: u64,
    rtt_id: Option<MetricId>,
}

impl TcpRrClient {
    fn fire(&mut self, api: &mut AppApi<'_, '_>) {
        self.seq += 1;
        let mut p = Payload::sized(self.msg_size);
        p.tag = self.seq;
        api.send_tcp(CLIENT_PORT, self.target, self.seq, TcpKind::Data, p);
    }
}

impl Application for TcpRrClient {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.fire(api);
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if let Some((seq, TcpKind::Data)) = msg.tcp {
            if seq == self.seq {
                if api.now() >= self.warmup_until {
                    let rtt = api.now().since(msg.payload.sent_at);
                    let id = *self
                        .rtt_id
                        .get_or_insert_with(|| api.metric("netperf.tcp_rtt_us"));
                    api.record_id(id, rtt.as_micros_f64());
                }
                self.fire(api);
            }
        }
    }
}

/// TCP_RR responder: answers each data segment with a same-sized data
/// segment (the transactional pattern, unlike the stream server's ACKs).
pub struct TcpRrServer;

impl Application for TcpRrServer {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let Some((seq, TcpKind::Data)) = msg.tcp else {
            return;
        };
        let mut p = Payload::sized(msg.payload.len);
        p.tag = msg.payload.tag;
        p.sent_at = msg.payload.sent_at;
        api.send_tcp(SERVER_PORT, msg.src, seq, TcpKind::Data, p);
    }
}

/// Result of one Netperf run.
pub struct NetperfRun {
    /// Average request latency (UDP_RR), microseconds.
    pub latency_us: Option<Summary>,
    /// Throughput (TCP_STREAM), Mbit/s, summarized over 100 ms bins.
    pub throughput_mbps: Option<Summary>,
    /// The testbed after the run (for CPU accounting inspection).
    pub testbed: Testbed,
}

/// Netperf harness parameters.
///
/// ```
/// use nestless_workloads::netperf::Netperf;
/// use nestless::topology::Config;
/// use simnet::SimDuration;
///
/// let np = Netperf {
///     msg_size: 1280,
///     duration: SimDuration::millis(50),
///     warmup: SimDuration::millis(10),
///     window: 64,
/// };
/// let nat = np.udp_rr(Config::Nat, 1).latency_us.unwrap();
/// let nocont = np.udp_rr(Config::NoCont, 1).latency_us.unwrap();
/// assert!(nat.mean > nocont.mean, "nested NAT is slower");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Netperf {
    /// Message size in bytes.
    pub msg_size: u32,
    /// Measured duration (the paper streams for 20 s; the default here is
    /// shorter — the simulation is deterministic so the estimate converges
    /// much faster than on hardware).
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// TCP window (in-flight segments).
    pub window: u32,
}

impl Default for Netperf {
    fn default() -> Self {
        Netperf {
            msg_size: 1280,
            duration: SimDuration::secs(2),
            warmup: SimDuration::millis(100),
            window: 64,
        }
    }
}

impl Netperf {
    /// With a given message size.
    pub fn with_size(msg_size: u32) -> Netperf {
        Netperf {
            msg_size,
            ..Default::default()
        }
    }

    /// Runs UDP_RR on `config`; returns the latency summary (microseconds).
    pub fn udp_rr(&self, config: Config, seed: u64) -> NetperfRun {
        self.udp_rr_on(build(config, seed))
    }

    /// Runs UDP_RR on a testbed the caller built, e.g. with
    /// [`build_with`](nestless::topology::build_with) ablation options.
    pub fn udp_rr_on(&self, mut tb: Testbed) -> NetperfRun {
        let warmup_until = SimTime::ZERO + self.warmup;
        let target = tb.target;
        let server = tb.install(
            "netperf-server",
            &tb.server.clone(),
            [SERVER_PORT],
            Box::new(UdpEchoServer),
        );
        let client = tb.install(
            "netperf-client",
            &tb.client.clone(),
            [CLIENT_PORT],
            Box::new(UdpRrClient {
                target,
                msg_size: self.msg_size,
                warmup_until,
                next_tag: 0,
                rtt_id: None,
                timeouts_id: None,
            }),
        );
        tb.start(&[server, client]);
        tb.vmm
            .network_mut()
            .run(StopCondition::For(self.warmup + self.duration));
        let stats: OnlineStats = tb
            .vmm
            .network()
            .store()
            .samples("netperf.rtt_us")
            .iter()
            .copied()
            .collect();
        assert!(
            stats.count() > 0,
            "UDP_RR produced no transactions on {:?}",
            tb.config
        );
        NetperfRun {
            latency_us: Some(stats.summary()),
            throughput_mbps: None,
            testbed: tb,
        }
    }

    /// Runs TCP_RR on `config`; returns the latency summary (microseconds).
    pub fn tcp_rr(&self, config: Config, seed: u64) -> NetperfRun {
        let mut tb = build(config, seed);
        let warmup_until = SimTime::ZERO + self.warmup;
        let target = tb.target;
        let server = tb.install(
            "netperf-server",
            &tb.server.clone(),
            [SERVER_PORT],
            Box::new(TcpRrServer),
        );
        let client = tb.install(
            "netperf-client",
            &tb.client.clone(),
            [CLIENT_PORT],
            Box::new(TcpRrClient {
                target,
                msg_size: self.msg_size,
                warmup_until,
                seq: 0,
                rtt_id: None,
            }),
        );
        tb.start(&[server, client]);
        tb.vmm
            .network_mut()
            .run(StopCondition::For(self.warmup + self.duration));
        let stats: OnlineStats = tb
            .vmm
            .network()
            .store()
            .samples("netperf.tcp_rtt_us")
            .iter()
            .copied()
            .collect();
        assert!(
            stats.count() > 0,
            "TCP_RR produced no transactions on {config:?}"
        );
        NetperfRun {
            latency_us: Some(stats.summary()),
            throughput_mbps: None,
            testbed: tb,
        }
    }

    /// Runs TCP_STREAM on `config`; returns the throughput summary (Mbit/s
    /// over 100 ms bins).
    pub fn tcp_stream(&self, config: Config, seed: u64) -> NetperfRun {
        self.tcp_stream_on(build(config, seed))
    }

    /// Runs TCP_STREAM on a testbed the caller built, e.g. with
    /// [`build_with`](nestless::topology::build_with) ablation options.
    pub fn tcp_stream_on(&self, mut tb: Testbed) -> NetperfRun {
        let warmup_until = SimTime::ZERO + self.warmup;
        let target = tb.target;
        let server = tb.install(
            "netperf-server",
            &tb.server.clone(),
            [SERVER_PORT],
            Box::new(TcpStreamServer::new(warmup_until)),
        );
        let client = tb.install(
            "netperf-client",
            &tb.client.clone(),
            [CLIENT_PORT],
            Box::new(TcpStreamClient {
                target,
                msg_size: self.msg_size,
                window: self.window,
                next_seq: 0,
            }),
        );
        tb.start(&[server, client]);
        tb.vmm
            .network_mut()
            .run(StopCondition::For(self.warmup + self.duration));

        // Bin arrivals into 100 ms windows and summarize Mbit/s.
        let times = tb.vmm.network().store().samples("netperf.rx_t_ns").to_vec();
        let lens = tb.vmm.network().store().samples("netperf.rx_len").to_vec();
        assert!(
            !times.is_empty(),
            "TCP_STREAM delivered nothing on {:?}",
            tb.config
        );
        let bin_ns = 100_000_000.0;
        let t0 = self.warmup.as_nanos() as f64;
        let nbins = ((self.duration.as_nanos() as f64) / bin_ns).ceil() as usize;
        let mut bytes = vec![0.0f64; nbins.max(1)];
        for (t, l) in times.iter().zip(&lens) {
            let idx = (((t - t0) / bin_ns) as usize).min(bytes.len() - 1);
            bytes[idx] += l;
        }
        let stats: OnlineStats = bytes
            .iter()
            .map(|b| b * 8.0 / (bin_ns / 1e9) / 1e6)
            .collect();
        NetperfRun {
            latency_us: None,
            throughput_mbps: Some(stats.summary()),
            testbed: tb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Netperf {
        Netperf {
            msg_size: 1280,
            duration: SimDuration::millis(300),
            warmup: SimDuration::millis(50),
            window: 64,
        }
    }

    #[test]
    fn udp_rr_measures_latency() {
        let run = quick().udp_rr(Config::NoCont, 1);
        let lat = run.latency_us.unwrap();
        assert!(
            lat.count > 100,
            "expected many transactions, got {}",
            lat.count
        );
        assert!(
            lat.mean > 10.0 && lat.mean < 2_000.0,
            "latency {} us",
            lat.mean
        );
        // On a lossless path the retransmit timer fires only for answered
        // transactions, so it never resends.
        for config in Config::ALL {
            let run = quick().udp_rr(config, 1);
            let store = run.testbed.vmm.network().store();
            assert_eq!(store.counter("netperf.rr_timeouts"), 0.0, "{config:?}");
        }
    }

    #[test]
    fn tcp_stream_measures_throughput() {
        let run = quick().tcp_stream(Config::NoCont, 1);
        let tput = run.throughput_mbps.unwrap();
        assert!(tput.mean > 100.0, "throughput {} Mbit/s too low", tput.mean);
    }

    #[test]
    fn nat_latency_exceeds_nocont() {
        let nat = quick().udp_rr(Config::Nat, 1).latency_us.unwrap();
        let nocont = quick().udp_rr(Config::NoCont, 1).latency_us.unwrap();
        assert!(nat.mean > nocont.mean);
    }

    #[test]
    fn nat_throughput_below_nocont() {
        let nat = quick().tcp_stream(Config::Nat, 1).throughput_mbps.unwrap();
        let nocont = quick()
            .tcp_stream(Config::NoCont, 1)
            .throughput_mbps
            .unwrap();
        assert!(
            nat.mean < nocont.mean,
            "NAT {} should be below NoCont {}",
            nat.mean,
            nocont.mean
        );
    }

    #[test]
    fn throughput_grows_with_message_size() {
        let small = Netperf {
            msg_size: 64,
            ..quick()
        }
        .tcp_stream(Config::NoCont, 1)
        .throughput_mbps
        .unwrap();
        let large = Netperf {
            msg_size: 4096,
            ..quick()
        }
        .tcp_stream(Config::NoCont, 1)
        .throughput_mbps
        .unwrap();
        assert!(large.mean > small.mean * 2.0);
    }

    #[test]
    fn udp_rr_survives_injected_frame_loss() {
        // 5% loss on the endpoint links: the closed loop must keep making
        // progress by retransmitting, not wedge.
        use nestless::topology::{build_with, BuildOpts};
        let opts = BuildOpts {
            endpoint_link_loss: 0.05,
            ..BuildOpts::default()
        };
        let run = quick().udp_rr_on(build_with(Config::NoCont, 8, &opts));
        let store = run.testbed.vmm.network().store();
        assert!(store.counter("link.lost") > 0.0, "loss must actually occur");
        assert!(store.counter("netperf.rr_timeouts") > 0.0, "timeouts fired");
        assert!(
            store.samples("netperf.rtt_us").len() > 50,
            "the loop kept completing transactions"
        );
    }

    #[test]
    fn tcp_rr_close_to_udp_rr() {
        // TCP_RR carries 12 extra header bytes per direction; latencies
        // should track UDP_RR closely.
        let udp = quick().udp_rr(Config::NoCont, 2).latency_us.unwrap();
        let tcp = quick().tcp_rr(Config::NoCont, 2).latency_us.unwrap();
        assert!(tcp.count > 100);
        assert!(
            (tcp.mean - udp.mean).abs() / udp.mean < 0.1,
            "udp {} vs tcp {}",
            udp.mean,
            tcp.mean
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick().udp_rr(Config::Nat, 9).latency_us.unwrap();
        let b = quick().udp_rr(Config::Nat, 9).latency_us.unwrap();
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.count, b.count);
    }
}
