//! Kafka + kafka-producer-perf-test (Table 1).
//!
//! "Kafka, a data streaming framework; benchmark
//! kafka-producer-perf-test.sh; parameters: 120000 msg/s, 100 B messages,
//! batch size 8192 B; metric: latency."
//!
//! The producer batches messages client-side (the Kafka producer's
//! `batch.size`), ships one record batch per wire message at the rate that
//! sustains 120 k msg/s, and measures per-batch acknowledgement latency.

use crate::report::{MacroResult, ServiceProfile};
use metrics::MetricId;
use nestless::topology::{build, Config, CLIENT_PORT, SERVER_PORT};
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::frame::Payload;
use simnet::StopCondition;
use simnet::{SimDuration, SimTime, SockAddr};

/// Producer-perf parameters (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct KafkaParams {
    /// Offered message rate per second.
    pub msgs_per_s: u64,
    /// Record size in bytes.
    pub msg_size: u32,
    /// Producer batch size in bytes.
    pub batch_size: u32,
    /// Measured duration.
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
}

impl KafkaParams {
    /// The paper's Table 1 parameters.
    pub fn paper() -> KafkaParams {
        KafkaParams {
            msgs_per_s: 120_000,
            msg_size: 100,
            batch_size: 8_192,
            duration: SimDuration::secs(1),
            warmup: SimDuration::millis(100),
        }
    }

    /// Records per wire batch.
    pub fn msgs_per_batch(&self) -> u64 {
        u64::from(self.batch_size / self.msg_size).max(1)
    }

    /// Interval between batch transmissions sustaining the offered rate.
    pub fn batch_interval(&self) -> SimDuration {
        SimDuration::nanos(self.msgs_per_batch() * 1_000_000_000 / self.msgs_per_s)
    }
}

/// The Kafka broker model: per-batch log append + ack.
pub struct KafkaBroker {
    service: ServiceProfile,
}

impl KafkaBroker {
    /// Creates the broker; `containerized` adds container runtime overhead.
    pub fn new(containerized: bool) -> KafkaBroker {
        let service = if containerized {
            ServiceProfile {
                base_us: 46.0,
                jitter_frac: 0.08,
                spike_prob: 0.004,
                spike_mult: 4.0,
            }
        } else {
            ServiceProfile {
                base_us: 42.0,
                jitter_frac: 0.06,
                spike_prob: 0.003,
                spike_mult: 4.0,
            }
        };
        KafkaBroker { service }
    }
}

impl Application for KafkaBroker {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let d = self.service.sample(api.rng());
        api.compute(d);
        let mut ack = Payload::sized(60);
        ack.tag = msg.payload.tag;
        ack.sent_at = msg.payload.sent_at;
        api.send_udp(SERVER_PORT, msg.src, ack);
    }
}

const TICK: u64 = 1;

/// The producer-perf driver: fixed-rate batch emitter.
pub struct KafkaProducer {
    target: SockAddr,
    params: KafkaParams,
    warmup_until: SimTime,
    seq: u64,
    sent_id: Option<MetricId>,
    latency_id: Option<MetricId>,
    acked_id: Option<MetricId>,
}

impl KafkaProducer {
    /// Creates the producer.
    pub fn new(target: SockAddr, params: KafkaParams, warmup_until: SimTime) -> KafkaProducer {
        KafkaProducer {
            target,
            params,
            warmup_until,
            seq: 0,
            sent_id: None,
            latency_id: None,
            acked_id: None,
        }
    }

    fn fire(&mut self, api: &mut AppApi<'_, '_>) {
        self.seq += 1;
        let wire = self.params.msgs_per_batch() as u32 * self.params.msg_size + 64;
        let mut p = Payload::sized(wire);
        p.tag = self.seq;
        api.send_udp(CLIENT_PORT, self.target, p);
        let id = *self
            .sent_id
            .get_or_insert_with(|| api.metric("kafka.batches_sent"));
        api.count_id(id, 1.0);
    }
}

impl Application for KafkaProducer {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.fire(api);
        api.set_timer(self.params.batch_interval(), TICK);
    }

    fn on_timer(&mut self, token: u64, api: &mut AppApi<'_, '_>) {
        assert_eq!(token, TICK);
        self.fire(api);
        api.set_timer(self.params.batch_interval(), TICK);
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if api.now() >= self.warmup_until {
            let latency = api.now().since(msg.payload.sent_at);
            let id = *self
                .latency_id
                .get_or_insert_with(|| api.metric("kafka.latency_us"));
            api.record_id(id, latency.as_micros_f64());
            let id = *self
                .acked_id
                .get_or_insert_with(|| api.metric("kafka.msgs_acked"));
            api.count_id(id, self.params.msgs_per_batch() as f64);
        }
    }
}

/// Runs the Kafka macro-benchmark on `config`.
pub fn run_kafka(params: KafkaParams, config: Config, seed: u64) -> MacroResult {
    let mut tb = build(config, seed);
    let containerized = config != Config::NoCont;
    let target = tb.target;
    let warmup_until = SimTime::ZERO + params.warmup;
    let server = tb.install(
        "kafka-broker",
        &tb.server.clone(),
        [SERVER_PORT],
        Box::new(KafkaBroker::new(containerized)),
    );
    let client = tb.install(
        "kafka-producer",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(KafkaProducer::new(target, params, warmup_until)),
    );
    tb.start(&[server, client]);
    tb.vmm
        .network_mut()
        .run(StopCondition::For(params.warmup + params.duration));
    let mut r = MacroResult::collect(&tb, "kafka.latency_us", params.duration);
    // Throughput in messages/s, not batches/s.
    r.throughput_per_s =
        tb.vmm.network().store().counter("kafka.msgs_acked") / params.duration.as_secs_f64();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> KafkaParams {
        KafkaParams {
            duration: SimDuration::millis(200),
            warmup: SimDuration::millis(50),
            ..KafkaParams::paper()
        }
    }

    #[test]
    fn paper_params_match_table1() {
        let p = KafkaParams::paper();
        assert_eq!(p.msgs_per_s, 120_000);
        assert_eq!(p.msg_size, 100);
        assert_eq!(p.batch_size, 8_192);
        assert_eq!(p.msgs_per_batch(), 81);
    }

    #[test]
    fn sustains_offered_message_rate() {
        let r = run_kafka(quick(), Config::NoCont, 11);
        assert!(
            (100_000.0..140_000.0).contains(&r.throughput_per_s),
            "msgs/s = {}",
            r.throughput_per_s
        );
    }

    #[test]
    fn latency_is_low_variance() {
        // §5.2.2: Kafka stddev is ~5-7% of the average.
        let r = run_kafka(quick(), Config::BrFusion, 11);
        assert!(r.latency_us.cv() < 0.25, "cv = {}", r.latency_us.cv());
    }

    #[test]
    fn brfusion_between_nat_and_nocont() {
        let nat = run_kafka(quick(), Config::Nat, 11);
        let brf = run_kafka(quick(), Config::BrFusion, 11);
        let nocont = run_kafka(quick(), Config::NoCont, 11);
        assert!(
            brf.latency_us.mean < nat.latency_us.mean,
            "BrFusion {} should beat NAT {}",
            brf.latency_us.mean,
            nat.latency_us.mean
        );
        assert!(
            brf.latency_us.mean > nocont.latency_us.mean,
            "BrFusion {} should trail NoCont {}",
            brf.latency_us.mean,
            nocont.latency_us.mean
        );
    }
}
