//! # nestless-workloads
//!
//! The paper's benchmark drivers, re-implemented over the simulated stack
//! with the exact Table 1 parameters:
//!
//! * [`netperf`] — UDP_RR latency and TCP_STREAM throughput over swept
//!   message sizes (figs. 2, 4, 10);
//! * [`memcached`] — memtier_benchmark, 4 threads x 50 connections,
//!   SET:GET = 1:10 (figs. 5, 11, 12, 14);
//! * [`nginx`] — wrk2 open-loop, 100 connections, 10 k req/s on a 1 kB
//!   file (figs. 5, 7, 13, 15);
//! * [`kafka`] — kafka-producer-perf-test, 120 k msg/s, 100 B records,
//!   8192 B batches (figs. 5, 6).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kafka;
pub mod memcached;
pub mod netperf;
pub mod nginx;
pub mod report;

pub use kafka::{run_kafka, KafkaBroker, KafkaParams, KafkaProducer};
pub use memcached::{run_memcached, MemcachedServer, MemtierClient, MemtierParams};
pub use netperf::{Netperf, NetperfRun, UdpEchoServer, MESSAGE_SIZES};
pub use nginx::{run_nginx, NginxServer, Wrk2Client, Wrk2Params};
pub use report::{MacroResult, ServiceProfile};
