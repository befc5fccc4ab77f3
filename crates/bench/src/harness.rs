//! Helpers the bench and demo binaries share: the statistics every gate
//! artifact reports, the simulated-outcome digest and goodput the
//! engine benches compare runs on, the relay-chain scenario two of them
//! run, the demos' export check, and the one way every binary
//! writes an artifact.
//!
//! The gate binaries (`engine_throughput`, `engine_hybrid`,
//! `policy_churn`, `cloudsim_hyperscale`) only measure and write their
//! artifacts; `tools/perfgate.rs` alone judges them.

use metrics::{CpuCategory, CpuLocation};
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::{DeviceId, PortId};
use simnet::engine::{LinkParams, Network, SampleStore};
use simnet::shared::SharedStation;
use simnet::testutil::{frame_between, MacBouncer};
use simnet::time::SimDuration;
use simnet::MacAddr;
use std::hash::{Hash, Hasher};
use std::path::Path;

/// Upper median: the value at index `len / 2` of the sorted values, so
/// an even count reads the larger of the two middle values. NaN when
/// there are no values.
pub fn median(xs: Vec<f64>) -> f64 {
    summarize(xs).0
}

/// `(median, peak)` of `xs`, with [`median`]'s convention.
pub fn summarize(mut xs: Vec<f64>) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    (xs[xs.len() / 2], xs[xs.len() - 1])
}

/// Order-independent digest of a run's observable outcome: the event
/// count plus every sample series and nonzero counter, bit-exact, keyed
/// by name rather than intern order. `DefaultHasher` is not stable
/// across toolchains, so compare digests within one process only.
pub fn outcome_digest(store: &SampleStore, events: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    events.hash(&mut h);
    let mut names: Vec<&str> = store.sample_names().collect();
    names.sort_unstable();
    for n in names {
        n.hash(&mut h);
        for v in store.samples(n) {
            v.to_bits().hash(&mut h);
        }
    }
    let mut names: Vec<&str> = store.counter_names().collect();
    names.sort_unstable();
    for n in names {
        n.hash(&mut h);
        store.counter(n).to_bits().hash(&mut h);
    }
    h.finish()
}

/// Frames delivered to the `MacBouncer`s of a run (their `.bounced`
/// counters): the goodput two runs of one topology are compared on.
pub fn frames_delivered(store: &SampleStore) -> f64 {
    store
        .counter_names()
        .filter(|n| n.ends_with(".bounced"))
        .map(|n| store.counter(n))
        .sum()
}

/// Payload bytes of every frame [`relay_chains`] bounces.
pub const RELAY_PAYLOAD: u32 = 200;

/// `chains` disconnected relay chains on a network seeded with `seed`:
/// each is a ping-pong [`MacBouncer`] pair separated by `relays`
/// two-port learning bridges, kicked off by one frame into its second
/// bouncer at a staggered start. Returns the network and the first
/// relay of each chain.
pub fn relay_chains(seed: u64, chains: usize, relays: usize) -> (Network, Vec<DeviceId>) {
    let mut net = Network::new(seed);
    let bouncer_cost = StageCost::fixed(600, 0.2, CpuCategory::Usr).with_jitter(0.05);
    let relay_cost = StageCost::fixed(400, 0.1, CpuCategory::Sys).with_jitter(0.05);
    let mut firsts = Vec::with_capacity(chains);
    for c in 0..chains {
        let ma = MacAddr::local((2 * c + 1) as u32);
        let mb = MacAddr::local((2 * c + 2) as u32);
        let mut bouncer = |end: &str, mac| {
            let name = format!("c{c}.{end}");
            let dev = MacBouncer::new(name.clone(), mac, RELAY_PAYLOAD, bouncer_cost, false);
            net.add_device(name, CpuLocation::Host, Box::new(dev))
        };
        let a = bouncer("a", ma);
        let b = bouncer("b", mb);
        let mut prev = (a, PortId::P0);
        for r in 0..relays {
            let br = net.add_device(
                format!("c{c}.r{r}"),
                CpuLocation::Host,
                Box::new(Bridge::new(2, relay_cost, SharedStation::new())),
            );
            if r == 0 {
                firsts.push(br);
            }
            net.connect(prev.0, prev.1, br, PortId(0), LinkParams::default());
            prev = (br, PortId(1));
        }
        net.connect(prev.0, prev.1, b, PortId::P0, LinkParams::default());
        // Staggered starts decorrelate the chains.
        net.inject_frame(
            SimDuration::nanos((c as u64) * 137),
            b,
            PortId::P0,
            frame_between(ma, mb, RELAY_PAYLOAD),
        );
    }
    (net, firsts)
}

/// Cores the host offers this process (1 when it cannot tell); every
/// artifact with a timing field records it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints `error: {msg}` and exits with status 1.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Writes `text` to `path`, creating its directory, and exits through
/// [`die`] if either fails: a run whose artifact did not land must not
/// pass for one that did.
pub fn write_artifact(path: impl AsRef<Path>, text: &str) {
    let path = path.as_ref();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        die(&format!("writing {}: {e}", path.display()));
    }
}

/// Serializes `value` pretty and returns the text. Exits through [`die`]
/// unless that text parses as a [`serde_json::Value`] which, reprinted
/// compactly, equals `value`'s compact JSON: the committed artifacts hold
/// only the pretty bytes, so this holds the compact ones to them.
pub fn round_trip<T: serde::Serialize>(what: &str, value: &T) -> String {
    let text = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| die(&format!("serializing {what}: {e}")));
    let compact = serde_json::to_string(value)
        .unwrap_or_else(|e| die(&format!("serializing {what} compactly: {e}")));
    let reprint = serde_json::from_str::<serde_json::Value>(&text)
        .and_then(|v| serde_json::to_string(&v))
        .unwrap_or_else(|e| die(&format!("reprinting {what}: {e}")));
    if compact != reprint {
        die(&format!(
            "{what}: compact JSON differs from its pretty text reprinted"
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_reads_the_upper_middle_of_an_even_count() {
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
        assert_eq!(summarize(vec![2.0, 9.0, 1.0, 7.0]), (7.0, 9.0));
        assert!(median(Vec::new()).is_nan());
    }

    #[test]
    fn outcome_digest_ignores_intern_order() {
        let mut a = SampleStore::default();
        a.add("x.bounced", 3.0);
        a.record("rtt", 1.5);
        a.record("rtt", 2.5);
        a.add("y.bounced", 4.0);
        let mut b = SampleStore::default();
        b.add("y.bounced", 4.0);
        b.record("rtt", 1.5);
        b.add("x.bounced", 3.0);
        b.record("rtt", 2.5);
        assert_eq!(outcome_digest(&a, 7), outcome_digest(&b, 7));
        assert_ne!(outcome_digest(&a, 7), outcome_digest(&a, 8));
        assert_eq!(frames_delivered(&a), 7.0);
        b.record("rtt", 3.5);
        assert_ne!(outcome_digest(&a, 7), outcome_digest(&b, 7));
    }
}
