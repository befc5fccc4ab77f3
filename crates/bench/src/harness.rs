//! Helpers the bench and demo binaries share: the statistics every gate
//! artifact reports, the simulated-outcome digest and goodput the
//! engine benches compare runs on, and the demos' export round trip.
//!
//! The gate binaries (`engine_throughput`, `engine_hybrid`,
//! `policy_churn`, `cloudsim_hyperscale`) only measure and write their
//! artifacts; `tools/perfgate.rs` alone judges them.

use simnet::engine::SampleStore;
use std::hash::{Hash, Hasher};

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

/// Serializes `value`, parses the text back, and exits through [`die`]
/// if the reconstruction differs from the original.
pub fn round_trip<T>(what: &str, value: &T) -> String
where
    T: serde::Serialize + serde::Deserialize + PartialEq,
{
    let text = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| die(&format!("serializing {what}: {e}")));
    let back: T = serde_json::from_str(&text).unwrap_or_else(|e| {
        die(&format!(
            "{what} does not parse back from its own JSON: {e}"
        ))
    });
    if &back != value {
        die(&format!("{what} serde round-trip changed the document"));
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
