//! Metric primitives: monotonic counters and max-tracking gauges. All
//! updates are lock-free atomics; the registry mutex is touched only on
//! first registration of a name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::SeqCst);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Gauge that keeps the maximum value ever set (high-water semantics,
/// stored as f64 bits; values must be non-negative finite).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set_max(&self, v: f64) {
        debug_assert!(
            v >= 0.0 && v.is_finite(),
            "gauge values are non-negative finite"
        );
        // Non-negative IEEE-754 floats order like their bit patterns.
        self.0.fetch_max(v.to_bits(), Ordering::SeqCst);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::SeqCst))
    }
}

/// Name → metric registry. Hot paths hold an `Arc` handle; lookups by name
/// lock only a registration map.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&m));
    m
}

impl Registry {
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, c)| (k.clone(), c.get())).collect()
    }

    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, g)| (k.clone(), g.get())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::default();
        r.counter("x").add(3);
        r.counter("x").add(4);
        r.counter("a").add(1);
        assert_eq!(r.counter_values(), vec![("a".into(), 1), ("x".into(), 7)]);
        r.gauge("g").set_max(2.0);
        r.gauge("g").set_max(1.0);
        assert_eq!(r.gauge_values(), vec![("g".into(), 2.0)]);
    }
}
