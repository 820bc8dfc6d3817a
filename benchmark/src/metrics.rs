//! The metric catalog: every name the benchmark emits, with its unit and
//! which way is better. `BENCHMARK.json` carries the same list plus the
//! regression bounds; a unit test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with the replay off, on every
/// workload. Times are in yardsticks (`yardstick.rs`), except set-up.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("keys_per_yd", "keys/yd"),
    lower("latency_p50_yd", "yd"),
    lower("latency_tail_yd", "yd"),
    lower("peak_rss_mb", "MiB"),
    lower("rdfa", "ratio"),
];

/// Metrics that are counts: the same code and seed give the same value, so
/// an A/A run requires them equal instead of within a bound.
pub const EXACT: [&str; 5] = [
    "rdfa",
    "comm.exchange.mb_sent",
    "mpisim.messages",
    "mpisim.bytes",
    "sdssort.local_sort.radix_used",
];

/// Single layers; from the traced run.
pub const PER_LAYER: [MetricDef; 61] = [
    // Staged replay of the traced workload.
    lower("sdssort.local_sort.ms", "ms"),
    higher("sdssort.local_sort.radix_used", "count"),
    lower("sdssort.sampling.ms", "ms"),
    lower("sdssort.pivots.ms", "ms"),
    lower("sdssort.partition.ms", "ms"),
    lower("comm.alltoall_counts.ms", "ms"),
    lower("comm.exchange.ms", "ms"),
    lower("comm.exchange.mb_sent", "MiB"),
    higher("comm.exchange.gbps", "GB/s"),
    lower("sdssort.merge.ms", "ms"),
    lower("staged.tail_wait.ms", "ms"),
    lower("staged.total.ms", "ms"),
    lower("staged.explained_frac", "ratio"),
    // SortStats of the traced workload's untraced repetitions.
    lower("sdssort.stats.pivot_ms", "ms"),
    lower("sdssort.stats.exchange_ms", "ms"),
    lower("sdssort.stats.local_order_ms", "ms"),
    // The same repetitions in wall-clock units (virtual on the simulator):
    // what the end-to-end yardstick rows are made from.
    higher("wall.keys_per_s", "keys/s"),
    lower("wall.latency_p50_ms", "ms"),
    lower("wall.latency_tail_ms", "ms"),
    lower("wall.yardstick_ms", "ms"),
    // The layer suite.
    lower("telemetry.on_overhead_frac", "ratio"),
    higher("baseline.std_sort_keys_per_s", "keys/s"),
    higher("baseline.speedup_vs_std", "ratio"),
    lower("comm.mailbox.pingpong_us", "us"),
    higher("comm.mailbox.bulk_gbps", "GB/s"),
    higher("comm.wire.encode_u64_gbps", "GB/s"),
    higher("comm.wire.decode_u64_gbps", "GB/s"),
    higher("comm.wire.encode_tagged_gbps", "GB/s"),
    higher("comm.wire.decode_tagged_gbps", "GB/s"),
    higher("sockcomm.frame.codec_gbps", "GB/s"),
    higher("sockcomm.frame.uds_gbps", "GB/s"),
    lower("shmem.barrier_us", "us"),
    lower("shmem.alltoallv_small_us", "us"),
    higher("shmem.alltoallv_bulk_gbps", "GB/s"),
    lower("sockcomm.barrier_us", "us"),
    lower("sockcomm.alltoallv_small_us", "us"),
    higher("sockcomm.alltoallv_bulk_gbps", "GB/s"),
    lower("sockcomm.launch_ms", "ms"),
    lower("shmem.resident.gang_dispatch_us", "us"),
    lower("service.dispatch_empty_us", "us"),
    higher("service.jobs_per_s", "jobs/s"),
    lower("service.queue_wait_p50_ms", "ms"),
    lower("service.sort_wall_p50_ms", "ms"),
    lower("service.client_overhead_p50_us", "us"),
    higher("service.arena_hit_rate", "ratio"),
    lower("service.shed", "count"),
    lower("service.spilled", "count"),
    lower("service.latency_p99_ms", "ms"),
    lower("service.stats.pivot_p50_ms", "ms"),
    lower("service.stats.exchange_p50_ms", "ms"),
    lower("service.stats.local_order_p50_ms", "ms"),
    lower("mpisim.virtual_makespan_ms", "ms"),
    lower("mpisim.messages", "count"),
    lower("mpisim.bytes", "count"),
    lower("mpisim.host_s", "s"),
    lower("algos.hss.rdfa", "ratio"),
    lower("algos.hss.virtual_makespan_ms", "ms"),
    lower("algos.ams.rdfa", "ratio"),
    lower("algos.ams.virtual_makespan_ms", "ms"),
    higher("sdssort.merge.kway16_keys_per_s", "keys/s"),
    lower("sdssort.partition.p16_us", "us"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// `{name: {"value": v, "unit": u}}`, the form of the contract's result line
/// and of the result document.
pub fn metrics_json(metrics: &[(String, f64)]) -> telemetry::Json {
    use telemetry::Json;
    Json::Obj(
        metrics
            .iter()
            .map(|(name, v)| {
                let unit = find(name).map_or("", |d| d.unit);
                (
                    name.clone(),
                    Json::obj(vec![("value", Json::F64(*v)), ("unit", unit.into())]),
                )
            })
            .collect(),
    )
}

/// One line per metric: name, value, unit.
pub fn print_metrics(metrics: &[(String, f64)]) {
    for (name, v) in metrics {
        let unit = find(name).map_or("", |d| d.unit);
        println!("    {name:<36} {v:>18.6} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::LAYER_ROWS;
    use crate::report::benchmark_json;
    use crate::workloads::WORKLOADS;
    use telemetry::Json;

    /// The contract's rule for a name.
    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists its metrics")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_owned(),
                    field(m, "unit").to_owned(),
                    field(m, "better").to_owned(),
                )
            })
            .collect()
    }

    fn catalog(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_follow_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(d.name), "{}", d.name);
            assert!(is_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        assert!(EXACT.iter().all(|n| find(n).is_some()));
    }

    #[test]
    fn benchmark_json_and_the_catalog_list_the_same_metrics_and_workloads() {
        let doc = benchmark_json().expect("BENCHMARK.json at the repo root");
        assert_eq!(listed(&doc, "end_to_end"), catalog(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalog(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists its workloads")
            .iter()
            .map(|w| (field(w, "name").to_owned(), field(w, "why").to_owned()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, ours);
        let bounds = crate::report::bounds(&doc);
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.values().all(|&b| b > 0.0 && b <= 0.25), "{bounds:?}");
        let largest = bounds.values().copied().fold(0.0, f64::max);
        assert_eq!(bounds["setup_s"], largest, "set-up has the largest bound");
    }

    #[test]
    fn every_replay_row_is_a_per_layer_metric() {
        for (_, metric) in LAYER_ROWS {
            assert!(PER_LAYER.iter().any(|d| d.name == metric), "{metric}");
        }
    }
}
