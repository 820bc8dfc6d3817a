//! This host's compute constants: a report beside the modelled figures,
//! which are charged from [`ComputeModel::nominal`] and gate on nothing
//! here.

use sdssort::merge::kway_merge_into;
use sdssort::ComputeModel;
use std::time::Instant;

/// Keys each calibration sorts and merges.
const N: usize = 1 << 19;

/// `N` scrambled keys, the same on every call.
fn keys() -> Vec<u64> {
    (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// Host seconds `f` takes on `data`.
fn time(data: &mut Vec<u64>, f: impl FnOnce(&mut Vec<u64>)) -> f64 {
    let t0 = Instant::now();
    f(data);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(data);
    secs
}

/// Measure the host's sort and merge throughput once and derive model
/// constants. Deterministic input, ~10 ms of work.
pub fn calibrate() -> ComputeModel {
    let mut data = keys();
    let sort_secs = time(&mut data, |d| d.sort_unstable());
    let sort_per_key_log = (sort_secs / (N as f64 * (N as f64).log2())).max(1e-11);
    // The even- and odd-indexed keys: two runs that interleave, with no
    // key in common, so the product's two-way kernel merges every record.
    // It writes into resident storage: `merge_per_key` is a cost per merge
    // pass, and a fresh output's first touches are the allocator's regime.
    let a: Vec<u64> = data.iter().step_by(2).copied().collect();
    let b: Vec<u64> = data.iter().skip(1).step_by(2).copied().collect();
    let mut merged = data.clone();
    let merge_secs = time(&mut merged, |out| kway_merge_into(&[&a, &b], out));
    let merge_per_key = (merge_secs / N as f64).max(1e-12);
    ComputeModel {
        sort_per_key_log,
        merge_per_key,
        scan_per_key: merge_per_key * 0.5,
        stable_factor: (time(&mut keys(), |d| d.sort()) / sort_secs).clamp(1.0, 4.0),
    }
}

/// One line: each constant's minimum over seven calibrations (interference
/// only adds time), with the vector quicksort's sort constant (the `u64`
/// comparison kernel where the CPU has AVX-512) beside `sort_unstable`'s.
pub fn host_report() -> String {
    let runs: Vec<ComputeModel> = (0..7).map(|_| calibrate()).collect();
    let min = |f: fn(&ComputeModel) -> f64| runs.iter().map(f).fold(f64::INFINITY, f64::min);
    let vsort = (0..7)
        .map(|_| time(&mut keys(), |d| _ = sdssort::vsort::sort(d)))
        .fold(f64::INFINITY, f64::min);
    let ns = |f: fn(&ComputeModel) -> f64| min(f) * 1e9;
    let kernel = if sdssort::vsort::available() {
        ""
    } else {
        ", no avx512"
    };
    format!(
        "host compute constants (min of 7; reported, not charged): sort_per_key_log \
         {:.3} ns (sort_unstable), {:.3} ns (vsort{kernel}); merge_per_key {:.3} ns; \
         scan_per_key {:.3} ns; stable_factor {:.2}",
        ns(|m| m.sort_per_key_log),
        vsort * 1e9 / (N as f64 * (N as f64).log2()),
        ns(|m| m.merge_per_key),
        ns(|m| m.scan_per_key),
        min(|m| m.stable_factor),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_produces_sane_constants() {
        let m = calibrate();
        assert!(m.sort_per_key_log > 0.0 && m.sort_per_key_log < 1e-6);
        assert!(m.merge_per_key > 0.0 && m.merge_per_key < 1e-6);
    }
}
