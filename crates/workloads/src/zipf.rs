//! Zipf-distributed keys: `p(i) = C / i^α` for `i = 1..=M`.
//!
//! The paper parameterizes skew by the **maximum replication ratio**
//! `δ = d/N` where `d` is the population of the most duplicated key — and
//! for a Zipf distribution `δ = p(1) = C = 1/H_{M,α}` in expectation.
//! Table 2 pins δ for α ∈ {0.4..0.9} (and Table 1 also uses α ∈
//! {0.7, 1.4, 2.1}); to match those δ values the generalized harmonic
//! number `H_{M,α}` must hit `1/δ`, which fixes the key-universe size `M`
//! per α. [`ZipfGen::with_delta_target`] solves for `M` numerically, so
//! our empirical δ reproduces the paper's table.
//!
//! ## The solve is one forward scan
//!
//! `H_{m,α}` is the running sum `acc += i^{-α}` from `i = 1` — the same
//! sequential sum [`ZipfGen::new`] builds its CDF from — for
//! `m ≤ EXACT = 200 000`. The solve keeps that sum and stops at the first
//! `i` with `acc ≥ 100/δ`: about 10⁴ terms for Table 2's α. That `i` is
//! exactly what the doubling-and-bisection solve it replaced returned,
//! bit for bit: each of its probes re-summed this same sequence, a rounded
//! sum never falls when a non-negative term is added (so the partial sums
//! are monotone in `m`), and the bisection returned the smallest `m` that
//! reaches the target. Only a target the exact prefix never reaches (α > 1
//! with δ below `100/ζ(α)`, or a tiny δ) goes on to the tail regime:
//! `H_{m,α} = H_{EXACT,α} + ∫_{EXACT+½}^{m+½} x^{-α} dx`, O(1) per `m`
//! from the prefix already summed, bisected over `(EXACT, 2²²]`; a target
//! still short at `2²²` gets the `2²²`-key universe, as before.
//!
//! ## A draw searches the head of the CDF first
//!
//! [`ZipfGen::sample`] inverts the CDF: it draws `u` in `[0, 1)` and takes
//! the first index `i` with `cdf[i] ≥ u`. A binary search of a whole
//! 2²⁰-entry (8 MiB) CDF makes 20 dependent probes, and the deep ones miss
//! cache. Zipf mass sits at the front, though: the first `HEAD` = 4 096
//! entries (32 KiB) hold 97.4 % of `zipf:1.4`'s draws, 77 % of
//! `zipf:1.1`'s, 97.3–99.99 % of Table 1's 2²²-entry tables, 49–87 % of
//! Table 2's and 49 % of cosmology's. So the search compares `u` once with
//! `cdf[HEAD − 1]` and then binary-searches only the head or only the
//! tail. Tables of 10⁴–2·10⁴ entries fit in cache whole; there the
//! comparison gains nothing, and where it goes either way about as often
//! (α = 0.4–0.6) it costs a few ns per key.
//!
//! The result is exactly the whole-table search's, so every key stream is
//! unchanged. The CDF never falls: each running sum adds a non-negative
//! term, a rounded sum never falls when one is added, and dividing every
//! entry by the same positive total keeps that order. So `c < u` is true on
//! a prefix of the table and false after it, and "the first index with
//! `cdf[i] ≥ u`" is one index. If `cdf[HEAD − 1] ≥ u`, that index is in
//! the head, and the head's search finds it: on the head the predicate has
//! the same prefix. Otherwise every head entry is below `u`, the index is
//! in the tail, and the tail's search returns it less `HEAD` (or the tail's
//! length if no entry reaches `u`, as the whole-table search returns the
//! table's length). A table of at most `HEAD` entries is all head. Nothing
//! is built or stored for this: the two slices are cut from the CDF on
//! every draw. `tests::head_first_search_is_exact` compares the two
//! searches on every table the workspace draws from.
//!
//! ## One table per process while it is drawn from
//!
//! [`zipf_keys`], [`zipf_keys_into`] (so `keys_by_name`) and
//! [`crate::cosmology_particles`] draw through `with_shared`. It keeps a
//! registry of the tables currently being drawn from, keyed by the
//! constructor's parameters, and holds only `Weak` handles: the first caller
//! builds the table, callers that arrive for the same parameters while it is
//! being built wait for it, and the last caller to finish drawing frees it.
//! A simulated world's `p` ranks therefore build one 2²⁰-entry CDF, not `p`,
//! and nothing is retained between runs: a table never outlives its draws.

use rand::prelude::*;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// α→δ pairs published in Table 2 of the paper (δ in percent).
pub const PAPER_ALPHA_DELTA_TABLE2: [(f64, f64); 6] = [
    (0.4, 0.2),
    (0.5, 0.5),
    (0.6, 1.0),
    (0.7, 2.0),
    (0.8, 3.7),
    (0.9, 6.4),
];

/// Terms of `H_{m,α}` summed exactly; beyond them the sum is an integral
/// tail.
const EXACT: usize = 200_000;

/// Largest universe [`ZipfGen::with_delta_target`] builds: beyond it the
/// tail mass is folded into the last key, which changes δ negligibly.
const MAX_UNIVERSE: usize = 1 << 22;

/// Entries of the CDF [`ZipfGen::sample`] searches first: 32 KiB, which
/// stays in cache across draws and holds most of the mass of every table
/// the workspace draws from (module docs).
const HEAD: usize = 4096;

/// `H_{m,α} − H_{EXACT,α}` for `m > EXACT`: the midpoint-corrected
/// integral `∫_{EXACT+½}^{m+½} x^{-α} dx`.
fn harmonic_tail(m: usize, alpha: f64) -> f64 {
    let a = EXACT as f64 + 0.5;
    let b = m as f64 + 0.5;
    if (alpha - 1.0).abs() < 1e-12 {
        (b / a).ln()
    } else {
        (b.powf(1.0 - alpha) - a.powf(1.0 - alpha)) / (1.0 - alpha)
    }
}

/// Smallest `M` with `H_{M,α} ≥ target_h`, clamped to [`MAX_UNIVERSE`]:
/// the first prefix of one forward scan that reaches the target, else a
/// bisection of the O(1) tail over `(EXACT, MAX_UNIVERSE]`.
fn universe_for(alpha: f64, target_h: f64) -> usize {
    let mut h_exact = 0.0f64;
    for i in 1..=EXACT {
        h_exact += (i as f64).powf(-alpha);
        if h_exact >= target_h {
            return i;
        }
    }
    let reaches = |m| h_exact + harmonic_tail(m, alpha) >= target_h;
    if !reaches(MAX_UNIVERSE) {
        return MAX_UNIVERSE;
    }
    let (mut lo, mut hi) = (EXACT + 1, MAX_UNIVERSE);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A seedable Zipf sampler over keys `1..=M` via inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    alpha: f64,
    universe: usize,
    /// cdf[i] = P(key <= i+1); length `universe`.
    cdf: Vec<f64>,
}

impl ZipfGen {
    /// Sampler over an explicit key universe `1..=universe`.
    pub fn new(alpha: f64, universe: usize) -> Self {
        assert!(universe >= 1);
        assert!(alpha >= 0.0);
        let mut cdf = Vec::with_capacity(universe);
        let mut acc = 0.0f64;
        for i in 1..=universe {
            acc += (i as f64).powf(-alpha);
            cdf.push(acc);
        }
        let h = acc;
        for v in &mut cdf {
            *v /= h;
        }
        Self {
            alpha,
            universe,
            cdf,
        }
    }

    /// Sampler whose expected maximum replication ratio is
    /// `delta_pct` percent: the smallest universe `M` with
    /// `1/H_{M,α} ≤ δ` (one forward scan, see the module docs), then the
    /// exact CDF over it (capped at 2²² distinct keys).
    pub fn with_delta_target(alpha: f64, delta_pct: f64) -> Self {
        assert!(delta_pct > 0.0 && delta_pct < 100.0);
        Self::new(alpha, universe_for(alpha, 100.0 / delta_pct))
    }

    /// Zipf exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of distinct keys.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Expected maximum replication ratio in percent (`p(1)·100`).
    pub fn expected_delta_pct(&self) -> f64 {
        self.cdf[0] * 100.0
    }

    /// Draw one key in `1..=universe` (key 1 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let idx = self.search(rng.gen());
        (idx.min(self.universe - 1) + 1) as u64
    }

    /// The first index `i` with `cdf[i] ≥ u` (`universe` if there is
    /// none): one comparison with the last entry of the [`HEAD`], then a
    /// binary search of the head or of the tail only (module docs).
    fn search(&self, u: f64) -> usize {
        let head = HEAD.min(self.cdf.len());
        if self.cdf[head - 1] >= u {
            self.cdf[..head].partition_point(|&c| c < u)
        } else {
            head + self.cdf[head..].partition_point(|&c| c < u)
        }
    }

    /// Draw `n` keys for `rank` deterministically.
    pub fn keys(&self, n: usize, seed: u64, rank: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        self.keys_into(&mut out, n, seed, rank);
        out
    }

    /// Append `n` keys for `rank` to `buf` — the same stream as
    /// [`Self::keys`], but into a caller-owned (typically arena-recycled)
    /// buffer so steady-state generation causes no fresh allocation.
    pub fn keys_into(&self, buf: &mut Vec<u64>, n: usize, seed: u64, rank: usize) {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0xD134_2543_DE82_EF95));
        buf.extend((0..n).map(|_| self.sample(&mut rng)));
    }
}

/// The constructor a table is built by, with its arguments: the key of
/// the shared-table registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Table {
    /// [`ZipfGen::new`]`(alpha, universe)`.
    Universe(f64, usize),
    /// [`ZipfGen::with_delta_target`]`(alpha, delta_pct)`.
    Delta(f64, f64),
}

impl Table {
    /// `zipf:<alpha>`'s table: Table 2's δ where α matches a table entry,
    /// else a default 2²⁰-key universe.
    fn for_alpha(alpha: f64) -> Self {
        PAPER_ALPHA_DELTA_TABLE2
            .iter()
            .find(|(a, _)| (*a - alpha).abs() < 1e-9)
            .map_or(Self::Universe(alpha, 1 << 20), |&(a, d)| Self::Delta(a, d))
    }

    fn build(self) -> ZipfGen {
        match self {
            Self::Universe(alpha, universe) => ZipfGen::new(alpha, universe),
            Self::Delta(alpha, delta_pct) => ZipfGen::with_delta_target(alpha, delta_pct),
        }
    }
}

/// The tables being drawn from now. Only `Weak` handles: the callers inside
/// [`with_shared`] own each table, and an entry whose table is gone is
/// pruned by the next lookup.
static LIVE: Mutex<Vec<(Table, Weak<OnceLock<ZipfGen>>)>> = Mutex::new(Vec::new());

/// Run `draw` on `table`'s generator, shared with every caller drawing from
/// the same table at the same time (module docs). The one that registers
/// the table builds it; the others block in `get_or_init` until it is
/// built. The table is freed when the last of them returns.
pub(crate) fn with_shared<R>(table: Table, draw: impl FnOnce(&ZipfGen) -> R) -> R {
    let cell = {
        // A panic while the lock is held leaves a valid list of handles.
        let mut live = LIVE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        live.retain(|(_, held)| held.strong_count() > 0);
        match live
            .iter()
            .filter(|(t, _)| *t == table)
            .find_map(|(_, held)| held.upgrade())
        {
            Some(cell) => cell,
            None => {
                let cell = Arc::new(OnceLock::new());
                live.push((table, Arc::downgrade(&cell)));
                cell
            }
        }
    };
    draw(cell.get_or_init(|| table.build()))
}

/// Buffer-filling variant of [`zipf_keys`]: appends to `buf` instead of
/// allocating (identical key stream).
pub fn zipf_keys_into(buf: &mut Vec<u64>, n: usize, alpha: f64, seed: u64, rank: usize) {
    with_shared(Table::for_alpha(alpha), |gen| {
        gen.keys_into(buf, n, seed, rank);
    });
}

/// Convenience: `n` Zipf keys with exponent `alpha` calibrated to the
/// paper's Table 2 δ where α matches a table entry, else over a default
/// 2²⁰-key universe.
pub fn zipf_keys(n: usize, alpha: f64, seed: u64, rank: usize) -> Vec<u64> {
    with_shared(Table::for_alpha(alpha), |gen| gen.keys(n, seed, rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication_ratio_pct;

    /// `H_{m,α}` as the solve before the one-pass scan evaluated it: the
    /// exact prefix re-summed from `i = 1` on every call.
    fn harmonic(m: usize, alpha: f64) -> f64 {
        let mut h: f64 = (1..=m.min(EXACT)).map(|i| (i as f64).powf(-alpha)).sum();
        if m > EXACT {
            h += harmonic_tail(m, alpha);
        }
        h
    }

    /// The oracle: [`ZipfGen::with_delta_target`] as it was before the
    /// one-pass scan — doubling, then bisection, every probe a full
    /// [`harmonic`].
    fn bisection_oracle(alpha: f64, delta_pct: f64) -> ZipfGen {
        let target_h = 100.0 / delta_pct;
        let mut lo = 1usize;
        let mut hi = 1usize;
        while harmonic(hi, alpha) < target_h {
            if hi >= 1 << 40 {
                break;
            }
            hi *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if harmonic(mid, alpha) < target_h {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        ZipfGen::new(alpha, lo.clamp(1, MAX_UNIVERSE))
    }

    /// Table 2, cosmology's pair, Table 1's two high-α pairs, and an
    /// α × δ grid: 42 pairs covering the exact prefix, the tail bisection
    /// (0.6 at 0.15 %, 0.9 at 4 %) and the 2²² clamp.
    fn solve_pairs() -> Vec<(f64, f64)> {
        let mut pairs = PAPER_ALPHA_DELTA_TABLE2.to_vec();
        pairs.extend([(0.6, 0.73), (1.4, 32.0), (2.1, 63.0)]);
        for alpha in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.3] {
            for delta in [0.15, 4.0, 40.0] {
                pairs.push((alpha, delta));
            }
        }
        pairs
    }

    #[test]
    fn one_pass_solve_matches_the_bisection_oracle() {
        let pairs = solve_pairs();
        assert_eq!(pairs.len(), 42);
        let mut regimes = [0usize; 3]; // exact prefix, tail bisection, clamp
        for (alpha, delta) in pairs {
            let got = ZipfGen::with_delta_target(alpha, delta);
            let want = bisection_oracle(alpha, delta);
            assert_eq!(got.universe(), want.universe(), "(α {alpha}, δ {delta})");
            assert!(
                got.cdf
                    .iter()
                    .zip(&want.cdf)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "(α {alpha}, δ {delta}): CDF bits differ"
            );
            assert_eq!(got.keys(1000, 7, 1), want.keys(1000, 7, 1));
            regimes[match got.universe() {
                m if m <= EXACT => 0,
                MAX_UNIVERSE => 2,
                _ => 1,
            }] += 1;
        }
        assert!(
            regimes.iter().all(|&n| n > 0),
            "regimes covered: {regimes:?}"
        );
    }

    #[test]
    fn solved_universes_match_the_parents() {
        // Recorded at the parent of the one-pass scan.
        let golden = [
            ((0.4, 0.2), 13_495),
            ((0.5, 0.5), 10_147),
            ((0.6, 1.0), 10_621),
            ((0.7, 2.0), 9_968),
            ((0.8, 3.7), 9_869),
            ((0.9, 6.4), 9_749),
            ((0.6, 0.73), 23_026),
            ((1.4, 32.0), MAX_UNIVERSE),
            ((2.1, 63.0), MAX_UNIVERSE),
        ];
        for ((alpha, delta), m) in golden {
            assert_eq!(
                universe_for(alpha, 100.0 / delta),
                m,
                "(α {alpha}, δ {delta})"
            );
        }
    }

    #[test]
    fn zipf_keys_by_name_match_the_parents() {
        // The first 16 keys of `zipf:0.8`, seed 7, rank 1, recorded at the
        // parent of the one-pass scan.
        assert_eq!(
            crate::keys_by_name("zipf:0.8", 16, 7, 1).expect("valid name"),
            [74, 66, 263, 1412, 63, 131, 19, 2780, 3877, 626, 240, 56, 1165, 445, 169, 447]
        );
    }

    /// Every table the workspace draws from: Table 2's six, cosmology's,
    /// `zipf:1.1` and `zipf:1.4` (2²⁰ keys each), Table 1's two high-α
    /// tables (clamped to 2²²), and the service load generator's size
    /// tables (the benchmark's 16 multipliers and the default 64), both
    /// smaller than the head.
    fn drawn_tables() -> Vec<ZipfGen> {
        let mut tables: Vec<ZipfGen> = PAPER_ALPHA_DELTA_TABLE2
            .iter()
            .chain(&[(0.6, crate::cosmology::COSMOLOGY_DELTA_PCT)])
            .map(|&(alpha, delta)| Table::Delta(alpha, delta).build())
            .collect();
        tables.extend([1.1, 1.4].map(|alpha| Table::for_alpha(alpha).build()));
        tables.extend([(1.4, 32.0), (2.1, 63.0)].map(|(a, d)| ZipfGen::with_delta_target(a, d)));
        tables.extend([16, 64].map(|m| ZipfGen::new(1.1, m)));
        tables
    }

    #[test]
    fn head_first_search_is_exact() {
        let tables = drawn_tables();
        assert_eq!(tables.len(), 13);
        assert_eq!(
            tables
                .iter()
                .filter(|g| g.universe() == MAX_UNIVERSE)
                .count(),
            2
        );
        assert_eq!(tables.iter().filter(|g| g.universe() < HEAD).count(), 2);
        let mut rng = StdRng::seed_from_u64(0x5EA4C4);
        for gen in &tables {
            let cdf = &gen.cdf;
            let mut us: Vec<f64> = (0..100_000).map(|_| rng.gen()).collect();
            us.push(0.0);
            for edge in [cdf[0], cdf[HEAD.min(cdf.len()) - 1], cdf[cdf.len() - 1]] {
                us.extend([edge.next_down(), edge, edge.next_up()]);
            }
            let mut in_tail = 0;
            for u in us {
                let want = cdf.partition_point(|&c| c < u);
                assert_eq!(
                    gen.search(u),
                    want,
                    "(α {}, M {}): u = {u:e}",
                    gen.alpha(),
                    gen.universe()
                );
                in_tail += usize::from(want >= HEAD);
            }
            // Both arms run on every table larger than the head.
            assert_eq!(in_tail > 0, gen.universe() > HEAD, "M {}", gen.universe());
        }
    }

    /// Whether the registry holds a live `table`. Other tests of this
    /// binary draw from their own tables concurrently, so a check that the
    /// whole registry is empty could race with them.
    fn is_live(table: Table) -> bool {
        LIVE.lock()
            .expect("registry lock")
            .iter()
            .any(|(t, held)| *t == table && held.strong_count() > 0)
    }

    #[test]
    fn concurrent_callers_share_one_table_and_keep_none() {
        const CALLERS: usize = 16;
        let (n, seed, rank) = (2000, 11, 5);
        let table = Table::for_alpha(1.4);
        assert_eq!(table, Table::Universe(1.4, 1 << 20));
        let lone = zipf_keys(n, 1.4, seed, rank);
        assert_eq!(lone, ZipfGen::new(1.4, 1 << 20).keys(n, seed, rank));
        assert!(!is_live(table), "a lone caller keeps no table");

        // Every caller starts at once: the same keys as the lone caller.
        let start = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        zipf_keys(n, 1.4, seed, rank)
                    })
                })
                .collect();
            for caller in callers {
                assert!(caller.join().expect("caller thread") == lone);
            }
        });
        assert!(!is_live(table), "no table outlives its draws");

        // All of them inside their draws at once hold one table.
        let inside = std::sync::Barrier::new(CALLERS);
        let tables: Vec<usize> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        with_shared(table, |gen| {
                            inside.wait();
                            std::ptr::from_ref(gen) as usize
                        })
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller thread"))
                .collect()
        });
        assert!(tables.iter().all(|&t| t == tables[0]), "{tables:?}");
        assert!(!is_live(table), "the last caller frees the table");
    }

    #[test]
    fn harmonic_matches_known_values() {
        assert!((harmonic(1, 0.7) - 1.0).abs() < 1e-12);
        let h3 = 1.0 + 2f64.powf(-0.5) + 3f64.powf(-0.5);
        assert!((harmonic(3, 0.5) - h3).abs() < 1e-12);
        // tail approximation continuous across the exact/integral boundary
        let a = harmonic(200_000, 0.7);
        let b = harmonic(200_001, 0.7);
        assert!(b > a && b - a < 1e-3);
    }

    #[test]
    fn sampler_prefers_small_keys() {
        let gen = ZipfGen::new(1.0, 1000);
        let keys = gen.keys(50_000, 1, 0);
        let ones = keys.iter().filter(|&&k| k == 1).count();
        let fives = keys.iter().filter(|&&k| k == 5).count();
        assert!(
            ones > fives * 3,
            "zipf must be head-heavy: {ones} vs {fives}"
        );
        assert!(keys.iter().all(|&k| (1..=1000).contains(&k)));
    }

    #[test]
    fn delta_targets_match_table2() {
        // Empirical δ within a relative tolerance of each Table 2 entry.
        for &(alpha, delta) in &PAPER_ALPHA_DELTA_TABLE2 {
            let gen = ZipfGen::with_delta_target(alpha, delta);
            let expect = gen.expected_delta_pct();
            assert!(
                (expect - delta).abs() / delta < 0.05,
                "α={alpha}: expected δ {expect:.3}% vs table {delta}%"
            );
            let keys = gen.keys(200_000, 42, 0);
            let emp = replication_ratio_pct(keys);
            assert!(
                (emp - delta).abs() / delta < 0.25,
                "α={alpha}: empirical δ {emp:.3}% vs table {delta}%"
            );
        }
    }

    #[test]
    fn table1_high_alpha_deltas() {
        // Table 1 cites α=1.4 → δ≈32%, α=2.1 → δ≈63%.
        for (alpha, delta) in [(1.4, 32.0), (2.1, 63.0)] {
            let gen = ZipfGen::with_delta_target(alpha, delta);
            let emp = replication_ratio_pct(gen.keys(100_000, 3, 0));
            assert!(
                (emp - delta).abs() / delta < 0.15,
                "α={alpha}: empirical δ {emp:.1}% vs {delta}%"
            );
        }
    }

    #[test]
    fn keys_deterministic_per_rank() {
        let gen = ZipfGen::new(0.8, 5000);
        assert_eq!(gen.keys(100, 9, 2), gen.keys(100, 9, 2));
        assert_ne!(gen.keys(100, 9, 2), gen.keys(100, 9, 3));
    }
}
