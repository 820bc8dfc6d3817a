//! The one table of distributed sorters.
//!
//! Each row of [`Sorter`] is one sorter: its command-line name, its legend
//! label, its generic entry point ([`Sorter::sort`], over any
//! [`Sortable`] record and any [`Communicator`]), whether it is stable,
//! and the load bound its paper publishes. `sortcli`, the experiment
//! harness and the test suites iterate [`Sorter::ALL`] instead of keeping
//! a dispatch of their own; a sorter joins all of them by joining the
//! table.
//!
//! Keys stay typed at compile time: a row is a plain enum value, and the
//! generic entry point monomorphises per record type like the sorters it
//! dispatches to.

use crate::{ams_sort, hss_sort, hyksort, AmsConfig, HssConfig, HykSortConfig};
use comm::Communicator;
use sdssort::{sds_sort, SdsConfig, SortError, SortOutput, Sortable};

/// One distributed sorter of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sorter {
    /// SDS-Sort, fast (unstable) variant.
    Sds,
    /// SDS-Sort, stable variant.
    SdsStable,
    /// HykSort, the paper's baseline ([`hyksort()`]).
    HykSort,
    /// Multi-level AMS-sort ([`ams_sort`]).
    Ams,
    /// Histogram Sort with Sampling ([`hss_sort`]).
    Hss,
}

/// Every sorter's configuration, so that one value tunes whichever row
/// runs. The SDS rows read [`Tuning::sds`] with `stable` set by the row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tuning {
    /// SDS-Sort (both rows).
    pub sds: SdsConfig,
    /// HykSort.
    pub hyksort: HykSortConfig,
    /// AMS-sort.
    pub ams: AmsConfig,
    /// HSS.
    pub hss: HssConfig,
}

impl Sorter {
    /// The table, in the order figure legends list the sorters.
    pub const ALL: [Sorter; 5] = [
        Sorter::Sds,
        Sorter::SdsStable,
        Sorter::HykSort,
        Sorter::Ams,
        Sorter::Hss,
    ];

    /// Command-line name (`sortcli --sorter`).
    pub fn name(self) -> &'static str {
        match self {
            Sorter::Sds => "sds",
            Sorter::SdsStable => "sds-stable",
            Sorter::HykSort => "hyksort",
            Sorter::Ams => "ams",
            Sorter::Hss => "hss",
        }
    }

    /// Display label, matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Sorter::Sds => "SDS-Sort",
            Sorter::SdsStable => "SDS-Sort/stable",
            Sorter::HykSort => "HykSort",
            Sorter::Ams => "AMS-sort",
            Sorter::Hss => "HSS",
        }
    }

    /// The row whose [`name`](Sorter::name) is `name`.
    pub fn by_name(name: &str) -> Option<Sorter> {
        Sorter::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether equal keys leave in input order (rank order, then position).
    pub fn stable(self) -> bool {
        self == Sorter::SdsStable
    }

    /// The published bound on any rank's post-exchange load, as a multiple
    /// of `N/p`, for every input including duplicated keys; `None` where
    /// duplicates defeat the sorter's value splitters. SDS-Sort's is
    /// Theorem 1's `4N/p` (before lower-order rounding terms; a `τm` node
    /// merge concentrates a node's output on its leader by design, so the
    /// bound is for sorts that do not node-merge); HSS's is `(1+ε)N/p`.
    pub fn load_bound(self, tuning: &Tuning) -> Option<f64> {
        match self {
            Sorter::Sds | Sorter::SdsStable => Some(4.0),
            Sorter::Hss => Some(1.0 + tuning.hss.eps),
            Sorter::HykSort | Sorter::Ams => None,
        }
    }

    /// The SDS configuration this row runs under `tuning`, or `None` for
    /// the other sorters.
    pub fn sds_config(self, tuning: &Tuning) -> Option<SdsConfig> {
        matches!(self, Sorter::Sds | Sorter::SdsStable).then_some(SdsConfig {
            stable: self.stable(),
            ..tuning.sds
        })
    }

    /// Sort `data` across `comm` with this sorter, configured by `tuning`.
    /// Collective: every rank calls it with the same row and tuning.
    pub fn sort<T: Sortable, C: Communicator>(
        self,
        comm: &C,
        data: Vec<T>,
        tuning: &Tuning,
    ) -> Result<SortOutput<T>, SortError> {
        match self {
            Sorter::Sds | Sorter::SdsStable => {
                let cfg = SdsConfig {
                    stable: self.stable(),
                    ..tuning.sds
                };
                sds_sort(comm, data, &cfg)
            }
            Sorter::HykSort => hyksort(comm, data, &tuning.hyksort),
            Sorter::Ams => ams_sort(comm, data, &tuning.ams),
            Sorter::Hss => hss_sort(comm, data, &tuning.hss),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        for s in Sorter::ALL {
            assert_eq!(Sorter::by_name(s.name()), Some(s));
        }
        assert_eq!(Sorter::by_name("samplesort"), None);
    }

    #[test]
    fn sds_rows_set_stability_and_the_rest_run_no_sds() {
        let mut t = Tuning::default();
        t.sds.stable = true;
        t.sds.oversample = 3;
        let sds = Sorter::Sds.sds_config(&t).expect("an SDS row");
        assert!(!sds.stable && sds.oversample == 3);
        assert!(Sorter::SdsStable.sds_config(&t).is_some_and(|c| c.stable));
        for s in [Sorter::HykSort, Sorter::Ams, Sorter::Hss] {
            assert!(s.sds_config(&t).is_none(), "{s:?}");
            assert!(!s.stable(), "{s:?}");
        }
    }
}
