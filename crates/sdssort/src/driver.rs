//! What every distributed sorter does around its splitter rule (Fig. 1),
//! once.
//!
//! Of the paper's pipeline only the splitters and the partition are a
//! sorter's own. The initial ordering, the `τm` node merge, the memory
//! check, the all-to-all and the final ordering are what every sample sort
//! does, and the paper compares sorters phase by phase on that skeleton. So
//! a sorter here is a [`Prelude`] plus a *rule*: [`sort`] runs steps 1–2,
//! hands the rule the sorted data on the communicator the sort continues
//! on, and the rule ends in [`crate::exchange::exchange`] (steps 5–7) —
//! directly, or once per level through [`group_step`].
//!
//! One [`Clock`] accompanies the sort. Each [`Step`] has one name — its
//! telemetry span and its traffic phase — and one [`SortStats`] field, and
//! [`Clock::enter`] books the time since the previous `enter` into the
//! field of the step that ends (and, for steps 1, 3 and 4, into the pivot
//! phase they make up). A rank's phases therefore sum to its time in the
//! call, and every sorter emits the same kind of span sequence on every
//! backend.

use crate::config::{ComputeCharge, LocalKernel};
use crate::exchange::{exchange, fail_together, Delivery};
use crate::local_sort::{local_sort_with, ComparisonKernel, LocalSortReport};
use crate::merge::take_replicated_tally;
use crate::node_merge::{leaders_verdict, merge_onto_leaders, node_merge_applies};
use crate::radix::{counts_in_one_pass, RADIX_MIN_N};
use crate::record::Sortable;
use crate::sort::{SortError, SortOutput};
use crate::stats::SortStats;
use comm::{pages, Communicator};
use telemetry::SpanId;

/// The steps of a distributed sort, in Fig. 1's order. A multi-level sorter
/// passes through `Splitters`..`LocalOrder` once per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Step 1, the initial local sort. `local_sort_s`, part of `pivot_s`
    /// (the paper's "initial ordering" footnote).
    LocalSort,
    /// Step 2, the `τm` decision and, when it fires, the merge onto the
    /// node leaders. Booked under `other_s`.
    NodeMerge,
    /// Step 3's local sampling, for a sorter that samples before it
    /// selects (SDS's regular samples). `sample_s`, part of `pivot_s`.
    Sample,
    /// Step 3, splitter selection (with whatever sampling the sorter does
    /// inside it). `select_s`, part of `pivot_s`.
    Splitters,
    /// Step 4, cutting the local data at the splitters. `partition_s`,
    /// part of `pivot_s`.
    Partition,
    /// Steps 5–6, the memory check and the all-to-all. `exchange_s`.
    Exchange,
    /// Step 7, the final local ordering. `local_order_s`.
    LocalOrder,
}

impl Step {
    /// The step's span name and traffic phase.
    pub fn name(self) -> &'static str {
        match self {
            Step::LocalSort => "local-sort",
            Step::NodeMerge => "node-merge",
            Step::Sample => "sample",
            Step::Splitters => "pivot-select",
            Step::Partition => "partition",
            Step::Exchange => "exchange",
            Step::LocalOrder => "local-order",
        }
    }

    /// The step's own field of `stats`.
    fn field(self, stats: &mut SortStats) -> &mut f64 {
        match self {
            Step::LocalSort => &mut stats.local_sort_s,
            Step::NodeMerge => &mut stats.other_s,
            Step::Sample => &mut stats.sample_s,
            Step::Splitters => &mut stats.select_s,
            Step::Partition => &mut stats.partition_s,
            Step::Exchange => &mut stats.exchange_s,
            Step::LocalOrder => &mut stats.local_order_s,
        }
    }

    /// Whether the step's time is also the pivot phase's.
    fn in_pivot_phase(self) -> bool {
        matches!(
            self,
            Step::LocalSort | Step::Sample | Step::Splitters | Step::Partition
        )
    }
}

/// The phase clock of one rank's sort: the open step, when it began, its
/// span, and the statistics the sort will report. The open span closes on
/// drop, so an error exit needs no bookkeeping.
pub struct Clock<'a, C: Communicator> {
    comm: &'a C,
    /// The sort's statistics so far. Steps note what they did here; the
    /// time fields are the clock's to write.
    pub stats: SortStats,
    step: Step,
    since: f64,
    span: Option<SpanId>,
    /// This thread's minor page faults when the open step began; read only
    /// while the recorder is on.
    faults: Option<u64>,
}

impl<'a, C: Communicator> Clock<'a, C> {
    /// Start the clock of this rank on `comm`'s timeline, in `step`. A
    /// sub-communicator of `comm` shares that timeline, so the one clock
    /// serves every level of a sort.
    pub fn start(comm: &'a C, step: Step) -> Self {
        let mut clock = Self {
            comm,
            stats: SortStats::default(),
            step,
            since: comm.now(),
            span: None,
            faults: None,
        };
        // Whatever this thread reserved, merged or faulted before the sort
        // is not the sort's.
        pages::take_tally();
        take_replicated_tally();
        clock.faults = clock.minor_faults();
        clock.open(step, clock.since);
        clock
    }

    /// `step` begins: the time since the last `enter` goes to the phase of
    /// the step that ends, its span closes, and `step`'s opens at the same
    /// instant. Entering the open step changes nothing.
    pub fn enter(&mut self, step: Step) {
        if step != self.step {
            let now = self.close();
            self.open(step, now);
        }
    }

    /// The overlapped exchange merged for `seconds` while it waited for
    /// chunks: that much of the exchange was ordering.
    pub(crate) fn count_as_ordering(&mut self, seconds: f64) {
        self.stats.exchange_s -= seconds;
        self.stats.local_order_s += seconds;
    }

    fn open(&mut self, step: Step, now: f64) {
        self.step = step;
        self.span = Some(self.comm.span_begin(step.name(), now));
    }

    /// Book the open step up to now and close its span.
    fn close(&mut self) -> f64 {
        let now = self.comm.now();
        let spent = now - self.since;
        *self.step.field(&mut self.stats) += spent;
        if self.step.in_pivot_phase() {
            self.stats.pivot_s += spent;
        }
        self.since = now;
        if let Some(span) = self.span.take() {
            self.comm.span_end(span, now);
        }
        // The n-record buffers this rank obtained since the last reading
        // (`comm::pages`), and how much of them is huge-page advised.
        let buffers = pages::take_tally();
        if buffers.reserved_bytes > 0 {
            self.comm
                .count("mem.sort_buffer_bytes", buffers.reserved_bytes);
        }
        if buffers.advised_bytes > 0 {
            self.comm
                .count("mem.huge_advised_bytes", buffers.advised_bytes);
        }
        // The records its two-way merges moved as replicated-key blocks.
        let replicated = take_replicated_tally();
        if replicated > 0 {
            self.comm.count("merge.replicated_records", replicated);
        }
        // The first touches this rank's thread took in the step.
        let faults = self.minor_faults();
        if let Some((now, then)) = faults.zip(self.faults) {
            self.comm.count("mem.page_faults", now - then);
        }
        self.faults = faults;
        now
    }

    /// This thread's minor page faults so far, while the recorder is on.
    fn minor_faults(&self) -> Option<u64> {
        self.comm
            .recorder()
            .enabled()
            .then(pages::minor_faults)
            .flatten()
    }
}

impl<C: Communicator> Drop for Clock<'_, C> {
    fn drop(&mut self) {
        self.close();
    }
}

/// What steps 1–2 need to know, from the sorter's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Prelude {
    /// Preserve the order of equal keys in the local sort.
    pub stable: bool,
    /// Threads for the local sort.
    pub threads: usize,
    /// Local-sort kernel.
    pub kernel: LocalKernel,
    /// The node-merge threshold `τm`, for a sorter that has the stage.
    /// `None` skips it, decision included: the decision is a collective,
    /// which a sorter without the stage never paid.
    pub tau_m_bytes: Option<usize>,
    /// Compute charging.
    pub charge: ComputeCharge,
}

impl Prelude {
    /// The prelude of an unstable single-threaded sorter without the `τm`
    /// stage, with the kernel `Auto` picks.
    pub fn unstable(charge: ComputeCharge) -> Self {
        Self {
            stable: false,
            threads: 1,
            kernel: LocalKernel::Auto,
            tau_m_bytes: None,
            charge,
        }
    }
}

/// Record which local-sort kernel ran (and its transient scratch) in the
/// telemetry counters, and on rank 0 the form it took and what made `Auto`
/// choose it. `requested` is the kernel the caller asked for.
pub(crate) fn count_local_sort<C: Communicator>(
    comm: &C,
    n: usize,
    requested: LocalKernel,
    report: LocalSortReport,
) {
    let name = match report.kernel {
        LocalKernel::Radix => "local_sort.kernel.radix",
        _ => "local_sort.kernel.comparison",
    };
    comm.count(name, 1);
    if report.scratch_bytes > 0 {
        comm.count("local_sort.scratch_bytes", report.scratch_bytes as u64);
    }
    if comm.recorder().enabled() && comm.rank() == 0 {
        let what = match (report.radix, report.comparison) {
            (Some(run), _) => format!("radix, {run}"),
            (None, Some(ComparisonKernel::Avx512)) => {
                format!("comparison (avx512 quicksort, n {n})")
            }
            (None, Some(ComparisonKernel::StdNoAvx512)) => {
                format!("comparison (std, n {n}; no avx512)")
            }
            (None, _) => format!("comparison (std, n {n}; not u64)"),
        };
        let why = match report.gate {
            Some(g) => {
                let (num, den) = g.dup_bound();
                let sort = if g.stable { "stable: " } else { "" };
                let sampled = format!(
                    "sampled {}: span {} bits, {} digits (radix up to {}), \
                     δ̂ {}/{} ({sort}radix below {num}/{den})",
                    g.sampled,
                    g.span,
                    g.digits,
                    g.max_digits(),
                    g.longest_run,
                    g.sampled
                );
                match report.exact_span {
                    Some(b) if report.radix.is_some_and(|r| counts_in_one_pass(b, r.n)) => {
                        format!("{sampled}; exact span {b} bits fits one counting pass, whatever δ̂")
                    }
                    Some(b) => format!(
                        "{sampled}; exact span {b} bits needs more buckets than records, \
                         so digits and δ̂ decide"
                    ),
                    None => format!(
                        "{sampled}; that span needs more buckets than records, \
                         so digits and δ̂ decide"
                    ),
                }
            }
            None if requested != LocalKernel::Auto => "not sampled: kernel forced".to_string(),
            None => format!(
                "not sampled: radix does not apply to this key, or n is below {RADIX_MIN_N}"
            ),
        };
        comm.event("decision.local-kernel", &format!("{what}; {why}"));
    }
}

/// Sort `data` (one rank's share) across `comm`: steps 1–2 here, the rest
/// by `rule`, which receives the communicator the sort continues on (the
/// node leaders' after a node merge), this rank's sorted data there and the
/// clock, and returns this rank's slice of the global order. The rule is
/// not called on a rank with nobody to exchange with (`p = 1`, a non-leader,
/// a lone leader). A failure among the leaders fails their nodes too.
///
/// Statistics are discarded on the error path: the paper treats it as a
/// whole-job crash.
pub fn sort<T, C, R>(
    comm: &C,
    mut data: Vec<T>,
    prelude: &Prelude,
    rule: R,
) -> Result<SortOutput<T>, SortError>
where
    T: Sortable,
    C: Communicator,
    R: FnOnce(&C, Vec<T>, &mut Clock<'_, C>) -> Result<Vec<T>, SortError>,
{
    let mut clock = Clock::start(comm, Step::LocalSort);
    let n0 = data.len();
    clock.stats.input_count = n0;
    let report = prelude.charge.charged(
        comm,
        |m| m.sort_cost_with(n0, prelude.stable),
        || local_sort_with(&mut data, prelude.threads, prelude.stable, prelude.kernel),
    );
    count_local_sort(comm, n0, prelude.kernel, report);

    // Step 2: adaptive node-level merging; the sort then continues among
    // the node leaders only.
    let p = comm.size();
    let leaders;
    let mut node = None;
    let mut on = comm;
    let mut alone = p == 1;
    if let (false, Some(tau_m)) = (alone, prelude.tau_m_bytes) {
        clock.enter(Step::NodeMerge);
        let (avg_msg, merge) = node_merge_applies::<T, C>(comm, data.len(), tau_m);
        if comm.recorder().enabled() && comm.rank() == 0 {
            let cores = comm.cores_per_node();
            let verdict = if merge { "merged" } else { "not merged" };
            comm.event(
                "decision.node-merge",
                &format!("avg {avg_msg} B/msg vs τm {tau_m} B, {cores} cores/node: {verdict}"),
            );
        }
        if merge {
            clock.stats.node_merged = true;
            let (cl, led) = merge_onto_leaders(comm, data, prelude.charge);
            node = Some(cl);
            (data, alone) = match led {
                Some((cg, merged)) => {
                    leaders = cg;
                    on = &leaders;
                    (merged, on.size() == 1)
                }
                // Non-leader: its data now lives on the node leader.
                None => (Vec::new(), true),
            };
        }
    }
    let sorted = if alone {
        Ok(data)
    } else {
        rule(on, data, &mut clock)
    };
    // What becomes of the sort among the leaders holds for their nodes.
    let data = match &node {
        Some(cl) => leaders_verdict(cl, sorted),
        None => sorted,
    }?;
    clock.close();
    let mut stats = clock.stats;
    stats.recv_count = data.len();
    Ok(SortOutput { data, stats })
}

/// One level of a multi-level sorter, as [`group_step`] needs it.
#[derive(Debug, Clone, Copy)]
pub struct Level<'a> {
    /// How many of this rank's sorted records go to each group, in group
    /// order (groups ascend with the keys they hold). Its length `k` is the
    /// number of groups and divides the communicator's size.
    pub to_group: &'a [usize],
    /// How the level's exchange delivers and orders.
    pub delivery: Delivery<'a>,
    /// Compute charging.
    pub charge: ComputeCharge,
    /// Whether this is the level the sort started on. Below it the memory
    /// checks are per group, so one group can fail while the others
    /// finish; the top level makes that everyone's failure.
    pub top: bool,
}

/// The group step of a multi-level sorter: the `p` ranks of `comm` fall
/// into `k` consecutive groups of `g = p/k`, every rank sends group `b`'s
/// records to one member of it — `b·g + rank mod g`, so the level is a
/// sparse all-to-all of `k` messages per rank — and `next` sorts on within
/// this rank's group. With one-rank groups the level's exchange has
/// finished the sort and nothing is split.
pub fn group_step<T, C, N>(
    comm: &C,
    data: Vec<T>,
    level: &Level<'_>,
    clock: &mut Clock<'_, C>,
    next: N,
) -> Result<Vec<T>, SortError>
where
    T: Sortable,
    C: Communicator,
    N: FnOnce(&C, Vec<T>, &mut Clock<'_, C>) -> Result<Vec<T>, SortError>,
{
    let (p, me) = (comm.size(), comm.rank());
    let g = p / level.to_group.len();
    // The destinations ascend with the group, so sorted `data` is already
    // laid out in rank order for the exchange.
    let mut scounts = vec![0usize; p];
    for (b, &count) in level.to_group.iter().enumerate() {
        let dst = b
            .checked_mul(g)
            .and_then(|base| base.checked_add(me % g))
            .expect("destination b*g + (me%g) < p, which fit in usize");
        scounts[dst] = count;
    }
    let mine = exchange(comm, data, &scounts, level.delivery, level.charge, clock)?;
    if g == 1 {
        return Ok(mine);
    }
    // Forming the groups opens the next level's splitter selection.
    clock.enter(Step::Splitters);
    let sub = comm
        .split(Some((me / g) as i64), (me % g) as i64)
        .expect("every rank is in a group");
    let sorted = next(&sub, mine, clock);
    if level.top {
        fail_together(comm, sorted)
    } else {
        sorted
    }
}
