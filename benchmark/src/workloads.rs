//! The benchmark's named workloads: what each runs and why it exists.

use crate::verify::BenchRecord;
use sdssort::{ComputeModel, SdsConfig};
use service::{JobSpec, LoadGen};

/// Where a workload's sorts run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `shmem::ThreadWorld`, one OS thread per rank.
    Threads,
    /// `sockcomm::SocketWorld` over Unix-domain sockets, one process per rank.
    Sockets,
    /// `mpisim::World`, 16 simulated ranks, virtual time.
    Sim,
    /// `service::SortService` driven by a closed loop of clients.
    Service,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    U64,
    Tagged,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Full-range uniform `u64`.
    Uniform,
    /// Uniform, each rank's share already sorted.
    UniformPresorted,
    /// `zipf:1.4`, the most frequent key holding about 32 % of all records.
    Zipf,
    /// The service's job stream: a different small Zipf job every repetition.
    ServiceJobs,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub record: RecordKind,
    pub keys: Keys,
    /// Records per rank (service: the smallest job's).
    pub n_per_rank: usize,
    pub stable: bool,
    /// Percentile `latency_tail_ms` is read at: the highest with at least
    /// ten samples beyond it in one run's pooled samples.
    pub tail_pct: u32,
}

/// Fresh child processes per run; each sets up once, so `setup_s` is the
/// median of this many set-ups.
pub const TRIALS: usize = 3;
/// Repetitions discarded at the start of every trial.
pub const WARMUP_REPS: usize = 3;
/// Jobs discarded at the start of every service trial.
pub const WARMUP_JOBS: usize = 100;
/// `with_output` jobs verified (untimed) at the end of every service trial.
pub const VERIFIED_JOBS: usize = 20;
/// Ranks of the simulated world.
pub const SIM_RANKS: usize = 16;
/// Key-name of the service's jobs and its smallest job.
pub const SERVICE_KEYS: &str = "zipf:0.8";
const SERVICE_MIN_RECORDS: usize = 5_000;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "threads-uniform",
        why: "kernel-bound baseline on threads: the comparison local sort is over half the time, so a local-kernel gain must show here",
        backend: Backend::Threads,
        record: RecordKind::U64,
        keys: Keys::Uniform,
        n_per_rank: 1 << 21,
        stable: false,
        tail_pct: 75,
    },
    Workload {
        name: "threads-zipf",
        why: "same layers on skew (most frequent key 32%): Auto picks the radix kernel and imbalance shows as tail wait; catches a change that helps uniform and hurts skew",
        backend: Backend::Threads,
        record: RecordKind::U64,
        keys: Keys::Zipf,
        n_per_rank: 1 << 21,
        stable: false,
        tail_pct: 75,
    },
    Workload {
        name: "threads-presorted",
        why: "locally presorted input: local sort is a small share, exchange and merge dominate; mailbox/copy/merge work must show here and kernel work must not",
        backend: Backend::Threads,
        record: RecordKind::U64,
        keys: Keys::UniformPresorted,
        n_per_rank: 1 << 21,
        stable: false,
        tail_pct: 75,
    },
    Workload {
        name: "sockets-uniform",
        why: "threads-uniform's data and config over process-per-rank sockets: isolates transport cost (Wire encode/decode, framing, socket, reader threads)",
        backend: Backend::Sockets,
        record: RecordKind::U64,
        keys: Keys::Uniform,
        n_per_rank: 1 << 21,
        stable: false,
        tail_pct: 75,
    },
    Workload {
        name: "sockets-stable-tagged",
        why: "the stable variant on 16-byte records over sockets: stable local sort, stable cuts, synchronous exchange then k-way merge, field-wise Wire; the other half of every layer",
        backend: Backend::Sockets,
        record: RecordKind::Tagged,
        keys: Keys::Zipf,
        n_per_rank: 1 << 20,
        stable: true,
        tail_pct: 75,
    },
    Workload {
        name: "service-closed-loop",
        why: "resident service, one blocking client per rank, small Zipf-sized jobs: dispatcher, queue, gang wake-up and pivot collectives dominate; kernels do little",
        backend: Backend::Service,
        record: RecordKind::U64,
        keys: Keys::ServiceJobs,
        n_per_rank: SERVICE_MIN_RECORDS,
        stable: false,
        tail_pct: 95,
    },
    Workload {
        name: "sim-zipf-p16",
        why: "16 simulated ranks in virtual time (deterministic per seed): the only place 15 pivots, duplicated pivots, a 16-way merge and the staggered all-to-all exist",
        backend: Backend::Sim,
        record: RecordKind::U64,
        keys: Keys::Zipf,
        n_per_rank: 1 << 16,
        stable: false,
        tail_pct: 75,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Ranks on the real backends: never more than the machine has cores.
pub fn real_ranks() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload {
    pub fn ranks(&self) -> usize {
        match self.backend {
            Backend::Sim => SIM_RANKS,
            _ => real_ranks(),
        }
    }

    /// Records per rank, cut down in quick mode.
    pub fn n(&self, quick: bool) -> usize {
        if quick {
            self.n_per_rank.min(match self.backend {
                Backend::Sim => 1 << 12,
                _ => 1 << 16,
            })
        } else {
            self.n_per_rank
        }
    }

    /// Library defaults; the simulator charges modelled compute so that its
    /// virtual time does not depend on the host.
    pub fn sds_config(&self) -> SdsConfig {
        match (self.backend, self.stable) {
            (Backend::Sim, _) => SdsConfig::modeled(ComputeModel::nominal()),
            (_, true) => SdsConfig::stable(),
            (_, false) => SdsConfig::default(),
        }
    }

    /// The service's job stream for one trial; every seed derives from
    /// `--seed`.
    pub fn load_gen(&self, seed: u64, trial: u32) -> LoadGen {
        LoadGen::new(SERVICE_KEYS, self.n_per_rank, trial_seed(seed, trial)).with_size_skew(1.1, 16)
    }

    /// One rank's inputs for a trial in a world: one buffer that every
    /// repetition sorts a copy of, or (replaying the service's jobs) a pool
    /// of job inputs visited in turn.
    pub fn inputs<T: BenchRecord>(
        &self,
        seed: u64,
        trial: u32,
        quick: bool,
        rank: usize,
    ) -> Vec<Vec<T>> {
        let n = self.n(quick);
        let tagged = |keys: Vec<u64>, n: usize| -> Vec<T> {
            keys.into_iter()
                .enumerate()
                .map(|(i, k)| T::make(k, (rank * n + i) as u64))
                .collect()
        };
        let gen = |name: &str, n: usize, seed: u64| {
            workloads::keys_by_name(name, n, seed, rank).expect("workload key names are valid")
        };
        match self.keys {
            Keys::Uniform => vec![tagged(gen("uniform", n, seed), n)],
            Keys::Zipf => vec![tagged(gen("zipf:1.4", n, seed), n)],
            Keys::UniformPresorted => {
                let mut keys = gen("uniform", n, seed);
                keys.sort_unstable();
                vec![tagged(keys, n)]
            }
            Keys::ServiceJobs => {
                let lg = self.load_gen(seed, trial);
                (0..if quick { 8 } else { 64 })
                    .map(|j| {
                        let JobSpec {
                            workload,
                            records_per_rank,
                            seed,
                            ..
                        } = lg.spec(j);
                        tagged(gen(&workload, records_per_rank, seed), records_per_rank)
                    })
                    .collect()
            }
        }
    }
}

/// Trials of one run draw disjoint job streams.
pub fn trial_seed(seed: u64, trial: u32) -> u64 {
    seed.wrapping_add(u64::from(trial) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_seed_and_rank() {
        let w = find("sockets-stable-tagged").expect("known workload");
        let a = w.inputs::<sdssort::Tagged<u64>>(7, 0, true, 1);
        assert_eq!(a, w.inputs::<sdssort::Tagged<u64>>(7, 0, true, 1));
        assert_ne!(a, w.inputs::<sdssort::Tagged<u64>>(8, 0, true, 1));
        let n = w.n(true) as u64;
        assert_eq!(
            a[0][0].payload, n,
            "rank 1's first record is at input position n"
        );
        assert_eq!(a[0].last().map(|r| r.payload), Some(2 * n - 1));

        let presorted = find("threads-presorted").expect("known workload");
        let keys = &presorted.inputs::<u64>(7, 0, true, 0)[0];
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));

        let jobs = find("service-closed-loop").expect("known workload");
        let pool = jobs.inputs::<u64>(7, 0, true, 0);
        assert_eq!(pool.len(), 8);
        assert!(pool.iter().all(|j| j.len() >= SERVICE_MIN_RECORDS));
    }
}
