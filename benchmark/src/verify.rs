//! Output verification: every repetition's result is checked, outside the
//! clock, from one small digest per rank — so the same check runs inside a
//! world (digests allgathered) and on a service job's returned slices.

use sdssort::{Sortable, Tagged};

/// The two record types the workloads sort. The payload of a tagged record
/// is its global input position, which is what the stability check reads.
pub trait BenchRecord: Sortable<Key = u64> + PartialEq + std::fmt::Debug {
    fn make(key: u64, position: u64) -> Self;
    fn payload(&self) -> u64;
}

impl BenchRecord for u64 {
    fn make(key: u64, _position: u64) -> Self {
        key
    }
    fn payload(&self) -> u64 {
        0
    }
}

impl BenchRecord for Tagged<u64> {
    fn make(key: u64, position: u64) -> Self {
        Tagged::new(key, position)
    }
    fn payload(&self) -> u64 {
        self.payload
    }
}

/// Count and order-insensitive checksums of a record set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Content {
    pub count: u64,
    pub key_sum: u64,
    pub key_xor: u64,
    pub pay_sum: u64,
    pub pay_xor: u64,
}

impl Content {
    pub fn of<T: BenchRecord>(data: &[T]) -> Self {
        let mut c = Content {
            count: data.len() as u64,
            ..Content::default()
        };
        for r in data {
            c.key_sum = c.key_sum.wrapping_add(r.key());
            c.key_xor ^= r.key();
            c.pay_sum = c.pay_sum.wrapping_add(r.payload());
            c.pay_xor ^= r.payload();
        }
        c
    }

    pub fn merge(self, other: Content) -> Content {
        Content {
            count: self.count + other.count,
            key_sum: self.key_sum.wrapping_add(other.key_sum),
            key_xor: self.key_xor ^ other.key_xor,
            pay_sum: self.pay_sum.wrapping_add(other.pay_sum),
            pay_xor: self.pay_xor ^ other.pay_xor,
        }
    }
}

/// What one rank publishes about its output slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankDigest {
    pub content: Content,
    /// `(key, payload)` of the first and last record; `None` when empty.
    pub ends: Option<((u64, u64), (u64, u64))>,
    /// Keys ascend within the slice.
    pub sorted: bool,
    /// Equal keys carry strictly ascending payloads within the slice.
    pub ties_in_input_order: bool,
}

/// Number of `u64` words in [`RankDigest::to_words`].
pub const DIGEST_WORDS: usize = 12;

impl RankDigest {
    pub fn of<T: BenchRecord>(data: &[T]) -> Self {
        let mut sorted = true;
        let mut ties = true;
        for w in data.windows(2) {
            sorted &= w[0].key() <= w[1].key();
            ties &= w[0].key() != w[1].key() || w[0].payload() < w[1].payload();
        }
        let end = |r: &T| (r.key(), r.payload());
        RankDigest {
            content: Content::of(data),
            ends: data.first().map(end).zip(data.last().map(end)),
            sorted,
            ties_in_input_order: ties,
        }
    }

    /// Fixed-width form for an allgather.
    pub fn to_words(self) -> [u64; DIGEST_WORDS] {
        let c = self.content;
        let ((fk, fp), (lk, lp)) = self.ends.unwrap_or_default();
        [
            c.count,
            c.key_sum,
            c.key_xor,
            c.pay_sum,
            c.pay_xor,
            u64::from(self.ends.is_some()),
            fk,
            fp,
            lk,
            lp,
            u64::from(self.sorted),
            u64::from(self.ties_in_input_order),
        ]
    }

    pub fn from_words(w: &[u64; DIGEST_WORDS]) -> Self {
        RankDigest {
            content: Content {
                count: w[0],
                key_sum: w[1],
                key_xor: w[2],
                pay_sum: w[3],
                pay_xor: w[4],
            },
            ends: (w[5] != 0).then_some(((w[6], w[7]), (w[8], w[9]))),
            sorted: w[10] != 0,
            ties_in_input_order: w[11] != 0,
        }
    }
}

/// Theorem 1: no rank holds more than `4N/p` records.
pub const RDFA_BOUND: f64 = 4.0;

/// Check a distributed sort's output, given every rank's digest in rank
/// order and the input's content: each slice sorted, slices ordered across
/// rank boundaries, the same records out as in, RDFA within Theorem 1's
/// bound, and — for a stable sort — equal keys in input order across the
/// whole output. Returns the RDFA.
pub fn check_output(ranks: &[RankDigest], input: Content, stable: bool) -> Result<f64, String> {
    let mut total = Content::default();
    let mut prev_last: Option<(usize, (u64, u64))> = None;
    for (r, d) in ranks.iter().enumerate() {
        if !d.sorted {
            return Err(format!("rank {r}: slice is not sorted"));
        }
        if stable && !d.ties_in_input_order {
            return Err(format!("rank {r}: equal keys are not in input order"));
        }
        if let Some((first, last)) = d.ends {
            if let Some((q, prev)) = prev_last {
                if prev.0 > first.0 {
                    return Err(format!(
                        "ranks {q}/{r}: boundary inversion ({} before {})",
                        prev.0, first.0
                    ));
                }
                if stable && prev.0 == first.0 && prev.1 >= first.1 {
                    return Err(format!(
                        "ranks {q}/{r}: equal keys cross the boundary out of input order"
                    ));
                }
            }
            prev_last = Some((r, last));
        }
        total = total.merge(d.content);
    }
    if total.count != input.count {
        return Err(format!("{} records out, {} in", total.count, input.count));
    }
    if total != input {
        return Err("output is not a permutation of the input (checksums differ)".to_owned());
    }
    let loads: Vec<usize> = ranks.iter().map(|d| d.content.count as usize).collect();
    let rdfa = sdssort::rdfa(&loads);
    if rdfa > RDFA_BOUND {
        return Err(format!("RDFA {rdfa} exceeds Theorem 1's {RDFA_BOUND}"));
    }
    Ok(rdfa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests<T: BenchRecord>(ranks: &[Vec<T>]) -> Vec<RankDigest> {
        ranks.iter().map(|r| RankDigest::of(r)).collect()
    }

    fn content<T: BenchRecord>(ranks: &[Vec<T>]) -> Content {
        ranks
            .iter()
            .fold(Content::default(), |c, r| c.merge(Content::of(r)))
    }

    #[test]
    fn accepts_a_correct_output_and_reports_rdfa() {
        let out = vec![vec![1u64, 2, 2, 3], vec![], vec![3, 5, 8, 9, 9, 11]];
        let input = content(&[vec![9u64, 3, 2, 11, 5], vec![8, 2, 1, 9, 3]]);
        let rdfa = check_output(&digests(&out), input, false).expect("valid");
        assert!((rdfa - 1.8).abs() < 1e-12);
    }

    #[test]
    fn rejects_an_unsorted_slice() {
        let out = vec![vec![1u64, 3, 2], vec![4, 5, 6]];
        let input = content(&out);
        let err = check_output(&digests(&out), input, false).unwrap_err();
        assert!(err.contains("not sorted"), "{err}");
    }

    #[test]
    fn rejects_a_dropped_key() {
        let input = content(&[vec![1u64, 2, 3, 4, 5, 6]]);
        let out = vec![vec![1u64, 2, 3], vec![4, 6]];
        let err = check_output(&digests(&out), input, false).unwrap_err();
        assert!(err.contains("5 records out, 6 in"), "{err}");
    }

    #[test]
    fn rejects_a_duplicated_key() {
        // Same count, one key replaced by a copy of its neighbour.
        let input = content(&[vec![1u64, 2, 3, 4, 5, 6]]);
        let out = vec![vec![1u64, 2, 3], vec![4, 4, 6]];
        let err = check_output(&digests(&out), input, false).unwrap_err();
        assert!(err.contains("not a permutation"), "{err}");
    }

    #[test]
    fn rejects_a_cross_rank_boundary_inversion() {
        let out = vec![vec![1u64, 2, 7], vec![6, 8, 9]];
        let input = content(&out);
        let err = check_output(&digests(&out), input, false).unwrap_err();
        assert!(err.contains("boundary inversion"), "{err}");
        // An empty rank in between does not hide it.
        let out = vec![vec![1u64, 2, 7], vec![], vec![6, 8, 9]];
        assert!(check_output(&digests(&out), content(&out), false).is_err());
    }

    #[test]
    fn rejects_swapped_equal_key_payloads_only_when_stable() {
        let t = Tagged::<u64>::new;
        let good = vec![vec![t(1, 0), t(5, 2), t(5, 4)], vec![t(5, 7), t(9, 1)]];
        let input = content(&good);
        assert!(check_output(&digests(&good), input, true).is_ok());

        let swapped_within = vec![vec![t(1, 0), t(5, 4), t(5, 2)], vec![t(5, 7), t(9, 1)]];
        assert!(check_output(&digests(&swapped_within), input, false).is_ok());
        let err = check_output(&digests(&swapped_within), input, true).unwrap_err();
        assert!(err.contains("not in input order"), "{err}");

        let swapped_across = vec![vec![t(1, 0), t(5, 2), t(5, 7)], vec![t(5, 4), t(9, 1)]];
        let err = check_output(&digests(&swapped_across), input, true).unwrap_err();
        assert!(err.contains("cross the boundary"), "{err}");
    }

    #[test]
    fn rejects_an_output_beyond_theorem_one() {
        let mut out = vec![Vec::new(); 8];
        out[3] = (0..80u64).collect();
        let err = check_output(&digests(&out), content(&out), false).unwrap_err();
        assert!(err.contains("RDFA"), "{err}");
    }

    #[test]
    fn digest_words_round_trip() {
        let d = RankDigest::of(&[Tagged::<u64>::new(3, 9), Tagged::new(3, 4)]);
        assert!(!d.ties_in_input_order);
        assert_eq!(RankDigest::from_words(&d.to_words()), d);
        let empty = RankDigest::of::<u64>(&[]);
        assert_eq!(RankDigest::from_words(&empty.to_words()), empty);
    }
}
