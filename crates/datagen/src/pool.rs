//! Pools of distinct values.
//!
//! A [`ValuePool`] materialises the `d` distinct values of a generated column
//! once, so that row generation is a cheap index lookup and so the *true*
//! distinct count of the column is known exactly (it is the ground truth the
//! dictionary-compression experiments compare estimates against).

use crate::distribution::LengthDistribution;
use crate::error::{DatagenError, DatagenResult};
use rand::Rng;
use rand::RngCore;

const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Number of characters needed to write `d - 1` in the pool's alphabet base.
fn suffix_len(d: usize) -> usize {
    let base = ALPHABET.len();
    let mut len = 1;
    let mut max = base;
    while max < d {
        len += 1;
        max *= base;
    }
    len
}

fn encode_suffix(mut index: usize, len: usize) -> String {
    let base = ALPHABET.len();
    let mut out = vec![b'0'; len];
    for slot in out.iter_mut().rev() {
        *slot = ALPHABET[index % base];
        index /= base;
    }
    String::from_utf8(out).expect("alphabet is ascii")
}

/// A pool of `d` distinct string values, each at most `k` bytes long.
#[derive(Debug, Clone)]
pub struct ValuePool {
    values: Vec<String>,
    width: usize,
}

impl ValuePool {
    /// Generate `d` distinct values for a `char(k)` column whose lengths
    /// follow `length_dist`.
    ///
    /// Every value ends with a base-36 suffix encoding its pool index, which
    /// guarantees distinctness; the remaining prefix is random lowercase
    /// text, so the null-suppressed length follows the requested
    /// distribution (clamped so the suffix always fits).
    pub fn generate(
        d: usize,
        k: usize,
        length_dist: &LengthDistribution,
        rng: &mut dyn RngCore,
    ) -> DatagenResult<Self> {
        if d == 0 {
            return Err(DatagenError::InvalidSpec(
                "a value pool needs at least one distinct value".to_string(),
            ));
        }
        let min_required = suffix_len(d);
        if min_required > k {
            return Err(DatagenError::InvalidSpec(format!(
                "cannot fit {d} distinct values into char({k}): the distinguishing suffix alone \
                 needs {min_required} bytes"
            )));
        }
        length_dist.validate(k, min_required)?;

        let mut values = Vec::with_capacity(d);
        for i in 0..d {
            let len = length_dist.sample(rng, k, min_required);
            let suffix = encode_suffix(i, min_required);
            let prefix_len = len - min_required;
            let mut s = String::with_capacity(len);
            for _ in 0..prefix_len {
                s.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
            }
            s.push_str(&suffix);
            values.push(s);
        }
        Ok(ValuePool { values, width: k })
    }

    /// The distinct values.
    #[must_use]
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of distinct values (`d`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pool is empty (never true for a successfully generated pool).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The column width `k` the pool was generated for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Value at a given pool index.
    #[must_use]
    pub fn value(&self, index: usize) -> &str {
        &self.values[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn values_are_distinct_and_within_width() {
        let pool = ValuePool::generate(
            500,
            20,
            &LengthDistribution::Uniform { min: 4, max: 20 },
            &mut rng(1),
        )
        .unwrap();
        assert_eq!(pool.len(), 500);
        let set: HashSet<_> = pool.values().iter().collect();
        assert_eq!(set.len(), 500);
        assert!(pool.values().iter().all(|v| v.len() <= 20 && !v.is_empty()));
    }

    #[test]
    fn lengths_follow_the_distribution() {
        let pool =
            ValuePool::generate(2000, 40, &LengthDistribution::Constant(10), &mut rng(2)).unwrap();
        assert!(pool.values().iter().all(|v| v.len() == 10));
    }

    #[test]
    fn rejects_impossible_requests() {
        // 10,000 distinct values cannot fit in char(2) (36^2 = 1296).
        assert!(
            ValuePool::generate(10_000, 2, &LengthDistribution::Constant(2), &mut rng(3)).is_err()
        );
        assert!(ValuePool::generate(0, 8, &LengthDistribution::Constant(4), &mut rng(3)).is_err());
        // Constant length longer than the column.
        assert!(ValuePool::generate(10, 4, &LengthDistribution::Constant(9), &mut rng(3)).is_err());
    }

    #[test]
    fn suffix_len_is_minimal() {
        assert_eq!(suffix_len(1), 1);
        assert_eq!(suffix_len(36), 1);
        assert_eq!(suffix_len(37), 2);
        assert_eq!(suffix_len(36 * 36), 2);
        assert_eq!(suffix_len(36 * 36 + 1), 3);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let dist = LengthDistribution::Uniform { min: 5, max: 15 };
        let a = ValuePool::generate(100, 20, &dist, &mut rng(7)).unwrap();
        let b = ValuePool::generate(100, 20, &dist, &mut rng(7)).unwrap();
        assert_eq!(a.values(), b.values());
        let c = ValuePool::generate(100, 20, &dist, &mut rng(8)).unwrap();
        assert_ne!(a.values(), c.values());
    }
}
