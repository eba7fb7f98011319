//! Column generator specifications.

use crate::distribution::{FrequencyDistribution, FrequencySampler, LengthDistribution};
use crate::error::{DatagenError, DatagenResult};
use crate::pool::ValuePool;
use rand::Rng;
use rand::RngCore;
use samplecf_storage::{Column, DataType, Value};

/// Specification of one generated column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSpec {
    /// A `char(k)` column drawing from a pool of `distinct` values.
    Char {
        /// Column name.
        name: String,
        /// Declared width `k`.
        width: u16,
        /// Number of distinct values `d`.
        distinct: usize,
        /// Distribution of null-suppressed value lengths.
        length: LengthDistribution,
        /// Distribution of value frequencies.
        frequency: FrequencyDistribution,
        /// Fraction of rows that are NULL (0 disables nullability).
        null_fraction: f64,
    },
    /// A `bigint` column drawing uniformly from `distinct` values with the
    /// given frequency skew.
    Int {
        /// Column name.
        name: String,
        /// Number of distinct values.
        distinct: usize,
        /// Distribution of value frequencies.
        frequency: FrequencyDistribution,
    },
    /// A `bigint` column holding the row number (a unique key).
    SequentialInt {
        /// Column name.
        name: String,
    },
}

impl ColumnSpec {
    /// The column name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            ColumnSpec::Char { name, .. }
            | ColumnSpec::Int { name, .. }
            | ColumnSpec::SequentialInt { name } => name,
        }
    }

    /// The schema column this spec generates.
    #[must_use]
    pub fn schema_column(&self) -> Column {
        match self {
            ColumnSpec::Char {
                name,
                width,
                null_fraction,
                ..
            } => {
                if *null_fraction > 0.0 {
                    Column::nullable(name.clone(), DataType::Char(*width))
                } else {
                    Column::new(name.clone(), DataType::Char(*width))
                }
            }
            ColumnSpec::Int { name, .. } | ColumnSpec::SequentialInt { name } => {
                Column::new(name.clone(), DataType::Int64)
            }
        }
    }

    /// Build the runtime generator for this column.
    pub fn build(&self, rng: &mut dyn RngCore) -> DatagenResult<ColumnGenerator> {
        match self {
            ColumnSpec::Char {
                width,
                distinct,
                length,
                frequency,
                null_fraction,
                ..
            } => {
                if !(0.0..1.0).contains(null_fraction) {
                    return Err(DatagenError::InvalidSpec(format!(
                        "null fraction must be in [0, 1), got {null_fraction}"
                    )));
                }
                let pool = ValuePool::generate(*distinct, *width as usize, length, rng)?;
                let sampler = frequency.build_sampler(*distinct)?;
                Ok(ColumnGenerator::Char {
                    pool,
                    sampler,
                    null_fraction: *null_fraction,
                })
            }
            ColumnSpec::Int {
                distinct,
                frequency,
                ..
            } => {
                let sampler = frequency.build_sampler(*distinct)?;
                Ok(ColumnGenerator::Int { sampler })
            }
            ColumnSpec::SequentialInt { .. } => Ok(ColumnGenerator::Sequential { next: 0 }),
        }
    }
}

/// A runtime value generator for one column.
#[derive(Debug, Clone)]
pub enum ColumnGenerator {
    /// Draws from a pool of distinct strings.
    Char {
        /// The distinct values.
        pool: ValuePool,
        /// Frequency sampler over pool indexes.
        sampler: FrequencySampler,
        /// Probability of generating NULL.
        null_fraction: f64,
    },
    /// Draws integer values `0..distinct` under a frequency distribution.
    Int {
        /// Frequency sampler over the integer domain.
        sampler: FrequencySampler,
    },
    /// Emits 0, 1, 2, ...
    Sequential {
        /// Next value to emit.
        next: i64,
    },
}

impl ColumnGenerator {
    /// Generate the value for the next row.
    pub fn next_value(&mut self, rng: &mut dyn RngCore) -> Value {
        match self {
            ColumnGenerator::Char {
                pool,
                sampler,
                null_fraction,
            } => {
                if *null_fraction > 0.0 && rng.gen::<f64>() < *null_fraction {
                    Value::Null
                } else {
                    Value::Str(pool.value(sampler.sample(rng)).to_string())
                }
            }
            ColumnGenerator::Int { sampler } => Value::Int(sampler.sample(rng) as i64),
            ColumnGenerator::Sequential { next } => {
                let v = *next;
                *next += 1;
                Value::Int(v)
            }
        }
    }

    /// The number of distinct non-null values this generator can produce,
    /// if bounded (sequential columns are unbounded).
    #[must_use]
    pub fn domain_size(&self) -> Option<usize> {
        match self {
            ColumnGenerator::Char { pool, .. } => Some(pool.len()),
            ColumnGenerator::Int { sampler } => Some(sampler.domain_size()),
            ColumnGenerator::Sequential { .. } => None,
        }
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

    /// A `char(width)` column of `distinct` uniform values of one length.
    fn char_uniform(width: u16, distinct: usize, value_len: usize) -> ColumnSpec {
        ColumnSpec::Char {
            name: "a".into(),
            width,
            distinct,
            length: LengthDistribution::Constant(value_len),
            frequency: FrequencyDistribution::Uniform,
            null_fraction: 0.0,
        }
    }

    #[test]
    fn char_column_generates_values_from_its_pool() {
        let spec = char_uniform(16, 20, 8);
        let mut r = rng(1);
        let mut gen = spec.build(&mut r).unwrap();
        assert_eq!(gen.domain_size(), Some(20));
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let v = gen.next_value(&mut r);
            let s = v.as_str().unwrap().to_string();
            assert!(s.len() <= 16);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 20, "all pool values should eventually appear");
    }

    #[test]
    fn null_fraction_produces_nulls() {
        let spec = ColumnSpec::Char {
            name: "a".into(),
            width: 10,
            distinct: 5,
            length: LengthDistribution::Constant(4),
            frequency: FrequencyDistribution::Uniform,
            null_fraction: 0.3,
        };
        assert!(spec.schema_column().nullable);
        let mut r = rng(2);
        let mut gen = spec.build(&mut r).unwrap();
        let nulls = (0..5000)
            .filter(|_| gen.next_value(&mut r).is_null())
            .count();
        assert!((1200..1800).contains(&nulls), "nulls = {nulls}");
    }

    #[test]
    fn invalid_null_fraction_rejected() {
        let spec = ColumnSpec::Char {
            name: "a".into(),
            width: 10,
            distinct: 5,
            length: LengthDistribution::Constant(4),
            frequency: FrequencyDistribution::Uniform,
            null_fraction: 1.5,
        };
        assert!(spec.build(&mut rng(3)).is_err());
    }

    #[test]
    fn int_and_sequential_columns() {
        let mut r = rng(4);
        let mut int_gen = ColumnSpec::Int {
            name: "i".into(),
            distinct: 7,
            frequency: FrequencyDistribution::Uniform,
        }
        .build(&mut r)
        .unwrap();
        for _ in 0..100 {
            let v = int_gen.next_value(&mut r).as_int().unwrap();
            assert!((0..7).contains(&v));
        }
        let mut seq = ColumnSpec::SequentialInt { name: "s".into() }
            .build(&mut r)
            .unwrap();
        assert_eq!(seq.domain_size(), None);
        assert_eq!(seq.next_value(&mut r), Value::Int(0));
        assert_eq!(seq.next_value(&mut r), Value::Int(1));
        assert_eq!(seq.next_value(&mut r), Value::Int(2));
    }

    #[test]
    fn schema_columns_have_expected_types() {
        assert_eq!(
            char_uniform(12, 3, 4).schema_column().datatype,
            DataType::Char(12)
        );
        assert_eq!(
            ColumnSpec::SequentialInt { name: "id".into() }
                .schema_column()
                .datatype,
            DataType::Int64
        );
    }
}
