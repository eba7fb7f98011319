//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Draws a fixed-size uniform sample without replacement in a single pass
//! over the table, without knowing the number of rows in advance — the
//! classical technique referenced by the paper (\[5\] J.S. Vitter, "Random
//! Sampling with a Reservoir").  It runs as the
//! [`KeepRule::Reservoir`](crate::uniform::KeepRule::Reservoir) of a
//! [`ScanStream`](crate::uniform::ScanStream): memory stays O(reservoir +
//! one page), which is the whole point of reservoir sampling on large
//! (disk-resident) tables, and only the rows that enter the reservoir are
//! ever decoded.

use rand::{Rng, RngCore};

/// Algorithm R's decision for the next scanned row: which slot of a
/// reservoir of `size` rows it takes, given that `seen` rows came before
/// it.  The first `size` rows fill the reservoir in order; row `seen` then
/// replaces a uniformly chosen slot with probability `size / (seen + 1)` —
/// one `gen_range(0..=seen)` per such row.
pub(crate) fn slot_for(size: usize, seen: usize, rng: &mut dyn RngCore) -> Option<usize> {
    if seen < size {
        return Some(seen);
    }
    Some(rng.gen_range(0..=seen)).filter(|&j| j < size)
}

#[cfg(test)]
mod tests {
    use crate::stream::tests::draw;
    use crate::{BatchSchedule, SamplerKind};
    use samplecf_storage::{Row, Schema, Table, TableBuilder, TableSource, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 12))
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:05}"))])))
            .unwrap()
    }

    #[test]
    fn keeps_exactly_the_requested_size() {
        let t = table(1000);
        let sample = draw(SamplerKind::Reservoir(37), &t, 1);
        assert_eq!(sample.len(), 37);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(
            distinct.len(),
            37,
            "reservoir sampling is without replacement"
        );
    }

    #[test]
    fn small_tables_are_returned_whole() {
        let t = table(5);
        let sample = draw(SamplerKind::Reservoir(50), &t, 2);
        assert_eq!(sample, t.scan_rows().unwrap());
    }

    #[test]
    fn zero_size_is_rejected() {
        assert!(SamplerKind::Reservoir(0)
            .stream(BatchSchedule::one_shot())
            .is_err());
    }

    #[test]
    fn empty_table_yields_empty_reservoir() {
        // Unified edge behaviour with the fraction-based samplers.
        let t = table(0);
        assert!(draw(SamplerKind::Reservoir(10), &t, 9).is_empty());
    }

    #[test]
    fn inclusion_is_roughly_uniform_across_positions() {
        // Early rows must not be favoured over late rows.
        let t = table(200);
        let mut first_half = 0usize;
        let mut second_half = 0usize;
        for seed in 0..300 {
            for (_, row) in draw(SamplerKind::Reservoir(20), &t, seed) {
                let id: usize = row.value(0).as_str().unwrap()[1..].parse().unwrap();
                if id < 100 {
                    first_half += 1;
                } else {
                    second_half += 1;
                }
            }
        }
        let ratio = first_half as f64 / second_half as f64;
        assert!(ratio > 0.8 && ratio < 1.25, "ratio = {ratio}");
    }
}
