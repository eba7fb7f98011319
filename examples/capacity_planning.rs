//! Capacity planning: estimate how much storage a database will need once
//! its indexes are compressed, without compressing anything.
//!
//! The paper lists this as the second application of compression-fraction
//! estimation ("estimate the amount of storage space required for data
//! archival").  It is the advisor's plan with nothing held back: every index
//! is a candidate, `min_saving_fraction: 0.0` compresses them all, and the
//! plan's totals are the footprint — with one sample per table, drawn once
//! and shared by every index and scheme, instead of one draw per index.
//!
//! Run with: `cargo run --release --example capacity_planning`

use samplecf::prelude::*;

const MIB: f64 = 1024.0 * 1024.0;

/// Draw a 1% uniform sample of `table`, counting the pages the draw reads.
fn draw(table: &Table) -> Result<(MaterializedSample, u64), Box<dyn std::error::Error>> {
    let counting = CountingSource::new(table);
    let kind = SamplerKind::UniformWithReplacement(0.01);
    let sample = MaterializedSample::draw(&counting, kind, 0)?;
    Ok((sample, counting.pages_read()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A few tables of different shapes, one sample each.
    let orders = presets::orders_table("orders", 40_000, 11)
        .generate()?
        .table;
    let eventlog = presets::variable_length_table("eventlog", 60_000, 120, 30_000, 10, 90, 12)
        .generate()?
        .table;
    let dimensions = presets::single_char_table("dimensions", 5_000, 32, 50, 12, 13)
        .generate()?
        .table;
    let tables = [
        (
            draw(&orders)?,
            vec![
                IndexSpec::clustered("orders_pk", ["order_id"])?,
                IndexSpec::nonclustered("orders_by_customer", ["customer"])?,
            ],
        ),
        (
            draw(&eventlog)?,
            vec![IndexSpec::clustered("eventlog_pk", ["a"])?],
        ),
        (
            draw(&dimensions)?,
            vec![IndexSpec::nonclustered("dimensions_by_a", ["a"])?],
        ),
    ];
    let planner = CompressionAdvisor::new(AdvisorConfig {
        min_saving_fraction: 0.0,
        ..Default::default()
    })?;

    println!("Planning with null suppression and with dictionary compression, 1% samples:\n");
    for label in ["null-suppression", "dictionary-paged"] {
        // Every index of a table is priced on that table's one sample.
        let mut candidates = Vec::new();
        for (_, specs) in &tables {
            let mut on_table: Vec<(IndexSpec, Box<dyn CompressionScheme>)> = Vec::new();
            for spec in specs {
                on_table.push((spec.clone(), scheme_by_name(label)?));
            }
            candidates.push(on_table);
        }
        let samples: Vec<(&MaterializedSample, u64, &Candidates)> =
            (tables.iter().zip(&candidates))
                .map(|(((sample, pages), _), on_table)| (sample, *pages, &on_table[..]))
                .collect();
        let plan = planner.plan(&samples)?;
        println!("== {label} ==");
        println!(
            "{:<12} {:<22} {:>14} {:>16} {:>8}",
            "table", "index", "uncompressed", "est. compressed", "CF"
        );
        for r in &plan.recommendations {
            println!(
                "{:<12} {:<22} {:>14} {:>16} {:>8.3}",
                r.table,
                r.index,
                r.uncompressed_bytes,
                r.estimated_compressed_bytes,
                r.estimated_cf
            );
        }
        let (before, after) = (plan.total_uncompressed_bytes(), plan.total_chosen_bytes());
        println!(
            "database total: {:.1} MiB -> {:.1} MiB (overall CF {:.3}, saving {:.1} MiB; \
             {} samples, {} pages read)\n",
            before as f64 / MIB,
            after as f64 / MIB,
            after as f64 / before as f64,
            (before - after) as f64 / MIB,
            plan.samples_drawn(),
            plan.pages_read(),
        );
    }
    Ok(())
}
