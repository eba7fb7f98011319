//! Capacity planning: estimate how much storage a database will need once
//! its indexes are compressed, without compressing anything.
//!
//! The paper lists this as the second application of compression-fraction
//! estimation ("estimate the amount of storage space required for data
//! archival").  It is the advisor's plan with nothing held back: every index
//! is a candidate, `min_saving_fraction: 0.0` compresses them all, and the
//! plan's totals are the footprint — with one shared sample per table
//! instead of one draw per index.
//!
//! Run with: `cargo run --release --example capacity_planning`

use samplecf::prelude::*;

const MIB: f64 = 1024.0 * 1024.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A few tables of different shapes.
    let orders = presets::orders_table("orders", 40_000, 11)
        .generate()?
        .table
        .into_shared();
    let eventlog = presets::variable_length_table("eventlog", 60_000, 120, 30_000, 10, 90, 12)
        .generate()?
        .table
        .into_shared();
    let dimensions = presets::single_char_table("dimensions", 5_000, 32, 50, 12, 13)
        .generate()?
        .table
        .into_shared();

    let objects = [
        (&orders, IndexSpec::clustered("orders_pk", ["order_id"])?),
        (
            &orders,
            IndexSpec::nonclustered("orders_by_customer", ["customer"])?,
        ),
        (&eventlog, IndexSpec::clustered("eventlog_pk", ["a"])?),
        (
            &dimensions,
            IndexSpec::nonclustered("dimensions_by_a", ["a"])?,
        ),
    ];
    let planner = CompressionAdvisor::new(AdvisorConfig {
        min_saving_fraction: 0.0,
        ..AdvisorConfig::with_fraction(0.01)
    })?;

    println!("Planning with null suppression and with dictionary compression, 1% samples:\n");
    for label in ["null-suppression", "dictionary-paged"] {
        let scheme = scheme_by_name(label)?;
        let candidates: Vec<Candidate<'_>> = objects
            .iter()
            .map(|(table, spec)| Candidate::new(table, spec, scheme.as_ref()))
            .collect();
        let plan = planner.plan(&candidates)?;
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
