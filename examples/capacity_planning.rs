//! Capacity planning: estimate how much storage a database will need once
//! its indexes are compressed, without compressing anything.
//!
//! The paper lists this as the second application of compression-fraction
//! estimation ("estimate the amount of storage space required for data
//! archival").
//!
//! Run with: `cargo run --release --example capacity_planning`

use samplecf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A few tables of different shapes.
    let orders = presets::orders_table("orders", 40_000, 11)
        .generate()?
        .table;
    let eventlog = presets::variable_length_table("eventlog", 60_000, 120, 30_000, 10, 90, 12)
        .generate()?
        .table;
    let dimensions = presets::single_char_table("dimensions", 5_000, 32, 50, 12, 13)
        .generate()?
        .table;

    let objects = vec![
        PlannedObject {
            table: &orders,
            spec: IndexSpec::clustered("orders_pk", ["order_id"])?,
        },
        PlannedObject {
            table: &orders,
            spec: IndexSpec::nonclustered("orders_by_customer", ["customer"])?,
        },
        PlannedObject {
            table: &eventlog,
            spec: IndexSpec::clustered("eventlog_pk", ["a"])?,
        },
        PlannedObject {
            table: &dimensions,
            spec: IndexSpec::nonclustered("dimensions_by_a", ["a"])?,
        },
    ];

    println!("Planning with null suppression and with dictionary compression, 1% samples:\n");
    for (label, scheme) in [
        ("null-suppression", scheme_by_name("null-suppression")?),
        ("dictionary-paged", scheme_by_name("dictionary-paged")?),
    ] {
        let plan = CapacityPlanner::new(0.01).plan(&objects, scheme.as_ref())?;
        println!("== {label} ==");
        println!(
            "{:<12} {:<22} {:>10} {:>14} {:>16} {:>8}",
            "table", "index", "rows", "uncompressed", "est. compressed", "CF"
        );
        for o in &plan.objects {
            println!(
                "{:<12} {:<22} {:>10} {:>14} {:>16} {:>8.3}",
                o.table,
                o.index,
                o.rows,
                o.uncompressed_bytes,
                o.estimated_compressed_bytes,
                o.estimated_cf
            );
        }
        println!(
            "database total: {:.1} MiB -> {:.1} MiB (overall CF {:.3}, saving {:.1} MiB)\n",
            plan.total_uncompressed_bytes() as f64 / (1024.0 * 1024.0),
            plan.total_estimated_compressed_bytes() as f64 / (1024.0 * 1024.0),
            plan.overall_cf(),
            plan.estimated_saving_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(())
}
