//! Compression-aware physical design: decide which indexes of a small
//! "orders" workload to compress, with and without a storage budget.
//!
//! This is the application that motivates the paper (Section I): automated
//! physical design tools need cheap, accurate estimates of compressed index
//! sizes in order to meet a storage bound.  The advisor evaluates candidates
//! in batch over samples the tool holds: one sample per table, drawn once,
//! so the per-candidate cost is CPU over an in-memory sample, not fresh I/O
//! — and a second plan over the same samples draws nothing at all.
//!
//! Run with: `cargo run --release --example physical_design_advisor`

use samplecf::prelude::*;

fn print_plan(title: &str, plan: &AdvisorPlan) {
    println!("== {title} ==");
    println!(
        "{:<14} {:<22} {:<18} {:>14} {:>16} {:>8} {:>10}",
        "table", "index", "scheme", "uncompressed", "est. compressed", "CF", "compress?"
    );
    for r in &plan.recommendations {
        println!(
            "{:<14} {:<22} {:<18} {:>14} {:>16} {:>8.3} {:>10}",
            r.table,
            r.index,
            r.scheme,
            r.uncompressed_bytes,
            r.estimated_compressed_bytes,
            r.estimated_cf,
            if r.compress { "yes" } else { "no" }
        );
    }
    println!(
        "total: {} bytes uncompressed -> {} bytes under the recommendations (budget: {})",
        plan.total_uncompressed_bytes(),
        plan.total_chosen_bytes(),
        plan.budget_bytes
            .map_or("none".to_string(), |b| b.to_string())
    );
    println!(
        "cost: {} samples drawn, {} pages read (a re-sample-per-candidate run would read {}), {:.1} ms",
        plan.samples_drawn(),
        plan.pages_read(),
        plan.naive_pages_read(),
        plan.elapsed.as_secs_f64() * 1000.0
    );
    println!();
}

/// Draw a 1% uniform sample of `table`, counting the pages the draw reads.
fn draw(table: &Table, seed: u64) -> Result<(MaterializedSample, u64), Box<dyn std::error::Error>> {
    let counting = CountingSource::new(table);
    let kind = SamplerKind::UniformWithReplacement(0.01);
    let sample = MaterializedSample::draw(&counting, kind, seed)?;
    Ok((sample, counting.pages_read()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small schema: a fact table plus an archive table.
    let orders = presets::orders_table("orders", 30_000, 1).generate()?.table;
    let archive = presets::variable_length_table("archive", 20_000, 64, 400, 6, 24, 2)
        .generate()?
        .table;

    // Four candidates, two tables: exactly two samples.
    let (orders_sample, orders_pages) = draw(&orders, 3)?;
    let (archive_sample, archive_pages) = draw(&archive, 3)?;
    let dict = || -> Box<dyn CompressionScheme> { Box::new(DictionaryCompression::default()) };
    let on_orders = [
        (IndexSpec::clustered("orders_pk", ["order_id"])?, dict()),
        (
            IndexSpec::nonclustered("orders_by_status", ["status"])?,
            dict(),
        ),
        (
            IndexSpec::nonclustered("orders_by_customer", ["customer"])?,
            dict(),
        ),
    ];
    let on_archive = [(IndexSpec::nonclustered("archive_by_a", ["a"])?, dict())];
    let samples: [(&MaterializedSample, u64, &Candidates); 2] = [
        (&orders_sample, orders_pages, &on_orders),
        (&archive_sample, archive_pages, &on_archive),
    ];

    // Pass 1: no budget — compress whatever saves at least 20%.
    let advisor = CompressionAdvisor::new(AdvisorConfig {
        min_saving_fraction: 0.20,
        ..Default::default()
    })?;
    let unconstrained = advisor.plan(&samples)?;
    print_plan(
        "No storage budget (compress when saving ≥ 20%)",
        &unconstrained,
    );

    // Pass 2: a tight budget forces more aggressive compression.
    let budget = unconstrained.total_uncompressed_bytes() * 6 / 10;
    let constrained = CompressionAdvisor::new(AdvisorConfig {
        min_saving_fraction: 0.20,
        budget_bytes: Some(budget),
    })?;
    let constrained_plan = constrained.plan(&samples)?;
    print_plan(
        &format!("Storage budget of {budget} bytes (60% of uncompressed)"),
        &constrained_plan,
    );
    println!(
        "fits budget: {}",
        if constrained_plan.fits_budget() {
            "yes"
        } else {
            "no"
        }
    );
    Ok(())
}
