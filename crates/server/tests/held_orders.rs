//! A served answer is the answer over a fresh draw, whatever key orders the
//! cached sample holds.
//!
//! The cache keeps, beside each sample, the key order every measure of it
//! sorted, and later measures by the same key columns walk that order
//! instead of sorting again — or, after a deepening, sort only the rows it
//! added and merge them in.  Here every `estimate` and `advise` `result`
//! is rendered next to the one `measure_sample` (or
//! `CompressionAdvisor::plan`) gives over a fresh `MaterializedSample::draw`
//! that holds no order, and the two must be the same bytes: for all seven
//! samplers and all six schemes, on a miss, on a hit, on a hit under a
//! second (multi-column) key, on the deepening whose next measure by each
//! key merges, and on the hits after it — clustered and non-clustered
//! candidates alike.

use samplecf_compression::{scheme_by_name, scheme_names, CompressionScheme};
use samplecf_core::{measure_sample, AdvisorConfig, CompressionAdvisor};
use samplecf_datagen::presets;
use samplecf_index::{IndexBuilder, IndexSpec};
use samplecf_sampling::{Allocation, MaterializedSample, SamplerKind, StrataMode};
use samplecf_server::response::Measured;
use samplecf_server::{
    Accounting, CacheDisposition, Json, Response, ServiceState, DEFAULT_CACHE_BUDGET_BYTES,
};
use samplecf_storage::Table;
use std::path::PathBuf;

struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One sampler at a shallow and a deeper setting: its request fields, the
/// kind each draws, and how the cache serves the deeper one after the
/// shallow one (a Bernoulli or reservoir entry keeps no stream, so it
/// redraws).
struct Sampler {
    fields: [String; 2],
    kinds: [SamplerKind; 2],
    deeper: &'static str,
}

fn samplers() -> Vec<Sampler> {
    let fraction = |name: &str, kind: fn(f64) -> SamplerKind, deeper| Sampler {
        fields: [0.05, 0.1].map(|f| format!(r#""sampler":"{name}","fraction":{f}"#)),
        kinds: [kind(0.05), kind(0.1)],
        deeper,
    };
    let stratified = |fraction| SamplerKind::Stratified {
        fraction,
        strata: 4,
        alloc: Allocation::Proportional,
        mode: StrataMode::EquiWidth,
    };
    vec![
        fraction("uniform", SamplerKind::UniformWithReplacement, "deepened"),
        fraction(
            "uniform-wor",
            SamplerKind::UniformWithoutReplacement,
            "deepened",
        ),
        fraction("block", SamplerKind::Block, "deepened"),
        Sampler {
            fields: [0.05, 0.1]
                .map(|f| format!(r#""sampler":"stratified","fraction":{f},"strata":4"#)),
            kinds: [stratified(0.05), stratified(0.1)],
            deeper: "deepened",
        },
        fraction("bernoulli", SamplerKind::Bernoulli, "miss"),
        Sampler {
            fields: [150, 300].map(|n| format!(r#""sampler":"reservoir","size":{n}"#)),
            kinds: [SamplerKind::Reservoir(150), SamplerKind::Reservoir(300)],
            deeper: "miss",
        },
    ]
}

/// The two keys every sample is measured by: one column, then two.
const KEYS: [&str; 2] = [r#"["status"]"#, r#"["customer","status"]"#];

fn key_columns(key: usize) -> &'static [&'static str] {
    [&["status"][..], &["customer", "status"]][key]
}

fn schemes() -> Vec<Box<dyn CompressionScheme>> {
    (scheme_names().iter())
        .map(|name| scheme_by_name(name).unwrap())
        .collect()
}

struct Fixture {
    state: ServiceState,
    disk: Table,
    _cleanup: Cleanup,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "samplecf_held_orders_{tag}_{}.scf",
            std::process::id()
        ));
        let table = presets::orders_table("orders", 3_000, 9)
            .generate()
            .unwrap()
            .table;
        Table::materialize(&path, &table).unwrap();
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        let register = format!(r#"{{"op":"register","path":"{}"}}"#, path.display());
        assert_ok(&Json::parse(&state.handle_line(&register)).unwrap());
        Fixture {
            state,
            disk: Table::open(&path).unwrap(),
            _cleanup: Cleanup(path),
        }
    }

    /// Serve `line`, check how the cache served it, and return its
    /// `result` rendered.
    fn serve(&self, line: &str, cache: &str) -> String {
        let reply = Json::parse(&self.state.handle_line(line)).unwrap();
        assert_ok(&reply);
        let served = reply.get("accounting").and_then(|a| a.get("cache"));
        assert_eq!(served.and_then(Json::as_str), Some(cache), "{line}");
        reply.get("result").unwrap().to_string()
    }

    /// A fresh draw of `kind`, holding no key order.
    fn fresh(&self, kind: SamplerKind, seed: u64) -> MaterializedSample {
        MaterializedSample::draw(&self.disk, kind, seed).unwrap()
    }

    fn measured(kind: SamplerKind, seed: u64) -> Measured {
        Measured {
            table: "orders".into(),
            sampler: kind,
            seed,
        }
    }

    /// The `result` of an `estimate` measured over `fresh`.
    fn estimate_result(
        &self,
        fresh: &MaterializedSample,
        seed: u64,
        key: usize,
        scheme: &dyn CompressionScheme,
    ) -> String {
        let spec = IndexSpec::nonclustered("idx", key_columns(key).iter().copied()).unwrap();
        // A copy holds no order: the oracle sorts every time.
        let measurement =
            measure_sample(&fresh.clone(), &spec, scheme, &IndexBuilder::new()).unwrap();
        let response = Response::Estimate {
            sample: Self::measured(fresh.kind(), seed),
            scheme: scheme.name().to_string(),
            measurement,
            source_rows: self.disk.num_rows(),
            source_pages: self.disk.num_pages(),
            accounting: unused_accounting(),
        };
        result_of(&response)
    }

    /// The `result` of an `advise` of `candidates(key)` planned over `fresh`.
    fn advise_result(&self, fresh: &MaterializedSample, seed: u64, key: usize) -> String {
        let candidates: Vec<(IndexSpec, Box<dyn CompressionScheme>)> = (0..2)
            .flat_map(|clustered| {
                schemes().into_iter().map(move |scheme| {
                    let name = format!("i{clustered}_{}", scheme.name());
                    let columns = key_columns(key).iter().copied();
                    let spec = match clustered {
                        0 => IndexSpec::nonclustered(name, columns),
                        _ => IndexSpec::clustered(name, columns),
                    };
                    (spec.unwrap(), scheme)
                })
            })
            .collect();
        let plan = CompressionAdvisor::new(AdvisorConfig::default())
            .unwrap()
            .plan(&[(&fresh.clone(), 0, &candidates)])
            .unwrap();
        let response = Response::Advise {
            sample: Self::measured(fresh.kind(), seed),
            plan,
            accounting: unused_accounting(),
        };
        result_of(&response)
    }
}

/// Every candidate of an `advise` over `key`: each scheme on a
/// non-clustered and on a clustered index, in that order.
fn candidates_json(key: usize) -> String {
    let listed: Vec<String> = (0..2)
        .flat_map(|clustered| {
            scheme_names().into_iter().map(move |scheme| {
                format!(
                    r#"{{"index":"i{clustered}_{scheme}","columns":{},"scheme":"{scheme}","clustered":{}}}"#,
                    KEYS[key],
                    clustered == 1
                )
            })
        })
        .collect();
    format!("[{}]", listed.join(","))
}

/// `result` is rendered from the plan or measurement alone.
fn unused_accounting() -> Accounting {
    Accounting {
        pages_read: 0,
        cache: CacheDisposition::Hit,
        sample_rows: None,
    }
}

fn result_of(response: &Response) -> String {
    response.to_json().get("result").unwrap().to_string()
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
}

#[test]
fn served_estimates_equal_fresh_draws_through_every_held_order_state() {
    let fixture = Fixture::new("estimate");
    let schemes = schemes();
    for sampler in samplers() {
        let seed = 21;
        let estimate = |step: usize, key: usize, scheme: &str| {
            format!(
                r#"{{"op":"estimate","table":"orders",{},"seed":{seed},"columns":{},"scheme":"{scheme}"}}"#,
                sampler.fields[step], KEYS[key]
            )
        };
        for step in 0..2 {
            let fresh = fixture.fresh(sampler.kinds[step], seed);
            let first = ["miss", sampler.deeper][step];
            // The first request draws (or deepens); every later one hits,
            // under the first key (its order held) and the second (sorted
            // once, then held).  After a deepening the first measure by each
            // key merges the new rows into the order held.
            for key in 0..2 {
                for (i, scheme) in schemes.iter().enumerate() {
                    let cache = if (key, i) == (0, 0) { first } else { "hit" };
                    let served = fixture.serve(&estimate(step, key, scheme.name()), cache);
                    let expected = fixture.estimate_result(&fresh, seed, key, scheme.as_ref());
                    assert_eq!(served, expected, "{:?}, key {key}", sampler.kinds[step]);
                }
            }
            // Back to the first key: the order it sorted is still held.
            let served = fixture.serve(&estimate(step, 0, schemes[0].name()), "hit");
            let expected = fixture.estimate_result(&fresh, seed, 0, schemes[0].as_ref());
            assert_eq!(served, expected, "{:?}", sampler.kinds[step]);
        }
    }
    let orders = |outcome: &str| {
        let name = format!("samplecf_key_orders_total{{outcome=\"{outcome}\"}}");
        match fixture.state.metrics.snapshot().get(&name) {
            Some(samplecf_obs::MetricValue::Counter(n)) => *n,
            other => panic!("{name}: {other:?}"),
        }
    };
    // Per sampler and step, one order per key: sorted on a miss, merged on
    // a deepening; the rest walk held orders, whatever their schemes.
    let kinds = samplers().len() as u64;
    let deepened = samplers().iter().filter(|s| s.deeper == "deepened").count() as u64;
    let served = kinds * 2 * (2 * schemes.len() as u64 + 1);
    let (sorted, merged) = (2 * (kinds + kinds - deepened), 2 * deepened);
    assert_eq!(
        (orders("sorted"), orders("merged"), orders("held")),
        (sorted, merged, served - sorted - merged)
    );
}

#[test]
fn served_advice_equals_fresh_draws_through_every_held_order_state() {
    let fixture = Fixture::new("advise");
    for sampler in samplers() {
        let seed = 22;
        let advise = |step: usize, key: usize| {
            format!(
                r#"{{"op":"advise","table":"orders",{},"seed":{seed},"candidates":{}}}"#,
                sampler.fields[step],
                candidates_json(key)
            )
        };
        for step in 0..2 {
            let fresh = fixture.fresh(sampler.kinds[step], seed);
            let first = ["miss", sampler.deeper][step];
            for (key, cache) in [(0, first), (0, "hit"), (1, "hit"), (1, "hit"), (0, "hit")] {
                let served = fixture.serve(&advise(step, key), cache);
                let expected = fixture.advise_result(&fresh, seed, key);
                assert_eq!(served, expected, "{:?}, key {key}", sampler.kinds[step]);
            }
        }
    }
    let counter = |name: &str| match fixture.state.metrics.snapshot().get(name) {
        Some(samplecf_obs::MetricValue::Counter(n)) => *n,
        other => panic!("{name}: {other:?}"),
    };
    // Per sampler and step: each key sorted once — or, after a deepening,
    // the new rows sorted and merged once — by its first advise's
    // non-clustered measure; every other measure — the clustered one
    // beside it, and both in each later advise — walks the held order.
    let kinds = samplers().len() as u64;
    let deepened = samplers().iter().filter(|s| s.deeper == "deepened").count() as u64;
    assert_eq!(counter("samplecf_advisor_key_sorts_total"), kinds * 2 * 2);
    assert_eq!(
        counter("samplecf_key_orders_total{outcome=\"sorted\"}"),
        2 * (kinds + kinds - deepened)
    );
    assert_eq!(
        counter("samplecf_key_orders_total{outcome=\"merged\"}"),
        2 * deepened
    );
    assert_eq!(
        counter("samplecf_key_orders_total{outcome=\"held\"}"),
        kinds * 2 * (5 * 2 - 2)
    );
}
