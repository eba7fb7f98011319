//! The one way a request is answered: [`ServiceState::execute`] takes a
//! typed, already-validated [`Request`] and returns a typed [`Response`] —
//! no JSON on either side.  The daemon reaches it through
//! [`handle_line`](ServiceState::handle_line), the `samplecf` CLI calls it
//! directly.  A failure here is a failure of a *valid* request:
//! `no_such_table`, `storage`, a spec that does not fit the table's schema
//! (`bad_request`, decided before the sample cache is touched), or
//! `estimate_failed`.  A panic while answering is caught here and answered
//! `internal`.

use crate::catalog::CatalogEntry;
use crate::protocol::{codes, ApiError, IndexChoice, Request, SampleSpec};
use crate::response::{Accounting, Measured, Response};
use crate::service::ServiceState;
use samplecf_core::{measure_sample_schemes, KeyOrderOutcome, ProgressiveCf, ProgressiveConfig};
use samplecf_index::IndexBuilder;
use samplecf_storage::TableSource;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn estimate_failed(e: impl std::fmt::Display) -> ApiError {
    ApiError::new(codes::ESTIMATE_FAILED, e.to_string())
}

fn measured(entry: &CatalogEntry, sample: &SampleSpec) -> Measured {
    Measured {
        table: entry.shared.name().to_string(),
        sampler: sample.sampler,
        seed: sample.seed,
    }
}

/// What a caught panic carried, when it is a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

impl ServiceState {
    /// Answer one request.
    ///
    /// A panic while answering — a bug, or a table source that panics
    /// mid-read — fails this request alone: it is answered `internal` and
    /// counted in `samplecf_panics_total`, the calling worker lives on, and
    /// a draw it cut short leaves no in-flight marker in the cache (the
    /// marker's guard clears it and wakes the requests coalesced on it).
    pub fn execute(&self, request: &Request) -> Result<Response, ApiError> {
        catch_unwind(AssertUnwindSafe(|| self.dispatch(request))).unwrap_or_else(|payload| {
            self.gauges.panics.inc();
            let message = format!("request panicked: {}", panic_message(payload.as_ref()));
            Err(ApiError::new(codes::INTERNAL, message))
        })
    }

    fn dispatch(&self, request: &Request) -> Result<Response, ApiError> {
        match request {
            Request::Register { path, name } => Ok(Response::Register(
                self.catalog.register(path, name.as_deref())?,
            )),
            Request::Info { table } => Ok(Response::Info(self.catalog.get(table)?)),
            Request::Estimate { sample, index } => self.estimate(sample, index),
            Request::EstimateProgressive {
                sample,
                index,
                stopping,
            } => self.estimate_progressive(sample, index, *stopping),
            Request::Advise {
                sample,
                candidates,
                min_saving,
                budget,
            } => self.advise(sample, candidates, *min_saving, *budget),
            Request::Stats => Ok(Response::Stats(self.stats_json())),
            Request::Metrics => Ok(Response::Metrics(self.metrics.expose())),
            Request::Shutdown => {
                self.request_shutdown();
                Ok(Response::Shutdown)
            }
        }
    }

    fn estimate(&self, sample: &SampleSpec, index: &IndexChoice) -> Result<Response, ApiError> {
        let entry = self.catalog.get(&sample.table)?;
        let (spec, scheme) = index.resolve(entry.shared.schema())?;
        let acquired = self
            .cache
            .acquire(&entry.shared, sample.sampler, sample.seed)
            .map_err(estimate_failed)?;
        // A stratified sample carries its tags and weights, so this is the
        // weighted per-stratum combination there and the pooled CF
        // otherwise — `SampleCf::estimate` bit-for-bit either way.
        let (mut measurements, outcome) = measure_sample_schemes(
            &acquired.sample,
            &spec,
            &[scheme.as_ref()],
            &IndexBuilder::new(),
        )
        .map_err(estimate_failed)?;
        self.gauges.key_orders(outcome).inc();
        let measurement = measurements.pop().expect("one measurement per scheme");
        Ok(Response::Estimate {
            sample: measured(&entry, sample),
            scheme: scheme.name().to_string(),
            measurement,
            source_rows: entry.shared.num_rows(),
            source_pages: entry.shared.num_pages(),
            accounting: Accounting {
                pages_read: acquired.pages_read,
                cache: acquired.disposition,
                sample_rows: Some(acquired.sample.len()),
            },
        })
    }

    fn estimate_progressive(
        &self,
        sample: &SampleSpec,
        index: &IndexChoice,
        stopping: ProgressiveConfig,
    ) -> Result<Response, ApiError> {
        let entry = self.catalog.get(&sample.table)?;
        let (spec, scheme) = index.resolve(entry.shared.schema())?;
        // Progressive runs stream their own pages and bypass the sample
        // cache: their stopping point depends on the data, not on a fixed
        // fraction a later request could share.
        let report = ProgressiveCf::new(sample.sampler, stopping)
            .seed(sample.seed)
            .metrics(self.gauges.progressive.clone())
            .run(entry.shared.as_ref(), &spec, scheme.as_ref())
            .map_err(estimate_failed)?;
        self.gauges.progressive_pages.record(report.pages_read);
        Ok(Response::EstimateProgressive {
            sample: measured(&entry, sample),
            scheme: scheme.name().to_string(),
            report,
        })
    }

    fn advise(
        &self,
        sample: &SampleSpec,
        candidates: &[IndexChoice],
        min_saving: f64,
        budget: Option<usize>,
    ) -> Result<Response, ApiError> {
        let entry = self.catalog.get(&sample.table)?;
        let advisor = sample.advisor(min_saving, budget)?;
        let candidates = candidates
            .iter()
            .enumerate()
            .map(|(i, candidate)| {
                candidate
                    .resolve(entry.shared.schema())
                    .map_err(|e| ApiError::bad_request(format!("candidate {i}: {}", e.message)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // One shared sample serves every candidate of the request — and,
        // through the concurrent cache, every other request with the same
        // (table, sampler, fraction, seed) group.  The plan's one group is
        // priced at a fresh draw of that sample, which makes its
        // `naive_pages_read` the re-sample-per-candidate baseline whether
        // this request hit the cache or paid the draw itself.
        let acquired = self
            .cache
            .acquire(&entry.shared, sample.sampler, sample.seed)
            .map_err(estimate_failed)?;
        let plan = advisor
            .plan(&[(&acquired.sample, acquired.entry_pages_total, &candidates)])
            .map_err(estimate_failed)?;
        self.gauges.advisor_pages_read.add(acquired.pages_read);
        self.gauges.advisor_naive_pages.add(plan.naive_pages_read());
        self.gauges
            .advisor_candidates
            .add(plan.recommendations.len() as u64);
        let sorts = plan.key_sorts + plan.key_orders_merged;
        self.gauges.advisor_key_sorts.add(sorts as u64);
        let orders = |outcome| self.gauges.key_orders(outcome);
        orders(KeyOrderOutcome::Sorted).add(plan.key_sorts as u64);
        orders(KeyOrderOutcome::Merged).add(plan.key_orders_merged as u64);
        orders(KeyOrderOutcome::Held).add(plan.key_orders_held as u64);
        Ok(Response::Advise {
            sample: measured(&entry, sample),
            plan,
            accounting: Accounting {
                pages_read: acquired.pages_read,
                cache: acquired.disposition,
                sample_rows: Some(acquired.sample.len()),
            },
        })
    }
}
