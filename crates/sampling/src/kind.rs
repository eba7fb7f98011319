//! Configuration-friendly sampler selection.

use crate::error::{SamplingError, SamplingResult};
use crate::sampler::validate_fraction;

/// How a stratified sampler splits its row budget across strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// Proportional to stratum size: `k_s ∝ N_s`.  Matches a plain uniform
    /// draw in expectation and needs no variance information.
    Proportional,
    /// Neyman (variance-minimising): `k_s ∝ N_s·σ_s`, where `σ_s` is the
    /// per-stratum standard deviation of the measured statistic.  Until a
    /// consumer feeds variance estimates back
    /// ([`SampleStream::update_stratum_variances`](crate::SampleStream::update_stratum_variances)),
    /// all `σ_s` are treated as equal, which reduces to proportional.
    Neyman,
}

impl Allocation {
    /// The CLI/wire label (`prop` or `neyman`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Allocation::Proportional => "prop",
            Allocation::Neyman => "neyman",
        }
    }

    /// Parse the CLI/wire label.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "prop" | "proportional" => Ok(Allocation::Proportional),
            "neyman" => Ok(Allocation::Neyman),
            other => Err(format!("unknown allocation {other:?} (prop, neyman)")),
        }
    }
}

/// How a stratified sampler partitions the table's pages into strata (see
/// [`Strata`](crate::Strata)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrataMode {
    /// Equal *page* counts per stratum
    /// ([`Strata::equi_width`](crate::Strata::equi_width)) — the canonical
    /// default, derivable from `(num_pages, count)` alone.
    #[default]
    EquiWidth,
    /// Equal *row* counts per stratum with boundaries on page edges
    /// ([`Strata::equi_depth`](crate::Strata::equi_depth)) — equalises the
    /// statistical weight `W_s` on ragged page fills.
    EquiDepth,
}

impl StrataMode {
    /// The CLI/wire label (`equi-width` or `equi-depth`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            StrataMode::EquiWidth => "equi-width",
            StrataMode::EquiDepth => "equi-depth",
        }
    }

    /// Parse the CLI/wire label.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "equi-width" | "width" => Ok(StrataMode::EquiWidth),
            "equi-depth" | "depth" => Ok(StrataMode::EquiDepth),
            other => Err(format!(
                "unknown strata mode {other:?} (equi-width, equi-depth)"
            )),
        }
    }
}

/// An enumeration of the available sampling procedures, parameterised the way
/// an experiment configuration would describe them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerKind {
    /// Uniform row sampling with replacement at the given fraction
    /// (the paper's assumption).
    UniformWithReplacement(f64),
    /// Uniform row sampling without replacement at the given fraction.
    UniformWithoutReplacement(f64),
    /// Bernoulli sampling with the given inclusion probability: a sample
    /// of `M ~ Binomial(n, p)` rows, which conditioned on `M` is a uniform
    /// sample without replacement — so it is drawn as one, at a cap of `M`
    /// ([`bernoulli_size`](crate::bernoulli_size)).  It is not deepened
    /// ([`with_fraction`](Self::with_fraction)).
    Bernoulli(f64),
    /// Fixed-size reservoir sampling: a uniform sample without
    /// replacement of this many rows (every row of a smaller table).  The
    /// row count is known up front, so it is drawn as uniform-wor at a cap
    /// of `min(k, n)`, not by a scan.  It is not deepened
    /// ([`with_fraction`](Self::with_fraction)).
    Reservoir(usize),
    /// Page-level sampling at the given page fraction
    /// (what commercial systems actually do).
    Block(f64),
    /// Stratified uniform-with-replacement sampling: the table's pages are
    /// partitioned into `strata` contiguous equi-width ranges and the row
    /// budget `round(fraction·n)` is split across them per `alloc`.
    Stratified {
        /// Total row fraction across all strata.
        fraction: f64,
        /// Number of contiguous page-range strata (clamped to the page
        /// count; `1` is the uniform-with-replacement draw itself).
        strata: usize,
        /// Per-stratum budget allocation policy.
        alloc: Allocation,
        /// How the page ranges are cut (equi-width or equi-depth).
        mode: StrataMode,
    },
}

impl SamplerKind {
    /// Check the parameters without drawing anything: a fraction in
    /// (0, 1], a reservoir of at least one row, at least one stratum.  The
    /// one range check every layer that accepts a sampler from outside (the
    /// wire protocol, the advisor, the caches) runs before it touches a
    /// table; [`stream`](Self::stream) runs it too.
    pub fn validate(&self) -> SamplingResult<()> {
        if let Some(fraction) = self.fraction() {
            validate_fraction(fraction)?;
        }
        match *self {
            SamplerKind::Reservoir(0) => Err(SamplingError::InvalidSize(
                "reservoir size must be at least 1".to_string(),
            )),
            SamplerKind::Stratified { strata: 0, .. } => Err(SamplingError::InvalidSize(
                "stratum count must be at least 1".to_string(),
            )),
            _ => Ok(()),
        }
    }

    /// The same sampler at fraction `f`, every other parameter kept —
    /// what a deepened draw of this sampler is.  `None` for
    /// [`Reservoir`](Self::Reservoir), which has no fraction, and for
    /// [`Bernoulli`](Self::Bernoulli), whose draw is not deepened: a fresh
    /// draw at a deeper `p` counts its own cap on the RNG before its first
    /// position, so no continuation of a shallower draw equals it.
    #[must_use]
    pub fn with_fraction(&self, f: f64) -> Option<SamplerKind> {
        Some(match *self {
            SamplerKind::UniformWithReplacement(_) => SamplerKind::UniformWithReplacement(f),
            SamplerKind::UniformWithoutReplacement(_) => SamplerKind::UniformWithoutReplacement(f),
            SamplerKind::Block(_) => SamplerKind::Block(f),
            SamplerKind::Stratified {
                strata,
                alloc,
                mode,
                ..
            } => SamplerKind::Stratified {
                fraction: f,
                strata,
                alloc,
                mode,
            },
            SamplerKind::Reservoir(_) | SamplerKind::Bernoulli(_) => return None,
        })
    }

    /// The fraction a draw of this sampler deepens to when asked for `to`:
    /// `Some(f)` when `to` is this sampler [`with_fraction`](Self::with_fraction)
    /// `f`, and `f` is valid and no shallower than this sampler's.
    #[must_use]
    pub fn deepened_to(&self, to: SamplerKind) -> Option<f64> {
        let f = to.fraction()?;
        (self.with_fraction(f) == Some(to) && f >= self.fraction()? && validate_fraction(f).is_ok())
            .then_some(f)
    }

    /// The sampling fraction, for fraction-parameterised kinds.
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        match *self {
            SamplerKind::UniformWithReplacement(f)
            | SamplerKind::UniformWithoutReplacement(f)
            | SamplerKind::Bernoulli(f)
            | SamplerKind::Block(f)
            | SamplerKind::Stratified { fraction: f, .. } => Some(f),
            SamplerKind::Reservoir(_) => None,
        }
    }

    /// A short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SamplerKind::UniformWithReplacement(f) => format!("uniform-wr(f={f})"),
            SamplerKind::UniformWithoutReplacement(f) => format!("uniform-wor(f={f})"),
            SamplerKind::Bernoulli(f) => format!("bernoulli(p={f})"),
            SamplerKind::Reservoir(r) => format!("reservoir(r={r})"),
            SamplerKind::Block(f) => format!("block(f={f})"),
            SamplerKind::Stratified {
                fraction,
                strata,
                alloc,
                mode,
            } => match mode {
                // The default mode keeps the historical label so existing
                // cache keys and reports are unchanged.
                StrataMode::EquiWidth => format!(
                    "stratified(f={fraction},k={strata},alloc={})",
                    alloc.label()
                ),
                // Equi-depth must never alias an equi-width label: the
                // server's cache groups samples by this string.
                StrataMode::EquiDepth => format!(
                    "stratified(f={fraction},k={strata},alloc={},mode={})",
                    alloc.label(),
                    mode.label()
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_its_sampler() {
        // A kind's sampler is its stream, and the stream says which kind
        // it draws for; the same sampler at another fraction keeps every
        // other parameter, a reservoir has no other fraction, and a
        // Bernoulli draw deepens to none.
        let stratified = |fraction| SamplerKind::Stratified {
            fraction,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiDepth,
        };
        let cases = [
            (
                SamplerKind::UniformWithReplacement(0.1),
                "uniform-wr",
                Some(SamplerKind::UniformWithReplacement(0.5)),
            ),
            (
                SamplerKind::UniformWithoutReplacement(0.1),
                "uniform-wor",
                Some(SamplerKind::UniformWithoutReplacement(0.5)),
            ),
            (SamplerKind::Bernoulli(0.1), "bernoulli", None),
            (SamplerKind::Reservoir(10), "reservoir", None),
            (
                SamplerKind::Block(0.1),
                "block",
                Some(SamplerKind::Block(0.5)),
            ),
            (stratified(0.1), "stratified", Some(stratified(0.5))),
        ];
        for (kind, label, deeper) in cases {
            let stream = kind.stream(crate::BatchSchedule::default()).unwrap();
            assert_eq!(stream.kind(), kind);
            assert!(kind.label().starts_with(label), "{}", kind.label());
            assert_eq!(kind.with_fraction(0.5), deeper, "{kind:?}");
            assert_eq!(kind.deepened_to(kind), deeper.and(kind.fraction()));
            if let Some(deeper) = deeper {
                assert_eq!(kind.deepened_to(deeper), Some(0.5));
                assert_eq!(deeper.deepened_to(kind), None, "shallower");
            }
        }
        // Another sampler, or the same one at an invalid fraction, is no
        // deepening.
        let block = SamplerKind::Block(0.1);
        assert_eq!(
            block.deepened_to(SamplerKind::UniformWithReplacement(0.5)),
            None
        );
        assert_eq!(block.deepened_to(SamplerKind::Block(1.5)), None);
        assert_eq!(
            stratified(0.1).deepened_to(SamplerKind::Stratified {
                fraction: 0.5,
                strata: 4,
                alloc: Allocation::Proportional,
                mode: StrataMode::EquiWidth,
            }),
            None
        );
    }

    #[test]
    fn invalid_parameters_propagate() {
        let stratified = |fraction, strata| SamplerKind::Stratified {
            fraction,
            strata,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiWidth,
        };
        for kind in [
            SamplerKind::UniformWithReplacement(0.0),
            SamplerKind::UniformWithoutReplacement(f64::NAN),
            SamplerKind::Bernoulli(-0.1),
            SamplerKind::Bernoulli(2.0),
            SamplerKind::Reservoir(0),
            SamplerKind::Block(1.5),
            stratified(0.0, 4),
            stratified(0.1, 0),
        ] {
            let refused = kind.validate().unwrap_err();
            // The stream constructor refuses the same way.
            let from_stream = kind.stream(crate::BatchSchedule::default()).unwrap_err();
            assert_eq!(from_stream, refused, "{kind:?}");
        }
        assert!(SamplerKind::Reservoir(1).validate().is_ok());
        assert!(stratified(1.0, 1).validate().is_ok());
    }

    #[test]
    fn allocation_labels_round_trip() {
        for alloc in [Allocation::Proportional, Allocation::Neyman] {
            assert_eq!(Allocation::by_name(alloc.label()).unwrap(), alloc);
        }
        assert_eq!(
            Allocation::by_name("proportional").unwrap(),
            Allocation::Proportional
        );
        assert!(Allocation::by_name("optimal").is_err());
    }

    #[test]
    fn strata_mode_labels_round_trip() {
        for mode in [StrataMode::EquiWidth, StrataMode::EquiDepth] {
            assert_eq!(StrataMode::by_name(mode.label()).unwrap(), mode);
        }
        assert_eq!(StrataMode::by_name("width").unwrap(), StrataMode::EquiWidth);
        assert_eq!(StrataMode::by_name("depth").unwrap(), StrataMode::EquiDepth);
        assert!(StrataMode::by_name("quantile").is_err());
    }

    #[test]
    fn equi_depth_never_aliases_an_equi_width_label() {
        let width = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiWidth,
        };
        let depth = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiDepth,
        };
        // The default keeps its historical spelling; equi-depth is distinct,
        // so the server's `(source, label, seed)` cache key cannot collide.
        assert_eq!(width.label(), "stratified(f=0.1,k=4,alloc=prop)");
        assert_eq!(
            depth.label(),
            "stratified(f=0.1,k=4,alloc=prop,mode=equi-depth)"
        );
    }
}
