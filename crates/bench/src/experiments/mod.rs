//! The reproduction experiments, one module per table/figure in the
//! experiment-to-paper table of `crates/bench/README.md`.  Each module
//! exposes `run(quick) -> Report`; the `exp_*` binaries are thin wrappers
//! and `run_all` executes every experiment in sequence.

pub mod block_sampling;
pub mod dc_distinct_sweep;
pub mod dc_regimes;
pub mod dv_baselines;
pub mod ns_fraction_sweep;
pub mod paged_vs_global;
pub mod table2;
pub mod theorem1;

/// Whether quick mode is requested (smaller tables, fewer trials) — set the
/// `SAMPLECF_QUICK` environment variable or pass `--quick` to a binary.
///
/// `--quick` is the only argument the binaries take: on anything else this
/// prints a usage line to stderr and exits the process with status 2.
#[must_use]
pub fn quick_mode() -> bool {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    match quick_flag(args) {
        Ok(flag) => flag || std::env::var("SAMPLECF_QUICK").is_ok_and(|v| v != "0"),
        Err(unexpected) => {
            eprintln!("usage: {program} [--quick]  (unexpected argument `{unexpected}`)");
            std::process::exit(2);
        }
    }
}

/// Whether `--quick` is among a binary's arguments (program name already
/// stripped); `Err` carries the first argument that is anything else, so a
/// typo such as `--qiuck` cannot silently start the minutes-long full mode.
fn quick_flag(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut quick = false;
    for arg in args {
        if arg != "--quick" {
            return Err(arg);
        }
        quick = true;
    }
    Ok(quick)
}

/// Scale a size parameter down in quick mode.
#[must_use]
pub fn scaled(full: usize, quick: usize, quick_mode: bool) -> usize {
    if quick_mode {
        quick
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::quick_flag;

    #[test]
    fn any_argument_but_quick_is_rejected() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(quick_flag(args(&[])), Ok(false));
        assert_eq!(quick_flag(args(&["--quick"])), Ok(true));
        assert_eq!(quick_flag(args(&["--qiuck"])), Err("--qiuck".to_string()));
        assert_eq!(
            quick_flag(args(&["--quick", "--threads", "2"])),
            Err("--threads".to_string())
        );
    }
}
