//! What a run needs from its surroundings: arguments, a private scratch
//! directory, the set-up child that generates a workload's table and its
//! exact-CF oracles, the daemon binary, memory readings and the `machine`
//! block stamped on every result.

use crate::calib::SpeedLog;
use crate::defs::{self, Workload};
use crate::stats;
use samplecf_compression::scheme_by_name;
use samplecf_core::measure_rows;
use samplecf_datagen::{presets, TableSpec};
use samplecf_index::{IndexBuilder, IndexSpec};
use samplecf_server::Json;
use samplecf_storage::{DiskTable, TableSource};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One run of one workload, as the driver (or `bench perf`) asks for it.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// ~1% of the op counts on tables 1/25 the size, one set-up — for tests.
    pub smoke: bool,
}

impl RunArgs {
    /// Measured ops of this run: the frozen per-`RUN_SECONDS` count scaled
    /// by `--seconds`, a quarter of that when traced.
    pub fn ops(&self, base: usize) -> usize {
        let mut ops = base as f64 * self.seconds as f64 / defs::RUN_SECONDS as f64;
        if self.trace {
            ops *= defs::TRACED_SHARE;
        }
        if self.smoke {
            ops /= 100.0;
        }
        // Every scheme and every sampler of a rotation is exercised at least
        // twice, however small the run.
        (ops.round() as usize).max(12)
    }

    /// The most an op's ratio error may be.  A smoke run's samples are a
    /// few hundred rows, on which the dictionary schemes' bias is far larger
    /// than on the sized tables, so it keeps only the other oracle checks.
    pub fn ratio_error_ceiling(&self) -> f64 {
        if self.smoke {
            f64::INFINITY
        } else {
            self.workload.ratio_error_ceiling()
        }
    }

    /// Untimed warm-up ops preceding `ops` measured ones.
    pub fn warmup(&self, ops: usize) -> usize {
        ((ops as f64 * defs::WARMUP_SHARE).ceil() as usize).max(1)
    }
}

/// Seed of op `i` of a run: a SplitMix64 step, so neighbouring run seeds
/// share no op seeds.  Masked to 48 bits: seeds also travel as JSON numbers.
pub fn op_seed(run_seed: u64, i: u64) -> u64 {
    let mut z = run_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

/// The build's target directory, found from the running executable
/// (`<target>/release/bench`, or `<target>/debug/deps/bench-…` under test).
/// With the driver's `CARGO_TARGET_DIR` it lies inside the checkout, which
/// is where everything the harness writes has to stay.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    exe.ancestors()
        .find(|dir| {
            matches!(
                dir.file_name().and_then(|n| n.to_str()),
                Some("release" | "debug")
            )
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// A private directory under the target directory, removed on drop — on
/// every exit path that unwinds, panics included.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = target_dir()?.join("perfbench-tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The repository's root manifest, one directory above this package's.
const ROOT_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");

/// Build (or confirm up to date) the real `samplecfd` from the repository's
/// root manifest into this build's target directory and return its path.
pub fn ensure_daemon() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "samplecfd",
        ])
        .args(["--manifest-path", ROOT_MANIFEST])
        .arg("--target-dir")
        .arg(target_dir()?)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building samplecfd failed ({status})"));
    }
    daemon_path()
}

/// Where [`ensure_daemon`] leaves the daemon binary.
pub fn daemon_path() -> Result<PathBuf, String> {
    let path = target_dir()?.join("release").join("samplecfd");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} has not been built", path.display()))
    }
}

/// Set up several times over (`defs::SETUP_REPS`; once for a smoke run) and
/// keep the last environment.  `set_up` returns the environment and the
/// mean box speed while it was built; the second value returned here is the
/// median repetition's duration in seconds at box speed 1, like the
/// latencies (`calib`).  An environment is dropped before the next is built.
pub fn repeat_set_up<E>(
    smoke: bool,
    mut set_up: impl FnMut() -> Result<(E, f64), String>,
) -> Result<(E, f64), String> {
    let mut seconds = Vec::with_capacity(defs::SETUP_REPS);
    let mut kept = None;
    for _ in 0..if smoke { 1 } else { defs::SETUP_REPS } {
        drop(kept.take());
        let started = Instant::now();
        let (env, speed) = set_up()?;
        seconds.push(started.elapsed().as_secs_f64() * speed);
        kept = Some(env);
    }
    let env = kept.expect("there is at least one set-up repetition");
    Ok((env, stats::median(&seconds)))
}

/// The index every workload estimates: non-clustered on the one column.
pub fn index_spec() -> IndexSpec {
    IndexSpec::nonclustered("idx_a", ["a"]).expect("a one-column key is a valid spec")
}

fn table_spec(workload: Workload, seed: u64, smoke: bool) -> TableSpec {
    let rows = workload.rows(smoke);
    match workload {
        // Value-clustered: each page holds (nearly) one value length, the
        // layout on which block sampling runs to its cap and stratified
        // sampling stops early.
        Workload::LibProgressive => {
            presets::clustered_variable_table("t", rows, 24, rows / 100, seed)
        }
        // Shuffled char(24), values of 4–20 bytes, n/d = 100.
        _ => presets::variable_length_table("t", rows, 24, rows / 100, 4, 20, seed),
    }
}

/// Schemes a workload's answers are checked against.
pub fn oracle_schemes(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::LibProgressive => &[defs::PROGRESSIVE_SCHEME],
        _ => &defs::SCHEMES,
    }
}

/// What the set-up child leaves behind: the table file and the exhaustive
/// CF of the indexed column under every scheme the workload uses.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub table_path: PathBuf,
    pub rows: usize,
    pub pages: usize,
    exact: Vec<(String, f64)>,
    /// Box speed sampled between the steps of building this oracle.
    pub speeds: Vec<f64>,
}

impl Oracle {
    pub fn exact(&self, scheme: &str) -> f64 {
        self.exact
            .iter()
            .find(|(name, _)| name == scheme)
            .map(|(_, cf)| *cf)
            .unwrap_or_else(|| panic!("no exact CF was computed for scheme {scheme}"))
    }
}

const TABLE_FILE: &str = "t.scf";

/// Generate the workload's table from the seed, write it to `dir` and
/// compute the exact CFs: `{"rows", "pages", "exact": {scheme: cf},
/// "speeds": [box speed after each step]}`.
fn build_oracle(workload: Workload, seed: u64, smoke: bool, dir: &Path) -> Result<Json, String> {
    let mut speeds = SpeedLog::default();
    let generated = table_spec(workload, seed, smoke)
        .generate()
        .map_err(|e| format!("table generation failed: {e}"))?;
    speeds.sample();
    let disk = DiskTable::materialize(dir.join(TABLE_FILE), &generated.table)
        .map_err(|e| format!("materialising the table failed: {e}"))?;
    speeds.sample();
    let spec = index_spec();
    // The exhaustive oracle: the full index built and measured per scheme —
    // the kernel behind `ExactCf`, over one scan of the rows and with every
    // core sorting (answers are identical at any thread count).
    let rows = generated
        .table
        .scan_rows()
        .map_err(|e| format!("scanning the generated table failed: {e}"))?;
    let builder = IndexBuilder::new().threads(0);
    let mut exact = Json::obj();
    for &name in oracle_schemes(workload) {
        let scheme = scheme_by_name(name).map_err(|e| e.to_string())?;
        let measured = measure_rows(
            generated.table.schema(),
            &rows,
            &spec,
            scheme.as_ref(),
            &builder,
            "exact".to_string(),
        )
        .map_err(|e| format!("exact CF under {name} failed: {e}"))?;
        exact = exact.field(name, Json::Num(measured.cf));
        speeds.sample();
    }
    Ok(Json::obj()
        .field("rows", Json::uint(disk.num_rows() as u64))
        .field("pages", Json::uint(disk.num_pages() as u64))
        .field("exact", exact)
        .field(
            "speeds",
            Json::Arr(speeds.samples().iter().map(|&s| Json::Num(s)).collect()),
        ))
}

/// Body of the set-up child (`bench __setup`): build the oracle and print
/// it as one JSON line.
///
/// It is a process of its own so that the full-table index the oracle has
/// to build never counts towards the measuring process's peak memory.
pub fn setup_child(workload: Workload, seed: u64, smoke: bool, dir: &Path) -> Result<(), String> {
    println!("{}", build_oracle(workload, seed, smoke, dir)?.to_line());
    Ok(())
}

/// Run the set-up child and read its oracle back.
pub fn run_setup_child(args: &RunArgs, dir: &Path) -> Result<Oracle, String> {
    // Under `cargo test` the running executable is the test harness, which
    // has no `__setup` command; the oracle is then built in this process.
    #[cfg(test)]
    let doc = build_oracle(args.workload, args.seed, args.smoke, dir)?;
    #[cfg(not(test))]
    let doc = {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
        let mut command = Command::new(exe);
        command
            .arg("__setup")
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .arg("--dir")
            .arg(dir);
        if args.smoke {
            command.arg("--smoke");
        }
        let output = command
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the set-up child: {e}"))?;
        if !output.status.success() {
            return Err(format!("the set-up child failed ({})", output.status));
        }
        Json::parse(String::from_utf8_lossy(&output.stdout).trim())
            .map_err(|e| format!("set-up child output: {e}"))?
    };
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("set-up child output lacks {key}"))
    };
    let exact = oracle_schemes(args.workload)
        .iter()
        .map(|&name| {
            doc.get("exact")
                .and_then(|e| e.get(name))
                .and_then(Json::as_f64)
                .filter(|cf| cf.is_finite() && *cf > 0.0)
                .map(|cf| (name.to_string(), cf))
                .ok_or_else(|| format!("set-up child output lacks a usable exact CF for {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let speeds = doc
        .get("speeds")
        .and_then(Json::as_array)
        .map(|samples| samples.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Ok(Oracle {
        table_path: dir.join(TABLE_FILE),
        rows: count("rows")?,
        pages: count("pages")?,
        exact,
        speeds,
    })
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` reads our own.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and how a result was measured.
pub fn machine_json(seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let unknown = || "unknown".to_string();
    Json::obj()
        .field("cores", Json::uint(cores))
        .field(
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        )
        .field(
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        )
        .field(
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        .field("seed", Json::uint(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seconds: u64, trace: bool, smoke: bool) -> RunArgs {
        RunArgs {
            workload: Workload::LibBlock,
            seed: 1,
            seconds,
            trace,
            trace_out: None,
            smoke,
        }
    }

    #[test]
    fn op_counts_scale_with_seconds_and_mode() {
        let full = defs::RUN_SECONDS;
        assert_eq!(args(full, false, false).ops(840), 840);
        assert_eq!(args(2 * full, false, false).ops(840), 1_680);
        assert_eq!(args(full, true, false).ops(840), 210);
        assert_eq!(args(full, false, true).ops(840), 12);
        assert_eq!(args(full, false, false).warmup(840), 42);
        assert_eq!(args(full, false, true).warmup(12), 1);
    }

    #[test]
    fn op_seeds_are_a_pure_function_of_run_seed_and_index() {
        assert_eq!(op_seed(5, 9), op_seed(5, 9));
        assert_ne!(op_seed(5, 9), op_seed(5, 10));
        assert_ne!(op_seed(5, 9), op_seed(6, 9));
        // Run seed s+1 at index i must not be run seed s at index i+1.
        assert_ne!(op_seed(5, 1), op_seed(6, 0));
        assert!((0..1_000).all(|i| op_seed(u64::MAX, i) < 1 << 48));
    }

    #[test]
    fn own_peak_rss_is_readable_and_scratch_cleans_up() {
        assert!(peak_rss_mb(None).unwrap() > 1.0);
        let path = {
            let scratch = Scratch::new().unwrap();
            std::fs::write(scratch.path().join("x"), b"y").unwrap();
            scratch.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn the_oracle_builder_writes_the_table_and_measures_every_scheme() {
        let scratch = Scratch::new().unwrap();
        let doc = build_oracle(Workload::LibProgressive, 3, true, scratch.path()).unwrap();
        let disk = DiskTable::open(scratch.path().join(TABLE_FILE)).unwrap();
        assert_eq!(disk.num_rows(), Workload::LibProgressive.rows(true));
        assert_eq!(
            doc.get("rows").and_then(Json::as_u64),
            Some(disk.num_rows() as u64)
        );
        let cf = doc
            .get("exact")
            .and_then(|e| e.get(defs::PROGRESSIVE_SCHEME))
            .and_then(Json::as_f64);
        assert!(cf.is_some_and(|cf| cf > 0.0 && cf < 1.0), "{cf:?}");
    }
}
