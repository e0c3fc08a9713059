//! What every bin shares at its edges: how arguments are read
//! ([`Args`], [`run`]), how a bench result is written ([`Report`]: host
//! stamp, gates as data, one [`Report::finish`] turning gates into an
//! exit status), and how the `matrix` harness checks the suite and says
//! its verdict ([`golden_registry_ok`], [`verdict`]).

use std::process::ExitCode;
use std::str::FromStr;

use altis_core::common::AppVersion;
use altis_core::suite::check_golden_registry_sizes;
use altis_data::InputSize;

use crate::json::{arr, Obj, Val};
use crate::timing;

/// A malformed command line; [`run`] prints it with the usage text and
/// exits 2.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

/// A parsed command line: `--flag value` pairs, bare `--switch`es and
/// positionals, checked against what the bin declares.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Split `argv` (without the program name). An argument starting
    /// with `--` must be one of `value_flags` (which consume the next
    /// argument) or `switches`; anything else is a positional.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<Args, UsageError> {
        let mut args = Args::default();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            if value_flags.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| UsageError(format!("{a} takes a value")))?;
                args.values.push((a, v));
            } else if switches.contains(&a.as_str()) {
                args.switches.push(a);
            } else if a.starts_with("--") {
                return Err(UsageError(format!("unknown flag {a}")));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Every value given for `flag`, parsed, in order.
    pub fn all<T: FromStr>(&self, flag: &str) -> Result<Vec<T>, UsageError> {
        self.values
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.parse().map_err(|_| UsageError(format!("bad value '{v}' for {flag}"))))
            .collect()
    }

    /// The last value given for `flag`, parsed; `None` when absent.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        Ok(self.all(flag)?.pop())
    }

    /// [`Args::opt`] with a default.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    /// The value of `flag` looked up in a closed set of spellings.
    pub fn choice<T: Clone>(&self, flag: &str, table: &[(&str, T)]) -> Result<Option<T>, UsageError> {
        let Some(v) = self.opt::<String>(flag)? else { return Ok(None) };
        match table.iter().find(|(k, _)| *k == v) {
            Some((_, t)) => Ok(Some(t.clone())),
            None => Err(UsageError(format!("bad value '{v}' for {flag}"))),
        }
    }

    /// The positionals, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// For bins that take flags only.
    pub fn no_positional(&self) -> Result<(), UsageError> {
        match self.positional.first() {
            Some(p) => Err(UsageError(format!("unexpected argument '{p}'"))),
            None => Ok(()),
        }
    }

    /// Where a bench bin writes: the positional if one was given.
    pub fn out(&self, default: &str) -> String {
        self.positional.last().cloned().unwrap_or_else(|| default.to_string())
    }
}

/// A bin's `main`: parse the process arguments against the declared
/// flags and hand them to `body`. A [`UsageError`] from either prints
/// `usage` and yields exit status 2.
pub fn run(
    usage: &str,
    value_flags: &[&str],
    switches: &[&str],
    body: impl FnOnce(&Args) -> Result<ExitCode, UsageError>,
) -> ExitCode {
    let parsed = Args::parse(std::env::args().skip(1), value_flags, switches);
    match parsed.and_then(|args| body(&args)) {
        Ok(code) => code,
        Err(UsageError(why)) => {
            eprintln!("{why}\nusage: {usage}");
            ExitCode::from(2)
        }
    }
}

/// How a gate's value is held against its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `value >= bound`.
    Ge,
    /// `value <= bound`.
    Le,
    /// `value < bound`.
    Lt,
    /// `value == bound`.
    Eq,
}

impl Op {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Ge => value >= bound,
            Op::Le => value <= bound,
            Op::Lt => value < bound,
            Op::Eq => value == bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Ge => ">=",
            Op::Le => "<=",
            Op::Lt => "<",
            Op::Eq => "==",
        }
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// What the numbers were taken on.
fn host(threads: usize) -> Obj {
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_string(), |r| r.trim_start_matches([' ', '\t', ':']).to_string());
    // The commit of the checkout this binary was built from, read from
    // `.git` without spawning git.
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.git");
    let head = read(&format!("{git}/HEAD"));
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&format!("{git}/{r}")),
        None => head.clone(),
    };
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let or_unknown = |s: &str| if s.is_empty() { "unknown".to_string() } else { s.to_string() };
    Obj::new()
        .set("nproc", timing::nproc())
        .set("cpu_model", cpu_model)
        .set("threads", threads)
        .set("commit", or_unknown(commit.trim()))
        .set("rustc", or_unknown(&rustc.unwrap_or_default()))
}

/// One bench file under construction.
#[derive(Debug)]
pub struct Report {
    threads: usize,
    body: Obj,
    gates: Vec<Obj>,
    passed: bool,
}

impl Report {
    /// Start the report of `benchmark`; sizes the worker pool
    /// ([`timing::pin_threads`]), so call it before the first launch.
    pub fn new(benchmark: &str) -> Self {
        let threads = timing::pin_threads();
        let body = Obj::new().set("benchmark", benchmark).set("threads", threads);
        Report { threads, body, gates: Vec::new(), passed: true }
    }

    /// Pool width the measurements run with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Add `key: value` to the file.
    pub fn set(&mut self, key: &str, value: impl Into<Val>) -> &mut Self {
        self.body.push(key, value);
        self
    }

    /// Record the gate `value op bound` under `name`; a failing one is
    /// reported on stderr here and fails [`Report::finish`].
    pub fn gate(&mut self, name: &str, value: f64, op: Op, bound: f64) -> bool {
        let pass = op.holds(value, bound);
        if !pass {
            eprintln!("FAIL: {name}: {value} is not {} {bound}", op.symbol());
            self.passed = false;
        }
        self.gates.push(
            Obj::new()
                .set("name", name)
                .set("value", value)
                .set("op", op.symbol())
                .set("bound", bound)
                .set("pass", pass),
        );
        pass
    }

    /// A yes/no gate: `ok` must hold.
    pub fn require(&mut self, name: &str, ok: bool) -> bool {
        self.gate(name, f64::from(u8::from(ok)), Op::Eq, 1.0)
    }

    /// Whether every gate so far passed.
    pub fn passed(&self) -> bool {
        self.passed
    }

    /// The file's text: the fields, then the host stamp and the gates.
    pub fn render(&self) -> String {
        self.body
            .clone()
            .set("host", host(self.threads))
            .set("gates", arr(self.gates.iter().cloned()))
            .pretty()
    }

    /// Write the file to `path`; `Ok(passed)`.
    pub fn write(&self, path: &str) -> std::io::Result<bool> {
        std::fs::write(path, self.render())?;
        println!("wrote {path}");
        Ok(self.passed)
    }

    /// Write the file and turn the gates into the process's exit
    /// status: the only place a gate does.
    pub fn finish(self, path: &str) -> ExitCode {
        match self.write(path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cannot write '{path}': {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// The `--size` spellings every suite bin accepts.
pub const SIZES: [(&str, InputSize); 3] =
    [("1", InputSize::S1), ("2", InputSize::S2), ("3", InputSize::S3)];

/// The `--version` spellings every suite bin accepts.
pub const VERSIONS: [(&str, AppVersion); 2] =
    [("baseline", AppVersion::SyclBaseline), ("optimized", AppVersion::SyclOptimized)];

/// Re-derive the reference outputs at `sizes` and compare them with the
/// committed `tests/golden_checksums.tsv`: a "correct" verdict must mean
/// "matches a reference that has not silently drifted".
pub fn golden_registry_ok(who: &str, sizes: &[InputSize]) -> bool {
    match check_golden_registry_sizes(sizes) {
        Ok(n) => {
            println!("{who}: golden-checksum registry ok ({n} digests match)");
            true
        }
        Err(errs) => {
            for e in &errs {
                eprintln!("{who}: GOLDEN DRIFT: {e}");
            }
            false
        }
    }
}

/// The suite's validation counters as a summary clause. A matrix that
/// silently stopped consulting golden reads `0 reference runs` here.
pub fn validation_summary() -> String {
    let v = altis_core::suite::validation_stats();
    format!("validation: {} reference runs, {} recognised", v.reference_runs, v.recognised)
}

/// Print a harness's machine-readable verdict — always its last stdout
/// line — closing with `key: ok`, and turn `ok` into the exit status.
pub fn verdict(line: Obj, key: &str, ok: bool) -> ExitCode {
    println!("{}", line.set(key, ok).line());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
