//! The parent side: run each workload in worker processes of its own
//! (integrity arming, the pool and the runtime's statics are
//! process-global and would leak from one workload into the next), keep
//! a crashed or hung worker from taking the run down, and fold the
//! workers' reports into one outcome per workload.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hetero_serve::json::{self, Json};

use crate::report::{end_to_end, obj, per_layer, Outcome, WorkerReport};
use crate::{host, spec};

/// Runtime switches a worker must not inherit: each would change what
/// is measured.
const SCRUBBED_ENV: [&str; 7] = [
    "HETERO_RT_FAULT_SEED",
    "HETERO_RT_FAULT_RATE",
    "HETERO_RT_FAULT_MODE",
    "HETERO_RT_GRAPH_OPT",
    "HETERO_RT_LANES",
    "HETERO_RT_PROVE",
    "HETERO_RT_SANITIZE",
];

/// Set-up allowance on top of the three-budgets timeout of a worker.
const SETUP_ALLOWANCE: Duration = Duration::from_secs(30);

pub struct Plan {
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    /// Measurement seconds per workload, all workers together.
    pub seconds: f64,
    pub traced: bool,
}

impl Plan {
    /// Workers per workload: the traced run is one process, the
    /// untraced run is spread over [`spec::CYCLES`].
    fn cycles(&self) -> u32 {
        if self.traced {
            1
        } else {
            spec::CYCLES
        }
    }
}

/// Where traces and run files go: next to the build, which every
/// `.gitignore` of a Cargo project already covers.
pub fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(|p| p.parent()).map(|p| p.join("e2e")))
        .unwrap_or_else(|| PathBuf::from("target/e2e"))
}

pub fn trace_path(workload: &str) -> PathBuf {
    output_dir().join(format!("trace-{workload}.json"))
}

/// Run one worker to completion or to its timeout: a measurement of
/// `budget_s` seconds, or only the set-up when there is no budget. Every
/// failure — no spawn, a crash, a hang, an unreadable report — comes back
/// as `Err` after the process has been reaped.
fn run_worker(
    workload: &str,
    seed: u64,
    budget_s: Option<f64>,
    traced: bool,
) -> Result<WorkerReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    match budget_s {
        Some(s) => cmd.args(["--seconds", &s.to_string()]),
        None => cmd.arg("--setup-only"),
    };
    let budget_s = budget_s.unwrap_or(0.0);
    cmd.env("HETERO_RT_THREADS", host::pool_threads().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("{workload}: cannot start worker: {e}"))?;
    // The runtime logs every contained fault to stderr, thousands of lines
    // on the faulted workloads: keep it, and show its end only if the
    // worker fails.
    fn drain(
        mut pipe: impl Read + Send + 'static,
    ) -> std::thread::JoinHandle<std::io::Result<String>> {
        std::thread::spawn(move || {
            let mut text = String::new();
            pipe.read_to_string(&mut text).map(|_| text)
        })
    }
    let reader = drain(child.stdout.take().expect("stdout was piped"));
    let log = drain(child.stderr.take().expect("stderr was piped"));
    let deadline = Instant::now() + Duration::from_secs_f64(3.0 * budget_s) + SETUP_ALLOWANCE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{workload}: worker timed out and was killed"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{workload}: cannot wait for worker: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| format!("{workload}: reader thread panicked"))?;
    let log = log.join().ok().and_then(Result::ok).unwrap_or_default();
    let status = status.and_then(|s| {
        if s.success() {
            Ok(s)
        } else {
            Err(format!("{workload}: worker exited with {s}"))
        }
    });
    if let Err(e) = status {
        let lines: Vec<&str> = log.lines().collect();
        for l in &lines[lines.len().saturating_sub(12)..] {
            eprintln!("  worker: {l}");
        }
        return Err(e);
    }
    let text = text.map_err(|e| format!("{workload}: cannot read worker output: {e}"))?;
    let line = text
        .lines()
        .last()
        .ok_or(format!("{workload}: worker printed nothing"))?;
    WorkerReport::from_json(
        &json::parse(line).map_err(|e| format!("{workload}: bad worker report: {e}"))?,
    )
}

/// One workload's workers, in the order they ran.
pub struct Measured {
    pub workload: &'static str,
    /// Reports of the measuring workers.
    pub reports: Vec<WorkerReport>,
    /// Set-up seconds of the workers that only set up.
    pub extra_setups: Vec<f64>,
    pub errors: Vec<String>,
}

impl Measured {
    /// The workload's outcome. A missing worker makes it broken: every
    /// operation counts as failed, the metrics that could be computed
    /// are still shown.
    pub fn outcome(&self, traced: bool) -> Outcome {
        let mut out = if traced {
            per_layer(self.reports.first())
        } else {
            end_to_end(&self.reports, &self.extra_setups)
        };
        if !self.errors.is_empty() || out.attempted == 0 {
            out.fail_all();
        }
        out.notes.extend(self.errors.iter().cloned());
        out
    }

    /// End-to-end metric values of each worker on its own, for `compare`.
    pub fn per_cycle(&self, metric: &str) -> Vec<f64> {
        self.reports
            .iter()
            .filter_map(|r| end_to_end(std::slice::from_ref(r), &[]).value(metric))
            .collect()
    }
}

/// Run the plan: cycles outermost, so a workload's samples come from
/// moments spread over the whole run and not from one contiguous slot a
/// noisy neighbour can own. A failed worker is recorded and the rest of
/// the plan still runs.
pub fn execute(plan: &Plan) -> Vec<Measured> {
    let mut measured: Vec<Measured> = plan
        .workloads
        .iter()
        .map(|&workload| Measured {
            workload,
            reports: Vec::new(),
            extra_setups: Vec::new(),
            errors: Vec::new(),
        })
        .collect();
    let cycles = plan.cycles();
    for cycle in 0..cycles {
        for m in &mut measured {
            // Each worker gets its own seed, derived from the run's.
            let seed = plan
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add(u64::from(cycle));
            let budget = plan.seconds / f64::from(cycles);
            let mut note = |e: String| {
                eprintln!("e2e: {e}");
                m.errors.push(e);
            };
            match run_worker(m.workload, seed, Some(budget), plan.traced) {
                Ok(r) => m.reports.push(r),
                Err(e) => note(e),
            }
            if plan.traced {
                continue;
            }
            for _ in 0..spec::SETUP_ONLY_PER_CYCLE {
                match run_worker(m.workload, seed, None, false) {
                    Ok(r) => m.extra_setups.push(r.setup_s),
                    Err(e) => note(e),
                }
            }
        }
    }
    measured
}

/// The run as one JSON document: host stamp, then per workload its
/// outcome and each end-to-end metric's per-worker values.
pub fn run_document(plan: &Plan, measured: &[Measured]) -> Json {
    let workloads = measured
        .iter()
        .map(|m| {
            let out = m.outcome(plan.traced);
            let metrics = out
                .metrics
                .iter()
                .map(|(name, unit, value)| {
                    let per_cycle = if plan.traced {
                        Vec::new()
                    } else {
                        m.per_cycle(name)
                    };
                    let entry = obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                        (
                            "per_cycle",
                            Json::Arr(per_cycle.into_iter().map(Json::Num).collect()),
                        ),
                    ]);
                    (name.clone(), entry)
                })
                .collect();
            let entry = obj([
                ("correct", Json::Bool(out.correct())),
                ("attempted", Json::Num(out.attempted as f64)),
                ("failed", Json::Num(out.failed as f64)),
                ("metrics", Json::Obj(metrics)),
            ]);
            (m.workload.to_string(), entry)
        })
        .collect();
    obj([
        ("benchmark", Json::Str("e2e".to_string())),
        ("traced", Json::Bool(plan.traced)),
        ("host", host::stamp(plan.seed, plan.seconds)),
        ("workloads", Json::Obj(workloads)),
    ])
}
