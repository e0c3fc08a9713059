//! Wire protocol of the benchmark service: line-delimited JSON job
//! requests in, line-delimited JSON verdicts out.
//!
//! A request names a suite configuration the way the paper's figures
//! do — `(app, size, device, flavor)` — plus the service-level fields:
//! tenant identity, hardening mode, priority lane, deadline, and an
//! optional tenant-scoped fault plan (the `matrix --serve` harness
//! attaches its seeds here, and a plan arms only its own job's queue).

use altis_data::InputSize;
use hetero_rt::Device;

use crate::json::{escape, Json};

/// Priority lane of a job. Lanes are drained weighted-fair (see
/// `scheduler`): high gets 4 dequeue slots per cycle, normal 2, low 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive lane.
    High,
    /// Default lane.
    #[default]
    Normal,
    /// Bulk/background lane.
    Low,
}

impl Priority {
    /// Lane index (0 = high).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Device route of a job: which modelled device the queue is bound to.
/// Non-CPU routes exercise the capability-error path (e.g. FPGA has no
/// USM and a 128-item work-group limit) and are the routes a circuit
/// breaker degrades to CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceRoute {
    /// Host CPU (default).
    #[default]
    Cpu,
    /// Modelled discrete GPU.
    Gpu,
    /// Modelled PCIe FPGA.
    Fpga,
}

impl DeviceRoute {
    /// Construct the runtime device for this route.
    pub fn device(self) -> Device {
        match self {
            DeviceRoute::Cpu => Device::cpu(),
            DeviceRoute::Gpu => Device::rtx_2080(),
            DeviceRoute::Fpga => Device::stratix10(),
        }
    }

    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceRoute::Cpu => "cpu",
            DeviceRoute::Gpu => "gpu",
            DeviceRoute::Fpga => "fpga",
        }
    }
}

/// Execution flavor of a job: which app version / execution mode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flavor {
    /// Host-side golden reference implementation.
    Reference,
    /// As-migrated SYCL (default).
    #[default]
    Baseline,
    /// GPU-optimized SYCL.
    Optimized,
    /// Recorded-graph replay (graph-converted apps only).
    Graph,
}

impl Flavor {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            Flavor::Reference => "reference",
            Flavor::Baseline => "baseline",
            Flavor::Optimized => "optimized",
            Flavor::Graph => "graph",
        }
    }

    /// Whether this flavor runs through the record-and-replay graph
    /// path (only available for the graph-converted apps).
    pub fn is_graph(self) -> bool {
        self == Flavor::Graph
    }
}

/// Hardening mode of a job: which defense stack wraps the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Hardening {
    /// Plain run: no injection, default retry policy.
    #[default]
    None,
    /// Chaos posture: resilient retry policy, typed-error containment.
    Resilient,
    /// SDC posture: integrity protocol + DMR voting. SDC jobs serialize
    /// on a process-wide permit (the integrity counters are global).
    Sdc,
}

impl Hardening {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            Hardening::None => "none",
            Hardening::Resilient => "resilient",
            Hardening::Sdc => "sdc",
        }
    }
}

/// Which fail-stop fault classes a job's tenant-scoped plan injects
/// (SDC hardening ignores this: its plan is always the silent kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKindSel {
    /// Both fail-stop kinds (the chaos matrix's mix; default).
    #[default]
    Mixed,
    /// Transient launch failures only (absorbed by retry).
    Transient,
    /// Kernel panics only (breaker-class failures).
    Panic,
}

impl FaultKindSel {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKindSel::Mixed => "mixed",
            FaultKindSel::Transient => "transient",
            FaultKindSel::Panic => "panic",
        }
    }
}

/// One parsed job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id, echoed verbatim in the result (default 0).
    pub id: u64,
    /// Tenant identity: the isolation domain for quotas, ledgers and
    /// quarantine.
    pub tenant: String,
    /// Suite configuration name (case-insensitive; unique substrings
    /// accepted, e.g. "fdtd" for "FDTD2D").
    pub app: String,
    /// Input size class 1..=3 (paper sizes; default 1).
    pub size: InputSize,
    /// Device route (default cpu).
    pub device: DeviceRoute,
    /// Execution flavor (default baseline).
    pub flavor: Flavor,
    /// Hardening mode (default none).
    pub hardening: Hardening,
    /// Priority lane (default normal).
    pub priority: Priority,
    /// Deadline in milliseconds from admission; `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Tenant-scoped fault-injection seed; `None` = no injection.
    pub fault_seed: Option<u64>,
    /// Injection rate used when `fault_seed` is set.
    pub fault_rate: f64,
    /// Which fail-stop kinds the plan injects (default mixed).
    pub fault_kind: FaultKindSel,
    /// Run the app as a window stream for this many windows instead of
    /// one batch execution (streaming-converted apps only; `None` =
    /// batch job). Faults then land on individual windows — contained
    /// by checkpoint/rollback — rather than on the whole job.
    pub stream_windows: Option<u64>,
}

impl Default for JobRequest {
    fn default() -> Self {
        JobRequest {
            id: 0,
            tenant: String::new(),
            app: String::new(),
            size: InputSize::S1,
            device: DeviceRoute::Cpu,
            flavor: Flavor::Baseline,
            hardening: Hardening::None,
            priority: Priority::Normal,
            deadline_ms: None,
            fault_seed: None,
            fault_rate: 0.05,
            fault_kind: FaultKindSel::Mixed,
            stream_windows: None,
        }
    }
}

fn bad(field: &str, got: &Json) -> String {
    format!("invalid '{field}': {got:?}")
}

impl JobRequest {
    /// Parse a request from a decoded JSON object. `tenant` and `app`
    /// are required; everything else defaults.
    pub fn from_json(v: &Json) -> Result<JobRequest, String> {
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .filter(|t| !t.is_empty())
            .ok_or("missing required field 'tenant'")?
            .to_string();
        let app = v
            .get("app")
            .and_then(Json::as_str)
            .filter(|a| !a.is_empty())
            .ok_or("missing required field 'app'")?
            .to_string();
        let mut r = JobRequest { tenant, app, ..JobRequest::default() };
        if let Some(id) = v.get("id") {
            r.id = id.as_u64().ok_or_else(|| bad("id", id))?;
        }
        if let Some(s) = v.get("size") {
            r.size = match s.as_u64() {
                Some(1) => InputSize::S1,
                Some(2) => InputSize::S2,
                Some(3) => InputSize::S3,
                _ => return Err(bad("size", s)),
            };
        }
        if let Some(d) = v.get("device") {
            r.device = match d.as_str() {
                Some("cpu") => DeviceRoute::Cpu,
                Some("gpu") => DeviceRoute::Gpu,
                Some("fpga") => DeviceRoute::Fpga,
                _ => return Err(bad("device", d)),
            };
        }
        if let Some(f) = v.get("flavor") {
            r.flavor = match f.as_str() {
                Some("reference") => Flavor::Reference,
                Some("baseline") => Flavor::Baseline,
                Some("optimized") => Flavor::Optimized,
                Some("graph") => Flavor::Graph,
                _ => return Err(bad("flavor", f)),
            };
        }
        if let Some(h) = v.get("hardening") {
            r.hardening = match h.as_str() {
                Some("none") => Hardening::None,
                Some("resilient") => Hardening::Resilient,
                Some("sdc") => Hardening::Sdc,
                _ => return Err(bad("hardening", h)),
            };
        }
        if let Some(p) = v.get("priority") {
            r.priority = match p.as_str() {
                Some("high") => Priority::High,
                Some("normal") => Priority::Normal,
                Some("low") => Priority::Low,
                _ => return Err(bad("priority", p)),
            };
        }
        if let Some(d) = v.get("deadline_ms") {
            let ms = d.as_u64().filter(|&ms| ms > 0).ok_or_else(|| bad("deadline_ms", d))?;
            r.deadline_ms = Some(ms);
        }
        if let Some(s) = v.get("fault_seed") {
            r.fault_seed = Some(s.as_u64().ok_or_else(|| bad("fault_seed", s))?);
        }
        if let Some(rate) = v.get("fault_rate") {
            let x = rate
                .as_f64()
                .filter(|x| (0.0..=1.0).contains(x))
                .ok_or_else(|| bad("fault_rate", rate))?;
            r.fault_rate = x;
        }
        if let Some(w) = v.get("stream_windows") {
            let n = w.as_u64().filter(|&n| n > 0).ok_or_else(|| bad("stream_windows", w))?;
            r.stream_windows = Some(n);
        }
        if let Some(k) = v.get("fault_kind") {
            r.fault_kind = match k.as_str() {
                Some("mixed") => FaultKindSel::Mixed,
                Some("transient") => FaultKindSel::Transient,
                Some("panic") => FaultKindSel::Panic,
                _ => return Err(bad("fault_kind", k)),
            };
        }
        Ok(r)
    }
}

/// Final disposition of one job. Every submitted job ends in exactly
/// one of these — the scheduler's zero-unaccounted invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Ran to completion and the output matched the golden reference.
    Completed,
    /// Output validated after the integrity/redundancy machinery
    /// detected or out-voted `events` corruptions.
    Corrected {
        /// Detections plus voted-out divergences during the run.
        events: u64,
    },
    /// The run was stopped and its output rejected: typed error,
    /// validation failure, or wrong results. Never reaches a consumer.
    Quarantined {
        /// The typed error or failed check.
        reason: String,
    },
    /// Admission control refused the job (bad request, tenant
    /// quarantined, quota exceeded, circuit open on a CPU route).
    Rejected {
        /// Which admission rule fired.
        reason: String,
    },
    /// Load shedding: the bounded queue was full (or the server was
    /// draining) and the job was dropped before execution.
    Shed {
        /// What was overloaded.
        reason: String,
    },
    /// The per-job deadline fired: the watchdog canceled the run (or it
    /// expired while still queued) and any partial work was contained
    /// via the typed `Canceled` error path.
    Deadline,
}

impl Verdict {
    /// Wire label of the verdict class.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Completed => "completed",
            Verdict::Corrected { .. } => "corrected",
            Verdict::Quarantined { .. } => "quarantined",
            Verdict::Rejected { .. } => "rejected",
            Verdict::Shed { .. } => "shed",
            Verdict::Deadline => "deadline",
        }
    }
}

/// One job's final result, as sent back to the submitting client.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Echoed client id.
    pub id: u64,
    /// Echoed tenant.
    pub tenant: String,
    /// Echoed app name (canonical registry spelling once resolved).
    pub app: String,
    /// Final disposition.
    pub verdict: Verdict,
    /// Whether an open circuit breaker degraded the route to CPU.
    pub degraded: bool,
    /// Admission-to-verdict latency in milliseconds.
    pub latency_ms: u64,
    /// Milliseconds spent executing (0 for jobs that never ran); whole
    /// milliseconds of `run_us`, kept for clients that read it.
    pub run_ms: u64,
    /// Microseconds spent executing: the median job runs under 3 ms.
    pub run_us: u64,
}

impl JobResult {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let (detail, events) = match &self.verdict {
            Verdict::Corrected { events } => (String::new(), *events),
            Verdict::Quarantined { reason }
            | Verdict::Rejected { reason }
            | Verdict::Shed { reason } => (reason.clone(), 0),
            Verdict::Completed | Verdict::Deadline => (String::new(), 0),
        };
        format!(
            "{{\"id\":{},\"tenant\":\"{}\",\"app\":\"{}\",\"verdict\":\"{}\",\
             \"detail\":\"{}\",\"events\":{},\"degraded\":{},\"latency_ms\":{},\"run_ms\":{},\"run_us\":{}}}",
            self.id,
            escape(&self.tenant),
            escape(&self.app),
            self.verdict.label(),
            escape(&detail),
            events,
            self.degraded,
            self.latency_ms,
            self.run_ms,
            self.run_us,
        )
    }
}

/// The longest request line the service reads, newline excluded.
pub(crate) const MAX_LINE_BYTES: usize = 64 << 10;

/// Reads request lines through a 64 KiB length cap. The line
/// buffer is allocated once and never grows: the rest of an over-long
/// line is read and dropped chunk by chunk, never stored.
pub struct LineReader<R> {
    inner: R,
    line: Vec<u8>,
}

impl<R: std::io::BufRead> LineReader<R> {
    /// Read lines from `inner`.
    pub fn new(inner: R) -> Self {
        LineReader { inner, line: Vec::with_capacity(MAX_LINE_BYTES) }
    }

    /// The next line without its newline, `None` at end of input. A line
    /// over the cap, or not UTF-8, is consumed whole and comes back as
    /// the reason to reply with, so the next call reads the line after.
    pub fn next_line(&mut self) -> std::io::Result<Option<Result<&str, String>>> {
        self.line.clear();
        let (mut seen, mut over) = (false, false);
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                if !seen {
                    return Ok(None);
                }
                break;
            }
            seen = true;
            let newline = chunk.iter().position(|&b| b == b'\n');
            let len = newline.unwrap_or(chunk.len());
            over |= self.line.len() + len > MAX_LINE_BYTES;
            if !over {
                self.line.extend_from_slice(&chunk[..len]);
            }
            self.inner.consume(len + usize::from(newline.is_some()));
            if newline.is_some() {
                break;
            }
        }
        if over {
            return Ok(Some(Err(format!("line longer than {MAX_LINE_BYTES} bytes"))));
        }
        let text = std::str::from_utf8(&self.line).map_err(|e| format!("line is not UTF-8: {e}"));
        Ok(Some(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn parses_full_request_and_defaults() {
        let v = json::parse(
            r#"{"id":9,"tenant":"acme","app":"FDTD2D","size":2,"device":"fpga",
                "flavor":"graph","hardening":"resilient","priority":"low",
                "deadline_ms":250,"fault_seed":7,"fault_rate":0.1}"#,
        )
        .unwrap();
        let r = JobRequest::from_json(&v).unwrap();
        assert_eq!(r.id, 9);
        assert_eq!(r.tenant, "acme");
        assert_eq!(r.size, InputSize::S2);
        assert_eq!(r.device, DeviceRoute::Fpga);
        assert_eq!(r.flavor, Flavor::Graph);
        assert_eq!(r.hardening, Hardening::Resilient);
        assert_eq!(r.priority, Priority::Low);
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.fault_seed, Some(7));
        assert!((r.fault_rate - 0.1).abs() < 1e-12);

        let min = json::parse(r#"{"tenant":"t","app":"sort"}"#).unwrap();
        let r = JobRequest::from_json(&min).unwrap();
        assert_eq!(r.size, InputSize::S1);
        assert_eq!(r.priority, Priority::Normal);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.fault_seed, None);
    }

    #[test]
    fn rejects_missing_and_invalid_fields() {
        let e = |s: &str| JobRequest::from_json(&json::parse(s).unwrap());
        assert!(e(r#"{"app":"sort"}"#).is_err());
        assert!(e(r#"{"tenant":"t"}"#).is_err());
        assert!(e(r#"{"tenant":"t","app":"sort","size":9}"#).is_err());
        assert!(e(r#"{"tenant":"t","app":"sort","device":"tpu"}"#).is_err());
        // A retired flavor is refused like any unknown one.
        for flavor in ["graph-opt", "turbo"] {
            let err = e(&format!(r#"{{"tenant":"t","app":"srad","flavor":"{flavor}"}}"#));
            assert_eq!(err.unwrap_err(), bad("flavor", &Json::Str(flavor.to_string())));
        }
        assert!(e(r#"{"tenant":"t","app":"sort","deadline_ms":0}"#).is_err());
        assert!(e(r#"{"tenant":"t","app":"sort","fault_rate":1.5}"#).is_err());
        assert!(e(r#"{"tenant":"t","app":"srad","stream_windows":0}"#).is_err());
        assert!(e(r#"{"tenant":"t","app":"srad","stream_windows":"many"}"#).is_err());
        // Retired fault kinds are refused like any unknown one.
        for kind in ["alloc", "stall"] {
            let err = e(&format!(r#"{{"tenant":"t","app":"srad","fault_kind":"{kind}"}}"#));
            assert_eq!(err.unwrap_err(), bad("fault_kind", &Json::Str(kind.to_string())));
        }
    }

    #[test]
    fn parses_stream_windows() {
        let v = json::parse(r#"{"tenant":"t","app":"srad","stream_windows":64}"#).unwrap();
        let r = JobRequest::from_json(&v).unwrap();
        assert_eq!(r.stream_windows, Some(64));
        let v = json::parse(r#"{"tenant":"t","app":"srad"}"#).unwrap();
        assert_eq!(JobRequest::from_json(&v).unwrap().stream_windows, None);
    }

    #[test]
    fn result_line_is_valid_json_with_escaped_detail() {
        let r = JobResult {
            id: 3,
            tenant: "a\"b".to_string(),
            app: "Sort".to_string(),
            verdict: Verdict::Quarantined { reason: "typed: \"X\"\n".to_string() },
            degraded: true,
            latency_ms: 12,
            run_ms: 7,
            run_us: 7_412,
        };
        let v = json::parse(&r.to_json_line()).unwrap();
        assert_eq!(v.get("tenant").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("quarantined"));
        assert_eq!(v.get("detail").and_then(Json::as_str), Some("typed: \"X\"\n"));
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("run_ms").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("run_us").and_then(Json::as_u64), Some(7_412));
    }

    #[test]
    fn an_over_long_line_is_dropped_without_growing_the_buffer() {
        const CHUNK: usize = 8 << 10;
        let mut wire = vec![b'['; 16 << 20];
        wire.extend_from_slice(b"\n{\"id\":1}\n");
        wire.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES));
        wire.extend_from_slice(b"\n\xff\nlast");
        let mut lines = LineReader::new(std::io::BufReader::with_capacity(CHUNK, &wire[..]));
        let too_long = format!("line longer than {MAX_LINE_BYTES} bytes");
        assert_eq!(lines.next_line().unwrap(), Some(Err(too_long)));
        assert!(lines.line.capacity() <= MAX_LINE_BYTES + CHUNK, "{}", lines.line.capacity());
        assert_eq!(lines.next_line().unwrap(), Some(Ok(r#"{"id":1}"#)));
        let at_cap = lines.next_line().unwrap().unwrap().unwrap().len();
        assert_eq!(at_cap, MAX_LINE_BYTES);
        assert!(matches!(lines.next_line().unwrap(), Some(Err(e)) if e.contains("UTF-8")));
        assert_eq!(lines.next_line().unwrap(), Some(Ok("last")));
        assert_eq!(lines.next_line().unwrap(), None);
        assert!(lines.line.capacity() <= MAX_LINE_BYTES + CHUNK);
    }
}
