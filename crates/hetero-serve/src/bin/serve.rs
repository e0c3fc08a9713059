//! `serve` — the benchmark service front-end.
//!
//! Speaks the line-delimited JSON protocol (see `hetero_serve::protocol`)
//! over stdin/stdout by default, or over a Unix domain socket with
//! `--socket PATH` (one connection per client thread, shared scheduler).
//!
//! Usage:
//! ```text
//! serve [--socket PATH] [--workers N] [--capacity N] [--tenant-quota N]
//!       [--breaker-open-after N] [--breaker-cooldown-ms MS]
//!       [--quarantine-after N] [--default-deadline-ms MS]
//! ```
//!
//! Requests are one JSON object per line. Besides job requests, two
//! control commands are understood:
//!
//! * `{"cmd":"stats"}` — emit the scheduler counters as one JSON line;
//! * `{"cmd":"drain"}` — shed everything still queued, finish running
//!   jobs, emit final stats, and (stdin mode) exit.
//!
//! Responses carry the submitting line's `id`; on stdin they interleave
//! in completion order, so clients correlate by id, not by order.

use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hetero_serve::json::{self, Json};
use hetero_serve::protocol::{JobRequest, LineReader};
use hetero_serve::{MonotonicClock, ResultSink, Scheduler, ServeConfig, ServeStats};

fn stats_line(s: &ServeStats) -> String {
    format!(
        "{{\"stats\":{{\"submitted\":{},\"completed\":{},\"corrected\":{},\
         \"quarantined\":{},\"rejected\":{},\"shed\":{},\"deadline\":{},\
         \"unaccounted\":{},\"uncontained\":{},\"degraded\":{},\"breaker_trips\":{}}}}}",
        s.submitted,
        s.completed,
        s.corrected,
        s.quarantined,
        s.rejected,
        s.shed,
        s.deadline,
        s.unaccounted(),
        s.uncontained,
        s.degraded,
        s.breaker_trips,
    )
}

/// Handle one protocol line, or the reason a line was unreadable (over
/// the length cap, not UTF-8). Returns false when the connection should
/// close (a drain request).
fn handle_line(
    line: Result<&str, String>,
    scheduler: &Scheduler,
    sink: &ResultSink,
    errors: &AtomicU64,
    reply: &dyn Fn(String),
) -> bool {
    let line = match line {
        Ok(line) => line.trim(),
        Err(e) => {
            errors.fetch_add(1, Ordering::Relaxed);
            reply(format!("{{\"error\":\"{}\"}}", json::escape(&e)));
            return true;
        }
    };
    if line.is_empty() {
        return true;
    }
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            errors.fetch_add(1, Ordering::Relaxed);
            reply(format!("{{\"error\":\"bad json: {}\"}}", json::escape(&e)));
            return true;
        }
    };
    match parsed.get("cmd").and_then(Json::as_str) {
        Some("stats") => {
            reply(stats_line(&scheduler.stats()));
            return true;
        }
        Some("drain") => {
            scheduler.shutdown();
            reply(stats_line(&scheduler.stats()));
            return false;
        }
        Some(other) => {
            errors.fetch_add(1, Ordering::Relaxed);
            reply(format!(
                "{{\"error\":\"unknown cmd '{}'\"}}",
                json::escape(other)
            ));
            return true;
        }
        None => {}
    }
    match JobRequest::from_json(&parsed) {
        Ok(req) => scheduler.submit(req, sink.clone()),
        Err(e) => {
            errors.fetch_add(1, Ordering::Relaxed);
            reply(format!("{{\"error\":\"{}\"}}", json::escape(&e)));
        }
    }
    true
}

fn run_stdin(scheduler: Arc<Scheduler>) {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let out = stdout.clone();
    let sink: ResultSink = Arc::new(move |res| {
        let mut o = out.lock().unwrap();
        let _ = writeln!(o, "{}", res.to_json_line());
        let _ = o.flush();
    });
    let reply = |s: String| {
        let mut o = stdout.lock().unwrap();
        let _ = writeln!(o, "{s}");
        let _ = o.flush();
    };
    let errors = AtomicU64::new(0);
    let mut lines = LineReader::new(std::io::stdin().lock());
    while let Ok(Some(line)) = lines.next_line() {
        if !handle_line(line, &scheduler, &sink, &errors, &reply) {
            return; // drained: shutdown already ran
        }
    }
    // EOF: finish queued work, then report.
    scheduler.wait_idle();
    scheduler.shutdown();
    reply(stats_line(&scheduler.stats()));
}

fn run_socket(scheduler: Arc<Scheduler>, path: &str) {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind '{path}': {e}");
        std::process::exit(1);
    });
    eprintln!("serve: listening on {path}");
    let mut handles = Vec::new();
    for conn in listener.incoming() {
        let Ok(stream) = conn else { break };
        let scheduler = scheduler.clone();
        // Join finished connections first: a thread never joined keeps
        // its stack mapped after it exits.
        for h in handles.extract_if(.., |h: &mut std::thread::JoinHandle<()>| h.is_finished()) {
            let _ = h.join();
        }
        handles.push(std::thread::spawn(move || {
            let writer = Arc::new(Mutex::new(
                stream.try_clone().expect("clone unix stream"),
            ));
            let out = writer.clone();
            let sink: ResultSink = Arc::new(move |res| {
                let mut o = out.lock().unwrap();
                let _ = writeln!(o, "{}", res.to_json_line());
            });
            let reply = |s: String| {
                let mut o = writer.lock().unwrap();
                let _ = writeln!(o, "{s}");
            };
            let errors = AtomicU64::new(0);
            let mut lines = LineReader::new(BufReader::new(stream));
            while let Ok(Some(line)) = lines.next_line() {
                if !handle_line(line, &scheduler, &sink, &errors, &reply) {
                    // A drain over a socket stops the whole server; the
                    // accept loop ends when the process exits.
                    std::process::exit(0);
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::default();
    let mut socket: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let num = |it: &mut std::slice::Iter<String>| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("serve: '{a}' needs a numeric argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--workers" => cfg.workers = num(&mut it) as usize,
            "--capacity" => cfg.queue_capacity = num(&mut it) as usize,
            "--tenant-quota" => cfg.tenant_queued_limit = num(&mut it),
            "--breaker-open-after" => cfg.breaker_open_after = num(&mut it) as u32,
            "--breaker-cooldown-ms" => cfg.breaker_cooldown_ms = num(&mut it),
            "--quarantine-after" => cfg.quarantine_after = num(&mut it),
            "--default-deadline-ms" => cfg.default_deadline_ms = Some(num(&mut it)),
            other => {
                eprintln!("serve: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let scheduler = Arc::new(Scheduler::new(cfg, Arc::new(MonotonicClock::new())));
    match socket {
        Some(path) => run_socket(scheduler, &path),
        None => run_stdin(scheduler),
    }
}
