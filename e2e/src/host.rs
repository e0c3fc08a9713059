//! What the numbers were taken on: the host stamp carried by every
//! output, and the `/proc` readers for CPU time and peak memory.

use std::fs;
use std::process::Command;

use hetero_serve::json::Json;

use crate::report::obj;

/// `USER_HZ`: the unit of utime/stime in `/proc/<pid>/stat`. Fixed at
/// 100 by the Linux userspace ABI on every architecture Rust targets.
const USER_HZ: f64 = 100.0;

/// Pool width the workers run with: every core up to four, stated
/// explicitly so a result never depends on an inherited environment.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// User plus system CPU seconds of this process so far, all threads,
/// including ones that have exited.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat) / USER_HZ
}

/// utime + stime in ticks from the text of `/proc/<pid>/stat`. The
/// command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> f64 {
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    utime + stime
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cache sizes of cpu0 as sysfs states them, e.g. `L1d 48K, L2 2048K`.
fn caches() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(size)) = (read("level"), read("size")) else {
            continue;
        };
        let kind = match read("type").as_deref() {
            Ok("Data") => "d",
            Ok("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{level}{kind} {size}"));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(", ")
    }
}

/// Commit of the checkout the benchmark runs from, read from `.git`
/// without spawning git; `unknown` outside a repository.
fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host stamp: everything a reader needs to decide whether two
/// results are comparable.
pub fn stamp(seed: u64, seconds: f64) -> Json {
    obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model())),
        ("caches", Json::Str(caches())),
        ("hetero_rt_threads", Json::Num(pool_threads() as f64)),
        ("serve_workers", Json::Num(1.0)),
        ("git_commit", Json::Str(git_commit())),
        ("rustc", Json::Str(rustc_version())),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
        (
            "budget_factor",
            Json::Num(seconds / crate::spec::RUN_SECONDS),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "1234 (e2e) worker) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_cpu_ticks(stat), 300.0);
        assert_eq!(parse_cpu_ticks(""), 0.0);
    }

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(pool_threads() >= 1 && pool_threads() <= 4);
    }
}
