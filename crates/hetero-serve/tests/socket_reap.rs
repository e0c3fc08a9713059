//! `serve --socket` must not keep the threads of finished connections:
//! a few hundred sequential connections leave the server's address space
//! (`VmSize`) about where it was. A connection thread whose handle is
//! kept unjoined keeps its stack mapped after it exits, so three hundred
//! of them grow `VmSize` by hundreds of MiB.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The server process and its socket, killed, reaped and removed on
/// every path out of the test.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn vm_size_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("server status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmSize line")
}

/// One connection: ask for the stats line, read it, hang up.
fn stats_round_trip(socket: &Path) {
    let mut conn = UnixStream::connect(socket).expect("connect");
    conn.write_all(b"{\"cmd\":\"stats\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line).expect("reply");
    assert!(line.starts_with("{\"stats\""), "unexpected reply: {line}");
}

#[test]
fn finished_connections_do_not_grow_the_address_space() {
    let socket = std::env::temp_dir().join(format!("serve-reap-{}.sock", std::process::id()));
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--socket")
        .arg(&socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let server = Server { child, socket };
    let t0 = Instant::now();
    while UnixStream::connect(&server.socket).is_err() {
        assert!(t0.elapsed() < Duration::from_secs(30), "serve never listened");
        std::thread::sleep(Duration::from_millis(10));
    }

    for _ in 0..20 {
        stats_round_trip(&server.socket);
    }
    let before = vm_size_kib(server.child.id());
    for _ in 0..300 {
        stats_round_trip(&server.socket);
    }
    let grown_mib = vm_size_kib(server.child.id()).saturating_sub(before) / 1024;
    assert!(grown_mib < 64, "300 finished connections grew VmSize by {grown_mib} MiB");
}
