//! The `splitd` child process and the one-connection client that talks
//! to it over a Unix socket.
//!
//! Every run gets its own directory under `.bench_run/` (socket and
//! journal live there). [`Daemon`]'s `Drop` kills the child and removes
//! the directory, so a benchmark panic never leaves a daemon running or
//! a journal on disk.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Root of the per-run scratch directories, relative to the checkout.
const RUN_ROOT: &str = ".bench_run";

/// How long a freshly spawned daemon gets to bind its socket.
const BIND_TIMEOUT: Duration = Duration::from_secs(20);

/// How long the client waits for one reply before it gives the run up
/// (a daemon that stops answering fails the run instead of hanging it).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds `splitd` from the checkout's workspace (a no-op when it is
/// up to date) and returns the binary's path. Cargo's output goes to
/// stderr so stdout stays reserved for the result line.
pub fn build_splitd() -> PathBuf {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "splitting-server",
            "--bin",
            "splitd",
        ])
        .stdout(Stdio::null())
        .status()
        .expect("run cargo to build splitd");
    assert!(status.success(), "building splitd failed: {status}");
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = PathBuf::from(target).join("release").join("splitd");
    assert!(bin.is_file(), "splitd binary missing at {}", bin.display());
    bin
}

/// A private scratch directory for one daemon, removed on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.bench_run/<tag>-<pid>-<n>/`, unique per process and call.
    pub fn new(tag: &str) -> RunDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = Path::new(RUN_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create run directory");
        RunDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // succeeds only once no other run is using the root
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

/// A running `splitd --socket` child with one open connection.
pub struct Daemon {
    child: Child,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
    // dropped after the child is killed (field order is drop order)
    _dir: RunDir,
}

impl Daemon {
    /// Spawns `splitd --workers 1` on a socket in a fresh run directory
    /// (with a `batch`-fsync journal beside it when `journal` is set)
    /// and connects once the socket accepts.
    pub fn spawn(bin: &Path, tag: &str, journal: bool) -> Daemon {
        let dir = RunDir::new(tag);
        let socket = dir.file("splitd.sock");
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(&socket).args(["--workers", "1"]);
        if journal {
            cmd.arg("--journal")
                .arg(dir.file("splitd.journal"))
                .args(["--fsync-policy", "batch"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn splitd");
        let started = Instant::now();
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(e) => {
                    if let Ok(Some(status)) = child.try_wait() {
                        panic!("splitd exited before binding its socket: {status}");
                    }
                    if started.elapsed() > BIND_TIMEOUT {
                        let _ = child.kill();
                        let _ = child.wait();
                        panic!("splitd did not bind {} in time: {e}", socket.display());
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        };
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("set socket read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Daemon {
            child,
            writer: stream,
            reader,
            line: String::new(),
            _dir: dir,
        }
    }

    /// Sends one frame and blocks until its reply line arrives; returns
    /// the reply without its newline.
    pub fn call(&mut self, frame: &str) -> &str {
        self.send(frame);
        self.recv()
    }

    /// Writes one frame (newline appended).
    pub fn send(&mut self, frame: &str) {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("write frame to splitd");
    }

    /// Reads one reply line.
    pub fn recv(&mut self) -> &str {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .expect("read reply from splitd");
        assert!(n > 0, "splitd closed the connection");
        self.line.trim_end_matches('\n')
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read splitd /proc status");
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM line in /proc status");
        kib / 1024.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Heartbeat counters the benchmark reads before and after a timed
/// phase (see `docs/PROTOCOL.md` § heartbeat).
#[derive(Debug, Clone, Copy, Default)]
pub struct Heartbeat {
    pub served: u64,
    pub rejected: u64,
    pub evicted: u64,
    pub queue_high_water: u64,
    pub journal_appended: u64,
    pub journal_bytes: u64,
    pub parse_fallbacks: u64,
    pub repairs: u64,
    pub full_resolves: u64,
    pub refix_mean_permille: u64,
}

impl Heartbeat {
    /// Sends a `ping` and parses the `heartbeat` reply.
    pub fn scrape(daemon: &mut Daemon) -> Heartbeat {
        let frame = daemon.call(r#"{"v":1,"type":"ping","id":"hb"}"#);
        let field = |key: &str| -> u64 {
            let rest = frame
                .split(&format!("\"{key}\":"))
                .nth(1)
                .unwrap_or_else(|| panic!("heartbeat has no {key}: {frame}"));
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("integer heartbeat field")
        };
        Heartbeat {
            served: field("served"),
            rejected: field("rejected"),
            evicted: field("evicted"),
            queue_high_water: field("queue_high_water"),
            journal_appended: field("journal_appended"),
            journal_bytes: field("journal_bytes"),
            parse_fallbacks: field("parse_fallbacks"),
            repairs: field("repairs"),
            full_resolves: field("full_resolves"),
            refix_mean_permille: field("refix_mean_permille"),
        }
    }

    /// The counters' growth from `before` to `self`. The two gauges,
    /// `queue_high_water` and `refix_mean_permille`, keep `self`'s
    /// value.
    pub fn since(&self, before: &Heartbeat) -> Heartbeat {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        Heartbeat {
            served: d(self.served, before.served),
            rejected: d(self.rejected, before.rejected),
            evicted: d(self.evicted, before.evicted),
            queue_high_water: self.queue_high_water,
            journal_appended: d(self.journal_appended, before.journal_appended),
            journal_bytes: d(self.journal_bytes, before.journal_bytes),
            parse_fallbacks: d(self.parse_fallbacks, before.parse_fallbacks),
            repairs: d(self.repairs, before.repairs),
            full_resolves: d(self.full_resolves, before.full_resolves),
            refix_mean_permille: self.refix_mean_permille,
        }
    }

    /// Adds a later daemon's growth ([`Heartbeat::since`]) to these
    /// sums: counters add up, the high-water mark keeps the larger
    /// value and the refix mean the later one.
    pub fn absorb(&mut self, later: &Heartbeat) {
        self.served += later.served;
        self.rejected += later.rejected;
        self.evicted += later.evicted;
        self.queue_high_water = self.queue_high_water.max(later.queue_high_water);
        self.journal_appended += later.journal_appended;
        self.journal_bytes += later.journal_bytes;
        self.parse_fallbacks += later.parse_fallbacks;
        self.repairs += later.repairs;
        self.full_resolves += later.full_resolves;
        self.refix_mean_permille = later.refix_mean_permille;
    }
}
