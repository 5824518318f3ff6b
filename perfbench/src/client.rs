//! The `grepair store serve` process and the open-loop client that drives
//! it: one connection, one sender thread and one receiver thread.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server process serving `default` plus attached tenants, one worker.
pub struct ServerProcess {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl ServerProcess {
    /// Start `grepair store serve` (this binary's `serve` mode runs the same
    /// `grepair_server::run_cli`) and wait for its `listening` line.
    pub fn spawn(default: &str, attach: &[(String, String)]) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg(default)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"]);
        for (name, path) in attach {
            cmd.arg("--attach").arg(format!("{name}={path}"));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = BufReader::new(stdout);
        let mut first = String::new();
        let read = reader.read_line(&mut first);
        let addr = match (
            read,
            first.split_whitespace().collect::<Vec<_>>().as_slice(),
        ) {
            (Ok(_), ["listening", addr, ..]) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not start: {first:?}"));
            }
        };
        // Keep the pipe drained so the server never blocks on stdout.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(ServerProcess {
            child,
            drain: Some(drain),
            addr,
        })
    }

    /// Peak resident set of the server process (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_status_kb(&format!("/proc/{}/status", self.child.id()), "VmHWM:") / 1024.0
    }

    /// CPU time the server's live threads have run, in ns
    /// (`/proc/<pid>/task/*/schedstat`).
    pub fn cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.child.id())) else {
            return 0;
        };
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// Current resident set of the server process (`VmRSS`), in MB.
    pub fn rss_mb(&self) -> f64 {
        proc_status_kb(&format!("/proc/{}/status", self.child.id()), "VmRSS:") / 1024.0
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_kb("/proc/self/status", "VmHWM:") / 1024.0
}

/// A `kB` field of a `/proc/<pid>/status` file (0 when unreadable).
fn proc_status_kb(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone)]
pub struct Timed {
    pub line: String,
    /// When it is due, relative to the schedule's start.
    pub due: Duration,
}

/// What the schedule produced.
pub struct Outcome {
    /// Reply line and latency (ms, from the due time) per request; `None`
    /// for a reply that never came.
    pub replies: Vec<Option<(String, f64)>>,
    /// How late the sender wrote each request (ms after its due time).
    pub late_ms: Vec<f64>,
    /// Wall time from the schedule's start to the last reply.
    pub elapsed_s: f64,
}

impl Outcome {
    /// Replies received per second of the schedule.
    pub fn throughput(&self) -> f64 {
        self.replies.iter().filter(|r| r.is_some()).count() as f64 / self.elapsed_s.max(1e-9)
    }
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Ask the kernel to wake this thread within 1 µs of a sleep's deadline
/// instead of the default 50 µs slack, so the sender keeps to its
/// schedule. Best effort: on failure the slack stays at the default and
/// `bench.gen_late_ms` shows it.
fn fine_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack
    // in ns), passes no pointers, and only changes this thread's timer
    // slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_u64);
    }
}

/// A pipelined connection to the server.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Set once a reply went missing: later replies would be misattributed.
    pub broken: bool,
}

impl Connection {
    pub fn open(addr: &str) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = writer.try_clone().map_err(|e| e.to_string())?;
        reader
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        Ok(Connection {
            writer,
            reader: BufReader::new(reader),
            broken: false,
        })
    }

    /// Send one line and wait for its reply (closed loop; admin lines).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let outcome = self.open_loop(
            &[Timed {
                line: line.to_string(),
                due: Duration::ZERO,
            }],
            Duration::from_secs(10),
        );
        match outcome.replies.into_iter().next().flatten() {
            Some((reply, _)) => Ok(reply),
            None => Err(format!("no reply to {line:?}")),
        }
    }

    /// Send `schedule` open loop: each request goes out at its due time
    /// whether or not earlier ones were answered, and each latency counts
    /// from the due time, so a stall is charged to every request it delays.
    /// Replies still missing `grace` after the last due time count as
    /// missing.
    pub fn open_loop(&mut self, schedule: &[Timed], grace: Duration) -> Outcome {
        let n = schedule.len();
        let mut replies: Vec<Option<(String, f64)>> = vec![None; n];
        let mut late_ms = vec![0.0; n];
        if self.broken || n == 0 {
            return Outcome {
                replies,
                late_ms,
                elapsed_s: 0.0,
            };
        }
        let last_due = schedule.last().map_or(Duration::ZERO, |t| t.due);
        let start = Instant::now();
        let deadline = start + last_due + grace;
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        let mut last_reply = start;
        let mut sent_ok = true;
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                fine_timer_slack();
                let mut buf = Vec::new();
                let mut i = 0;
                while i < n {
                    let due = start + schedule[i].due;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                        continue;
                    }
                    let sent_at = start.elapsed();
                    while i < n && schedule[i].due <= sent_at {
                        buf.extend_from_slice(schedule[i].line.as_bytes());
                        buf.push(b'\n');
                        late_ms[i] = (sent_at - schedule[i].due).as_secs_f64() * 1e3;
                        i += 1;
                    }
                    if writer.write_all(&buf).is_err() {
                        return false;
                    }
                    buf.clear();
                }
                true
            });
            let mut line = Vec::new();
            let mut k = 0;
            while k < n && Instant::now() < deadline {
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with(b"\n") => {
                        let now = Instant::now();
                        let due = start + schedule[k].due;
                        let latency = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                        line.pop();
                        replies[k] = Some((String::from_utf8_lossy(&line).into_owned(), latency));
                        line.clear();
                        last_reply = now;
                        k += 1;
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            sent_ok = sender.join().unwrap_or(false);
        });
        if !sent_ok || replies.iter().any(Option::is_none) {
            self.broken = true;
        }
        let elapsed_s = (last_reply - start)
            .as_secs_f64()
            .max(last_due.as_secs_f64());
        Outcome {
            replies,
            late_ms,
            elapsed_s,
        }
    }
}
