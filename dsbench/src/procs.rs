//! Spawning, watching and reaping `dsearch` processes.
//!
//! Every child is started with `PR_SET_PDEATHSIG = SIGKILL`, so it dies with
//! the harness even when the harness itself is killed; every [`Server`] is
//! stopped with `!quit` on its stdin and killed and reaped on drop, so no
//! exit path (error, panic) leaves a server pinning a core.  Children must be
//! spawned from the main thread: the death signal fires when the spawning
//! thread exits.
//!
//! Peak memory is each process's `VmHWM`: read from `/proc` for live
//! servers, and for `index`/`build` runs at a ptrace stop just before exit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn ptrace(request: i32, ...) -> i64;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
const SIGTRAP: i32 = 5;
const PTRACE_TRACEME: i32 = 0;
const PTRACE_CONT: i32 = 7;
const PTRACE_SETOPTIONS: i32 = 0x4200;
const PTRACE_O_TRACEEXIT: usize = 0x40;
const PTRACE_O_EXITKILL: usize = 0x10_0000;
const PTRACE_EVENT_EXIT: i32 = 6;

/// A `dsearch` command that dies with the harness.  With `traced`, the
/// child also stops for the harness at its exec and before it exits (see
/// [`run`]).
fn command(bin: &Path, args: &[String], traced: bool) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    // SAFETY: `prctl(PR_SET_PDEATHSIG)` and `ptrace(PTRACE_TRACEME)` are
    // plain system calls, touch no memory of the parent and are called
    // between fork and exec as `pre_exec` requires.
    unsafe {
        cmd.pre_exec(move || {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0
                || (traced && ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) != 0)
            {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
    cmd
}

/// `VmHWM` (peak resident set) of a live process, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Lets a child started with `command(.., traced: true)` run to its end and
/// reaps it.  Returns its raw wait status and its `VmHWM` read at the stop
/// before exit, when its memory is still mapped: exact, unlike `ru_maxrss`,
/// which keeps the resident set the child inherited from the harness at
/// fork.  Must run on the thread that spawned the child (its tracer).
fn trace_to_exit(pid: u32) -> Result<(i32, u64), String> {
    let id = i32::try_from(pid).map_err(|e| e.to_string())?;
    let (mut status, mut peak_kb, mut exec_seen) = (0, 0, false);
    loop {
        // SAFETY: `status` is live for the call; `id` is our child.
        if unsafe { waitpid(id, &mut status, 0) } != id {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(format!("wait dsearch: {err}"));
        }
        if status & 0xff != 0x7f {
            return Ok((status, peak_kb)); // exited or killed
        }
        let (signal, event) = ((status >> 8) & 0xff, status >> 16);
        let mut forward = 0usize;
        if event == PTRACE_EVENT_EXIT {
            peak_kb = vm_hwm_kb(pid).unwrap_or(peak_kb);
        } else if signal == SIGTRAP && !exec_seen {
            exec_seen = true;
            let options = PTRACE_O_TRACEEXIT | PTRACE_O_EXITKILL;
            // SAFETY: the child is in a ptrace stop and traced by this thread.
            if unsafe { ptrace(PTRACE_SETOPTIONS, id, 0usize, options) } != 0 {
                return Err(format!("ptrace: {}", std::io::Error::last_os_error()));
            }
        } else {
            forward = signal as usize; // a signal for the child: deliver it
        }
        // SAFETY: as above.
        if unsafe { ptrace(PTRACE_CONT, id, 0usize, forward) } != 0 {
            return Err(format!("ptrace: {}", std::io::Error::last_os_error()));
        }
    }
}

/// One finished `dsearch` run.
pub struct Finished {
    /// Spawn to exit.
    pub wall: Duration,
    pub stdout: String,
    /// `VmHWM` of the process just before it exited.
    pub peak_rss_kb: u64,
}

/// Reads a child's pipe to its end on a thread of its own.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    })
}

/// Runs `dsearch <args>` to completion, timing spawn to exit.
pub fn run(bin: &Path, args: &[String]) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = command(bin, args, true)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn dsearch {}: {e}", args.join(" ")))?;
    let stdout = drain(child.stdout.take().expect("stdout is piped"));
    let stderr = drain(child.stderr.take().expect("stderr is piped"));
    let (status, peak_rss_kb) = trace_to_exit(child.id())?;
    let wall = started.elapsed();
    let out = stdout.join().expect("stdout reader panicked");
    let err = stderr.join().expect("stderr reader panicked");
    if status != 0 {
        return Err(format!(
            "dsearch {} failed (wait status {status:#x}): {}",
            args.join(" "),
            err.trim()
        ));
    }
    Ok(Finished { wall, stdout: out, peak_rss_kb })
}

/// A running `dsearch serve` or `dsearch route` listening on an ephemeral
/// loopback port.
pub struct Server {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    stderr_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `dsearch <args> --tcp 127.0.0.1:0` and waits until it accepts
    /// connections: the port is read from the `listening on` line, then
    /// connect-polled (no sleeps).
    pub fn start(bin: &Path, mut args: Vec<String>) -> Result<Server, String> {
        args.extend(["--tcp".to_owned(), "127.0.0.1:0".to_owned()]);
        let mut child = command(bin, &args, false)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn dsearch {}: {e}", args.join(" ")))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let stderr_thread = std::thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if !sent {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        let _ = tx.send(addr.to_owned());
                        sent = true;
                    }
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            stdin,
            addr: ([127, 0, 0, 1], 0).into(),
            stderr_thread: Some(stderr_thread),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| format!("dsearch {} never reported its address", args.join(" ")))?;
        server.addr = addr.parse().map_err(|e| format!("bad address {addr:?}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while TcpStream::connect(server.addr).is_err() {
            if Instant::now() > deadline {
                return Err(format!("dsearch at {} never accepted", server.addr));
            }
            std::thread::yield_now();
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set so far, in kB.
    pub fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(self.pid()).unwrap_or(0)
    }

    /// Sends `!quit` on stdin and reaps the process (killing it after a
    /// grace period).
    pub fn stop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"!quit\n");
        }
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(3);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        if let Some(handle) = self.stderr_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        self.stop();
    }
}

/// A scratch directory inside the checkout, removed on drop (every exit path
/// that unwinds).
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes scratch directories (`<workload>-<seed>-<pid>`) left by runs
/// whose process is gone — a run killed by a signal cannot clean up after
/// itself, so the next run does.
pub fn sweep_stale(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = name.rsplit('-').next().and_then(|p| p.parse::<u32>().ok());
        if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
