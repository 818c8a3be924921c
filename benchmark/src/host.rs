//! Facts about the host and the process, recorded next to the numbers.

use crate::json::Json;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A field of `/proc/self/status` in kB.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line a command prints, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| String::from("unknown"))
}

pub fn facts() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| String::from("unknown"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::object(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "git_head",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("timestamp_unix_s", Json::Num(timestamp as f64)),
    ])
}

/// Keeps the CPUs from going idle while a workload runs: one spinning thread
/// per CPU in the `SCHED_IDLE` class, which the kernel runs only when nothing
/// else wants the CPU and pre-empts the moment something does.
///
/// The host is a virtual machine on a shared box. A vCPU that goes idle
/// halts, the box gives its core to a neighbour, and the next op finds the
/// core's caches cold and pays the neighbours' scheduling to get it back. The
/// program sleeps between the thread hops of every warm op, so its latencies
/// then measure how busy the neighbours are: alternating runs over a loud
/// phase of the host spread by 29% (`warm-loop`) and 37% (`wire-mixed`) of
/// their median without these threads and by 15% and 25% with them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// `struct sched_param` of `sched.h`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `SCHED_IDLE` of `sched.h` (Linux).
const SCHED_IDLE: i32 = 5;

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` outlives the call, which only reads it;
                    // pid 0 names the calling thread.
                    let refused = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0;
                    if refused {
                        // A spinner at normal priority would take a CPU from
                        // the program: better none.
                        eprintln!("SCHED_IDLE refused: the CPUs are left to idle");
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A spinner cannot panic; there is nothing to propagate.
            let _ = thread.join();
        }
    }
}
