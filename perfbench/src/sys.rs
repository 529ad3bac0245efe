//! CPU placement and resource readings through raw libc calls (the
//! workspace links no libc crate; std already links libc itself).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `cpu_set_t` on Linux: 1024 bits.
const CPU_SET_WORDS: usize = 16;

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by 14 `long`s.
#[repr(C)]
struct Rusage {
    words: [i64; 18],
}

/// Index of `ru_maxrss` (kilobytes) in [`Rusage::words`].
const RU_MAXRSS: usize = 4;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// Move the calling thread to the `SCHED_IDLE` policy: it runs only when
/// nothing else on its CPU is runnable and yields to any waking thread.
fn make_current_thread_idle_class() -> io::Result<()> {
    let priority: i32 = 0;
    // SAFETY: `priority` is a valid `struct sched_param` (one int) for the
    // duration of the call, and pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pin the calling thread to one CPU. Threads it spawns afterwards inherit
/// the placement.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "cpu index"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Peak resident set of this process so far (VmHWM), in MiB.
pub fn rss_peak_mb() -> f64 {
    let mut usage = Rusage { words: [0; 18] };
    // SAFETY: `usage` has the layout and size of `struct rusage` on 64-bit
    // Linux and is writable for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.words[RU_MAXRSS] as f64 / 1024.0
}

/// Where the load generator and the program under test run.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// CPU of the load-generating thread.
    pub client: usize,
    /// CPU of every thread of the program under test.
    pub program: usize,
    /// CPUs this process may use.
    pub nproc: usize,
}

impl Placement {
    /// Client on the first allowed CPU, program on the second; both share
    /// the only CPU on a single-CPU host.
    pub fn detect() -> io::Result<Placement> {
        let cpus = allowed_cpus()?;
        let first = *cpus
            .first()
            .ok_or_else(|| io::Error::other("no CPU allowed"))?;
        Ok(Placement {
            client: first,
            program: *cpus.get(1).unwrap_or(&first),
            nproc: cpus.len(),
        })
    }

    /// The placement as the result's info line records it.
    pub fn describe(&self, workload: &str) -> String {
        if workload.starts_with("serve") {
            format!(
                "load generator on cpu {}, server threads on cpu {}",
                self.client, self.program
            )
        } else {
            format!(
                "one thread on cpu {}: inputs drawn between ops, outside the timed region",
                self.program
            )
        }
    }
}

/// A `SCHED_IDLE` thread spinning on one CPU, so that the CPU never halts
/// while the threads placed there wait for a request. On a virtual machine
/// a halted CPU is woken through the hypervisor, which adds a delay that
/// depends on the host's load rather than on the program. The spinner runs
/// only when nothing else on the CPU is runnable and yields at once to any
/// thread that wakes. Dropping it stops and joins the thread.
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IdleSpinner {
    pub fn start(cpu: usize) -> io::Result<IdleSpinner> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("perfbench-idle".into())
            .spawn(move || {
                let placed =
                    pin_current_thread(cpu).and_then(|()| make_current_thread_idle_class());
                let ok = placed.is_ok();
                let _ = ready_tx.send(placed);
                // Relaxed: the flag publishes no other data.
                while ok && !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })?;
        let mut spinner = IdleSpinner {
            stop,
            thread: Some(thread),
        };
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(spinner),
            Ok(Err(e)) => Err(e),
            Err(_) => {
                spinner.thread.take();
                Err(io::Error::other("idle spinner exited before starting"))
            }
        }
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
