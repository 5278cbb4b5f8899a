//! Idle-priority spinner threads that keep the vCPUs from halting.
//!
//! On a VM, a vCPU with nothing to run halts, and the next wake-up waits
//! until the host schedules it again. The host counts that wait as
//! steal. On the 2-vCPU reference VM it made up most of the steal the
//! benchmark saw: in back-to-back `fig1_exchange` runs during a busy
//! period, the median tick's steal read 33 % without spinners and 0 %
//! with them. One `SCHED_IDLE` thread per vCPU runs only when no other
//! thread is runnable, so every thread of the program preempts it at
//! once; it adds no work to the program and its CPU time is kept apart.

use std::ffi::c_void;
use std::os::unix::thread::RawPthread;
use std::sync::atomic::{AtomicBool, Ordering};

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn pthread_create(
        thread: *mut RawPthread,
        attr: *const c_void,
        start: extern "C" fn(*mut c_void) -> *mut c_void,
        arg: *mut c_void,
    ) -> i32;
    fn pthread_join(thread: RawPthread, ret: *mut *mut c_void) -> i32;
    fn pthread_getcpuclockid(thread: RawPthread, clock: *mut i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// Set once to stop every spinner of the process.
static STOP: AtomicBool = AtomicBool::new(false);

/// A spinner's body. It calls no allocator, so it never ties itself to
/// a malloc arena the program's threads would otherwise use; it runs on
/// a raw pthread, not `std::thread`, because a Rust thread allocates
/// when it starts.
extern "C" fn spin(_: *mut c_void) -> *mut c_void {
    // SAFETY: pid 0 names the calling thread, and the parameter outlives
    // the call; SCHED_IDLE needs no privilege and takes priority 0. On
    // failure the thread stays at normal priority, which `start` sees
    // through the returned flag.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
    if rc != 0 {
        return std::ptr::null_mut::<c_void>().wrapping_add(1);
    }
    while !STOP.load(Ordering::Relaxed) {
        for _ in 0..1000 {
            std::hint::spin_loop();
        }
    }
    std::ptr::null_mut()
}

/// Running spinner threads.
pub struct Spinners {
    threads: Vec<RawPthread>,
    clocks: Vec<i32>,
}

impl Spinners {
    /// Starts one spinner per vCPU the process may use, or none when
    /// `enabled` is false. Once per process: stopping them is for good.
    pub fn start(enabled: bool) -> Spinners {
        let n = if enabled {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            0
        };
        let mut threads = Vec::with_capacity(n);
        let mut clocks = Vec::with_capacity(n);
        for _ in 0..n {
            let mut thread: RawPthread = 0;
            let mut clock = 0;
            // SAFETY: `thread` is writable, default attributes are asked
            // for with a null pointer, and `spin` takes no argument; the
            // thread is joined in `stop`, so its id stays valid for
            // `pthread_getcpuclockid` until then.
            unsafe {
                assert_eq!(
                    pthread_create(&mut thread, std::ptr::null(), spin, std::ptr::null_mut()),
                    0,
                    "pthread_create failed"
                );
                assert_eq!(
                    pthread_getcpuclockid(thread, &mut clock),
                    0,
                    "pthread_getcpuclockid failed"
                );
            }
            threads.push(thread);
            clocks.push(clock);
        }
        Spinners { threads, clocks }
    }

    /// Spinners running.
    pub fn count(&self) -> usize {
        self.threads.len()
    }

    /// CPU time the spinners have used, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.clocks.iter().map(|&c| crate::stats::clock_ns(c)).sum()
    }

    /// Process CPU time less the spinners', in nanoseconds.
    pub fn program_cpu_ns(&self) -> u64 {
        let spun = self.cpu_ns();
        crate::stats::process_cpu_ns().saturating_sub(spun)
    }

    /// Stops and joins every spinner.
    pub fn stop(self) {
        STOP.store(true, Ordering::Relaxed);
        for t in self.threads {
            let mut ret = std::ptr::null_mut();
            // SAFETY: `t` was created joinable and is joined once.
            let rc = unsafe { pthread_join(t, &mut ret) };
            assert_eq!(rc, 0, "pthread_join failed");
            assert!(ret.is_null(), "sched_setscheduler(SCHED_IDLE) failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    #[test]
    fn spinners_yield_to_work_and_keep_their_cpu_apart() {
        let spin = Spinners::start(true);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let spun = spin.cpu_ns();
        assert!(spun > 0);
        // A normal-priority thread preempts the spinners: a fixed loop
        // gets (nearly) a whole vCPU while they spin.
        let (wall, cpu) = std::thread::spawn(|| {
            let t0 = std::time::Instant::now();
            let c0 = crate::stats::clock_ns(CLOCK_THREAD_CPUTIME_ID);
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
            (
                t0.elapsed().as_nanos() as f64,
                (crate::stats::clock_ns(CLOCK_THREAD_CPUTIME_ID) - c0) as f64,
            )
        })
        .join()
        .unwrap();
        assert!(cpu > 0.5 * wall, "worker ran {cpu} ns of {wall} ns");
        assert!(spin.program_cpu_ns() <= crate::stats::process_cpu_ns());
        spin.stop();
    }
}
