//! CPU-time clocks.
//!
//! The end-to-end work metrics are CPU time, not wall time: the work
//! each run does is fixed, so its CPU time is what the program costs,
//! and time the host hands a vCPU to another tenant is booked as steal,
//! outside every task's CPU time, while wall time absorbs it.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_self() -> usize;
    fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, ended ones
/// included.
const PROCESS: i32 = 2;

/// A CPU-time clock of this process or of one of its threads.
#[derive(Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    /// CPU time of the whole process.
    pub fn process() -> CpuClock {
        CpuClock(PROCESS)
    }

    /// CPU time of the calling thread; other threads may read it while
    /// the calling thread lives.
    pub fn this_thread() -> CpuClock {
        let mut id = 0;
        // SAFETY: `pthread_self` is always valid for the calling thread
        // and `id` is a live out-parameter.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut id) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        CpuClock(id)
    }

    /// Seconds of CPU time consumed so far.
    pub fn now_s(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live out-parameter of the declared layout.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}
