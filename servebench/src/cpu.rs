//! Per-thread CPU time, and the core clock that turns it into cycles.
//!
//! CPU time does not grow while a thread waits for a core, so other
//! processes on a shared host move it far less than wall time. Every
//! request runs inline on its client thread (the pool has one thread), so
//! the client's CPU time over a call is the call's work. What CPU time
//! still follows is the core clock, which a shared host raises and lowers
//! with its other load: on a 2-vCPU cloud VM it moved by 5–8% between runs
//! of the same code. Cycles do not, so the benchmark reports CPU time
//! times the clock rate [`clock_ghz`] measures.

use std::arch::asm;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("servebench reads the thread CPU clock of x86-64 Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// The CPU time the calling thread has used so far.
fn thread_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the platform's
    // layout (checked by the `compile_error!` gate above), the clock id is
    // a valid constant, and `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below 10^9"),
    )
}

/// A stopwatch on the calling thread's CPU clock; read it on the thread
/// that started it.
pub struct CpuTimer(Duration);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(thread_time())
    }

    pub fn elapsed_ms(&self) -> f64 {
        (thread_time() - self.0).as_secs_f64() * 1e3
    }
}

/// Iterations of [`mul_chain`] per clock sample: 1.2 million cycles,
/// about 0.4 ms.
const CHAIN_ITERS: u64 = 100_000;

/// Cycles one [`mul_chain`] iteration takes: four dependent 64-bit
/// multiplies of three cycles' latency each (on every x86-64 core of the
/// last decade); the loop counter runs beside them.
const CYCLES_PER_ITER: u64 = 12;

/// Runs `iters` iterations of a chain of dependent multiplies, whose
/// length in cycles is fixed by the multiplier's latency.
fn mul_chain(iters: u64) {
    // SAFETY: the loop touches only its two registers and the flags, and
    // its counter starts at 1 or more, so `dec` reaches zero and it ends.
    unsafe {
        asm!(
            "2:",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "dec {n}",
            "jnz 2b",
            x = inout(reg) 3u64 => _,
            n = inout(reg) iters.max(1) => _,
            options(nomem, nostack),
        );
    }
}

/// The core clock in GHz, from one fixed-length multiply chain timed on
/// the calling thread's CPU clock.
pub fn clock_ghz() -> f64 {
    let t = CpuTimer::start();
    mul_chain(CHAIN_ITERS);
    (CHAIN_ITERS * CYCLES_PER_ITER) as f64 / (t.elapsed_ms() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn counts_work_but_not_sleep() {
        let t = CpuTimer::start();
        std::thread::sleep(Duration::from_millis(50));
        assert!(t.elapsed_ms() < 25.0, "a sleep uses little CPU");

        let (t, wall) = (CpuTimer::start(), Instant::now());
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = t.elapsed_ms();
        assert!(busy > 0.0 && busy <= wall.elapsed().as_secs_f64() * 1e3 + 1.0);
    }

    #[test]
    fn clock_reads_a_core_rate() {
        let ghz = (0..20).map(|_| clock_ghz()).fold(0.0, f64::max);
        assert!((0.5..8.0).contains(&ghz), "core clock of {ghz} GHz");
    }
}
