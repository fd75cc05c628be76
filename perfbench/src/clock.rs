//! Host clocks: process CPU time, peak resident set, and the drift probe.
//!
//! Every host time the benchmark reports is CPU time of this process, read
//! through `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Wall clock is used
//! only to bound how long a run measures.

use std::hint::black_box;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by this process so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `f` and returns its result with the CPU nanoseconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = cpu_ns();
    let out = f();
    (out, cpu_ns() - t0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Host-drift probe: CPU nanoseconds of a fixed integer loop that touches
/// no repository code, best of five. Taken at the start and at the end of
/// every run, it marks runs made during a slow host phase.
pub fn calib_ns() -> f64 {
    (0..5)
        .map(|_| {
            let (_, ns) = cpu_timed(|| {
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for _ in 0..1_000_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                black_box(x)
            });
            ns as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Entries in the yardstick's table: 256 KiB of `u64`, which the core's
/// own cache holds, as it holds the simulator's hot working set.
const YARD_TABLE: usize = 1 << 15;
/// Independent chains the yardstick advances together.
const YARD_LANES: usize = 4;
/// Steps one measurement takes (each advances every chain), about 3 ms of
/// CPU on an uncontended host.
const YARD_STEPS: u32 = 500_000;

/// The host yardstick: a fixed integer loop that advances four independent
/// chains (a table load, a multiply-rotate hash and a table store each per
/// step) through a table the size of the core's cache. It calls no
/// repository code, so no change to the program moves it; what moves it is
/// how fast the host runs this process right now: clock speed, and how much
/// of the core neighbouring tenants take. Timed next to every round, it
/// lets the end-to-end times be reported per unit of host speed (see
/// `perfbench/README.md`).
///
/// Like the simulator, it keeps several execution units busy at once, so a
/// tenant on the same physical core should slow it much as it slows the
/// simulator; `calib_ns`'s single serial chain hardly feels such a tenant.
///
/// It has no data-dependent branch and no table the cache cannot hold. A
/// binary-heap calendar shifted by up to 9% from one process to the next
/// with identical work. Chases through 1 MiB and 4 MiB tables slowed by 24%
/// and 120–140% when another process shared the CPU, while the simulator's
/// rounds slowed by under 1%. This loop repeats within 1% in both cases.
pub struct Yardstick {
    table: Vec<u64>,
    lanes: [u64; YARD_LANES],
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// A yardstick with its table filled.
    pub fn new() -> Yardstick {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..YARD_TABLE)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Yardstick {
            table,
            lanes: [1, 2, 3, 4],
        }
    }

    /// CPU nanoseconds of one fixed batch of yardstick steps.
    pub fn measure(&mut self) -> u64 {
        // Bring the table back into cache untimed: the round before has
        // evicted it, and that reload is not host speed.
        black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let (table, lanes) = (&mut self.table, &mut self.lanes);
        cpu_timed(|| churn(table, YARD_STEPS, lanes)).1
    }
}

/// `steps` rounds of the yardstick's chains through `table` (a power-of-two
/// length): each chain loads a slot its state picks, hashes the value into
/// its state and stores into another slot.
fn churn(table: &mut [u64], steps: u32, lanes: &mut [u64; YARD_LANES]) {
    let mask = table.len() - 1;
    for _ in 0..steps {
        for l in lanes.iter_mut() {
            let v = table[(*l >> 40) as usize & mask];
            *l = (*l ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            table[*l as usize & mask] = v.wrapping_add(*l);
        }
    }
    black_box(lanes);
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_and_rss_is_positive() {
        let a = cpu_ns();
        black_box(calib_ns());
        assert!(cpu_ns() > a);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn yardstick_takes_cpu_time_and_keeps_its_table() {
        let mut y = Yardstick::new();
        let before = y.table.len();
        assert!(y.measure() > 0);
        assert!(y.measure() > 0);
        assert_eq!(y.table.len(), before);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }
}
