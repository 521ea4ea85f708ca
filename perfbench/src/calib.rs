//! The host-speed reference: slices of fixed work, independent of the
//! program, run between the workload's requests throughout every
//! measurement window.
//!
//! A shared virtual machine's speed wanders by a fifth or more over
//! minutes as other tenants load the physical cores, and it moves CPU
//! time as much as wall time. Each window's figures are scaled by how
//! fast the reference ran in that window, so two runs minutes apart
//! compare the program and not the host: a time in reference-scaled µs
//! is what it would read on a host where one slice takes
//! [`NOMINAL_SLICE_NS`] of CPU.
//!
//! A slice does the kinds of work the program does (string formatting,
//! small allocations, ordered-map inserts and lookups, sorting, and
//! scattered reads over a working set between the L2 and L3 sizes). It is
//! timed by its thread's CPU clock, so a server thread that preempts it
//! is not counted, and it runs at most once per [`SLICE_EVERY`], so it
//! samples the host at the same moments as the requests around it. It
//! uses only the standard library and this file: no change to the
//! program moves it.

use crate::sys;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One slice's CPU time on the nominal host, ns: a rounded reading from
/// the 2-vCPU Xeon VM the benchmark was built on. Only the scale of the
/// reported figures depends on it.
pub const NOMINAL_SLICE_NS: f64 = 80_000.0;

/// The least wall time between two slices.
pub const SLICE_EVERY: Duration = Duration::from_millis(2);

/// Slices a reading needs; a window with fewer runs the rest at its end.
const MIN_SLICES: u32 = 16;

/// Keys a slice formats, inserts and looks up.
const KEYS: u64 = 48;
/// The scattered-read working set, in `u64` slots (512 KiB), and the
/// reads a slice makes in it.
const TABLE_SLOTS: u64 = 1 << 16;
const READS: u64 = 4_000;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One slice of the fixed work over `table`; returns a value so nothing
/// is elided.
fn work(table: &[u64]) -> u64 {
    let key = |i: u64| format!("node{:02}.site{}/{}", i % 97, i % 7, mix(i) % 10_000);
    let map: BTreeMap<String, u64> = (0..KEYS).map(|i| (key(i), i)).collect();
    let mut acc = (0..KEYS).fold(0u64, |acc, i| acc.wrapping_add(map[&key(i)]));
    let mut v: Vec<u64> = (0..4 * KEYS).map(mix).collect();
    v.sort_unstable();
    acc = acc.wrapping_add(v[v.len() / 2]);
    // Each read's address depends on the one before, as in a walk over
    // linked data.
    let mut at = 0u64;
    for i in 0..READS {
        at = mix(at ^ i) % TABLE_SLOTS;
        acc = acc.wrapping_add(table[at as usize]);
    }
    acc
}

/// The scattered-read working set.
fn table() -> Vec<u64> {
    (0..TABLE_SLOTS).map(mix).collect()
}

/// The host's speed over one window, and what its slices cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Nominal slice CPU ÷ measured slice CPU: below 1 when the host ran
    /// slow. Times are multiplied by it, rates divided.
    pub speed: f64,
    /// Wall time the slices took, to take out of the window's.
    pub wall: Duration,
    /// CPU time the slices took, to take out of the window's.
    pub cpu: Duration,
}

/// Runs slices through a window and reads the host's speed from them.
#[derive(Debug)]
pub struct Meter {
    table: Vec<u64>,
    cpu: Duration,
    wall: Duration,
    slices: u32,
    last: Instant,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}

impl Meter {
    /// A meter with no slices yet.
    pub fn new() -> Meter {
        Meter {
            table: table(),
            cpu: Duration::ZERO,
            wall: Duration::ZERO,
            slices: 0,
            last: Instant::now(),
        }
    }

    /// Run a slice if [`SLICE_EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= SLICE_EVERY {
            self.slice();
        }
    }

    /// Run one slice now.
    pub fn slice(&mut self) {
        let (cpu0, wall0) = (sys::thread_cpu(), Instant::now());
        black_box(work(&self.table));
        self.cpu += sys::thread_cpu().saturating_sub(cpu0);
        self.wall += wall0.elapsed();
        self.slices += 1;
        self.last = Instant::now();
    }

    /// The reading since the last one (topped up to [`MIN_SLICES`]),
    /// and start the next.
    pub fn take(&mut self) -> Reading {
        while self.slices < MIN_SLICES {
            self.slice();
        }
        let mean_ns = self.cpu.as_nanos() as f64 / f64::from(self.slices);
        let reading = Reading {
            speed: NOMINAL_SLICE_NS / mean_ns.max(1.0),
            wall: self.wall,
            cpu: self.cpu,
        };
        self.cpu = Duration::ZERO;
        self.wall = Duration::ZERO;
        self.slices = 0;
        reading
    }
}

/// The host's speed now, from `n` back-to-back slices: for work that
/// runs no slices of its own, such as set-up.
pub fn speed_now(n: u32) -> f64 {
    let mut meter = Meter::new();
    for _ in 0..n {
        meter.slice();
    }
    meter.take().speed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_takes_at_least_the_minimum_slices() {
        let t = table();
        assert_eq!(work(&t), work(&t), "the same work every slice");
        let mut m = Meter::new();
        m.tick();
        let r = m.take();
        assert!(r.speed > 0.0 && r.speed.is_finite());
        assert!(r.cpu > Duration::ZERO && r.wall >= r.cpu / 2);
        assert_eq!(m.slices, 0, "take starts the next reading");
        // Each slice is tens of µs of CPU on any plausible host.
        let mean = r.cpu / MIN_SLICES;
        assert!(mean > Duration::from_micros(1) && mean < Duration::from_millis(50));
    }

    #[test]
    fn ticks_are_spaced() {
        let mut m = Meter::new();
        m.slice();
        m.tick();
        assert_eq!(m.slices, 1, "a tick right after a slice runs none");
        std::thread::sleep(SLICE_EVERY);
        m.tick();
        assert_eq!(m.slices, 2);
    }
}
