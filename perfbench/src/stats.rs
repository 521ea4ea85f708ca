//! Percentiles, per-window medians and open-loop lateness accounting.

use crate::calib::Meter;
use std::time::{Duration, Instant};

/// The nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank quantile `q` (0 < q <= 1) of already sorted samples.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q)]
}

/// How many of `n` samples lie beyond the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Requests a window needs, so ten lie beyond its 99th percentile.
pub const MIN_WINDOW_SAMPLES: usize = 1_000;

/// One window of a run: the latencies of the requests that completed in
/// it (failures read `u64::MAX`), the wall and CPU time it took, and the
/// host's speed beside it.
#[derive(Debug, Clone)]
pub struct Window {
    /// Latencies in ns, failures as `u64::MAX`.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the window.
    pub wall: Duration,
    /// CPU time charged to the window.
    pub cpu: Duration,
    /// The host's speed over the window (see [`crate::calib`]): times
    /// are multiplied by it, rates divided.
    pub speed: f64,
}

/// A run's figures: each is the median, over the run's windows, of that
/// window's own figure, scaled by the window's host speed. A burst of
/// interference from outside the process moves a few windows and hardly
/// moves their median; a slow spell of the host slows the reference as
/// well, and the scaling takes it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the windows' median latencies, µs.
    pub p50_us: f64,
    /// Median of the windows' 90th-percentile latencies, µs.
    pub p90_us: f64,
    /// Median of the windows' 99th-percentile latencies, µs.
    pub p99_us: f64,
    /// Median of the windows' CPU per completed request, µs.
    pub cpu_us_per_req: f64,
    /// Median of the windows' completed requests per wall second.
    pub per_s: f64,
    /// Requests summarised, over all windows.
    pub samples: usize,
    /// Windows summarised.
    pub windows: usize,
    /// The fewest samples beyond the p99 in any window.
    pub p99_beyond: usize,
    /// Median host speed over the windows.
    pub speed: f64,
    /// Median of the windows' median latencies as measured, unscaled, µs.
    pub raw_p50_us: f64,
    /// Median of the windows' CPU per request as measured, unscaled, µs.
    pub raw_cpu_us_per_req: f64,
    /// Scaled median latency over the last third of the windows ÷ that
    /// over the first third: above 1 when the program slows as it runs.
    pub p50_drift: f64,
}

/// Summarise a run's windows.
pub fn summarize(windows: &[Window]) -> Summary {
    let (mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut rate) = (Vec::new(), Vec::new());
    let (mut speed, mut raw_p50, mut raw_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    let mut p99_beyond = usize::MAX;
    for w in windows.iter().filter(|w| !w.latencies_ns.is_empty()) {
        let mut sorted = w.latencies_ns.clone();
        sorted.sort_unstable();
        let completed = sorted.iter().filter(|&&l| l != u64::MAX).count();
        let us = |q: f64| percentile(&sorted, q) as f64 / 1e3;
        let cpu_us = w.cpu.as_secs_f64() * 1e6 / completed.max(1) as f64;
        p50.push(us(0.50) * w.speed);
        p90.push(us(0.90) * w.speed);
        p99.push(us(0.99) * w.speed);
        cpu.push(cpu_us * w.speed);
        rate.push(completed as f64 / w.wall.as_secs_f64().max(1e-9) / w.speed);
        speed.push(w.speed);
        raw_p50.push(us(0.50));
        raw_cpu.push(cpu_us);
        samples += sorted.len();
        p99_beyond = p99_beyond.min(beyond(sorted.len(), 0.99));
    }
    Summary {
        p50_us: median(&p50),
        p90_us: median(&p90),
        p99_us: median(&p99),
        cpu_us_per_req: median(&cpu),
        per_s: median(&rate),
        samples,
        windows: p50.len(),
        p99_beyond: if p50.is_empty() { 0 } else { p99_beyond },
        speed: median(&speed),
        raw_p50_us: median(&raw_p50),
        raw_cpu_us_per_req: median(&raw_cpu),
        p50_drift: drift(&p50),
    }
}

/// The median of the last third of `series` ÷ that of the first third;
/// 1 with fewer than three values.
fn drift(series: &[f64]) -> f64 {
    let third = series.len() / 3;
    if third == 0 {
        return 1.0;
    }
    let first = median(&series[..third]);
    let last = median(&series[series.len() - third..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Cuts a closed-loop run into windows of at least `length` wall time
/// and at least [`MIN_WINDOW_SAMPLES`] requests, each closed at a request
/// boundary. Host-speed slices run between requests; their time is taken
/// out of the window's.
pub struct Windows {
    meter: Meter,
    length: Duration,
    started: Instant,
    cpu0: Duration,
    current: Vec<u64>,
    done: Vec<Window>,
}

impl Windows {
    /// Start the first window now.
    pub fn new(length: Duration) -> Windows {
        Windows {
            meter: Meter::new(),
            length,
            started: Instant::now(),
            cpu0: crate::sys::process_cpu(),
            current: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Record one request's latency (`u64::MAX` for a failure), run a
    /// host-speed slice if one is due, and close the window if it has run
    /// its length.
    pub fn record(&mut self, latency_ns: u64) {
        self.current.push(latency_ns);
        self.meter.tick();
        if self.current.len() >= MIN_WINDOW_SAMPLES && self.started.elapsed() >= self.length {
            self.close();
        }
    }

    fn close(&mut self) {
        let reading = self.meter.take();
        let wall = self.started.elapsed().saturating_sub(reading.wall);
        let cpu = crate::sys::process_cpu()
            .saturating_sub(self.cpu0)
            .saturating_sub(reading.cpu);
        self.done.push(Window {
            latencies_ns: std::mem::take(&mut self.current),
            wall,
            cpu,
            speed: reading.speed,
        });
        self.started = Instant::now();
        self.cpu0 = crate::sys::process_cpu();
    }

    /// The closed windows; a final window shorter than half the length
    /// joins the one before it.
    pub fn finish(mut self) -> Vec<Window> {
        if !self.current.is_empty() {
            let short = self.started.elapsed() < self.length / 2;
            self.close();
            if short && self.done.len() > 1 {
                let last = self.done.pop().expect("len > 1");
                let prev = self.done.last_mut().expect("len > 0");
                prev.latencies_ns.extend(last.latencies_ns);
                prev.wall += last.wall;
                prev.cpu += last.cpu;
                prev.speed = (prev.speed + last.speed) / 2.0;
            }
        }
        self.done
    }
}

/// Lateness of an open-loop generator: how far behind its schedule each
/// send happened.
#[derive(Debug, Default, Clone)]
pub struct Lateness {
    late_ns: Vec<u64>,
}

impl Lateness {
    /// Record one send that went out `late_ns` after it was due.
    pub fn record(&mut self, late_ns: u64) {
        self.late_ns.push(late_ns);
    }

    /// Add another phase's sends.
    pub fn merge(&mut self, other: &Lateness) {
        self.late_ns.extend_from_slice(&other.late_ns);
    }

    /// `(p50, p99, max)` lateness in nanoseconds.
    pub fn summary(&self) -> (u64, u64, u64) {
        let mut v = self.late_ns.clone();
        v.sort_unstable();
        (
            percentile(&v, 0.50),
            percentile(&v, 0.99),
            v.last().copied().unwrap_or(0),
        )
    }
}

/// The schedule of an open loop at `rate` per second: request `k` is due
/// `k / rate` seconds after the phase starts, in nanoseconds.
pub fn due_ns(k: u64, rate: u64) -> u64 {
    ((k as u128 * 1_000_000_000u128) / rate.max(1) as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn window(latencies: Vec<u64>, wall_ms: u64, cpu_ms: u64) -> Window {
        Window {
            latencies_ns: latencies,
            wall: Duration::from_millis(wall_ms),
            cpu: Duration::from_millis(cpu_ms),
            speed: 1.0,
        }
    }

    #[test]
    fn figures_are_medians_over_windows() {
        // Three windows of 1000 requests; the middle one is stalled.
        let quiet = || window(vec![100_000; 1000], 1000, 500);
        let stalled = window(vec![900_000; 1000], 3000, 1500);
        let s = summarize(&[quiet(), stalled, quiet()]);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.p90_us, 100.0);
        assert_eq!(s.p99_us, 100.0);
        assert_eq!(s.cpu_us_per_req, 500.0);
        assert_eq!(s.per_s, 1000.0);
        assert_eq!((s.samples, s.windows, s.p99_beyond), (3000, 3, 10));
        assert_eq!(s.p50_drift, 1.0);
        let slower = window(vec![150_000; 1000], 1000, 500);
        assert_eq!(summarize(&[quiet(), quiet(), slower]).p50_drift, 1.5);
    }

    #[test]
    fn a_slow_host_is_scaled_back_to_the_reference() {
        // The host ran at half speed: times double, the reference too.
        let mut slow = window(vec![200_000; 1000], 2000, 1000);
        slow.speed = 0.5;
        let s = summarize(&[slow]);
        assert_eq!(
            (s.p50_us, s.cpu_us_per_req, s.per_s),
            (100.0, 500.0, 1000.0)
        );
        assert_eq!(
            (s.raw_p50_us, s.raw_cpu_us_per_req, s.speed),
            (200.0, 1000.0, 0.5)
        );
    }

    #[test]
    fn failures_miss_every_limit_and_are_not_completions() {
        let mut lat = vec![100_000u64; 990];
        lat.extend(std::iter::repeat_n(u64::MAX, 10));
        let s = summarize(&[window(lat, 1000, 99)]);
        assert_eq!(s.p99_us, 100.0);
        assert_eq!(s.per_s, 990.0);
        assert_eq!(s.cpu_us_per_req, 100.0);
        let mut lat = vec![100_000u64; 980];
        lat.extend(std::iter::repeat_n(u64::MAX, 20));
        assert_eq!(
            summarize(&[window(lat, 1000, 0)]).p99_us,
            u64::MAX as f64 / 1e3
        );
    }

    #[test]
    fn a_short_last_window_joins_the_one_before() {
        let mut w = Windows::new(Duration::from_millis(20));
        for _ in 0..MIN_WINDOW_SAMPLES {
            w.record(1);
        }
        std::thread::sleep(Duration::from_millis(25));
        w.record(2); // closes the first window: long enough, full enough
        w.record(3); // a short tail
        let done = w.finish();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latencies_ns.len(), MIN_WINDOW_SAMPLES + 2);
        assert_eq!(done[0].latencies_ns[MIN_WINDOW_SAMPLES..], [2, 3]);
    }

    #[test]
    fn lateness_summary_is_p50_p99_max() {
        let mut l = Lateness::default();
        l.record(0);
        l.record(0);
        l.record(500);
        assert_eq!(l.summary(), (0, 500, 500));
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(due_ns(0, 1000), 0);
        assert_eq!(due_ns(1, 1000), 1_000_000);
        assert_eq!(due_ns(3, 4000), 750_000);
    }
}
