//! Sample statistics and process resources.

use std::time::Instant;

/// Exact percentile `p` (0..=100) of `samples`, by linear interpolation
/// between the two nearest order statistics. `samples` need not be
/// sorted; an empty slice gives 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One completed operation of a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_s: f64,
    /// Items it completed correctly (0 when it failed).
    pub items: u64,
}

/// The median over a run's rounds of `stat` applied to each round's
/// samples; rounds without samples are skipped.
///
/// Other tenants slow the benchmark host down for stretches of a run:
/// in one series of ten 45-s runs, one run's 90th percentile read twice
/// the others'. A disturbance that covers fewer than half of the rounds
/// does not move the median of the rounds.
pub fn median_over_rounds(rounds: &[Vec<Sample>], stat: impl Fn(&[Sample]) -> f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| stat(r))
        .collect();
    median(&per_round)
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds the process has used so far, in every thread, exited
/// ones included (`utime + stime` of `/proc/self/stat`, in the kernel's
/// 100 Hz user ticks). Unlike wall time, it does not grow while the
/// hypervisor runs other tenants on this host's CPUs.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces:
    // state is the first, utime the 12th and stime the 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_over_rounds_ignores_a_disturbance_in_a_minority_of_rounds() {
        // Five rounds; the last two run 10x slower.
        let rounds: Vec<Vec<Sample>> = (0..5)
            .map(|r| {
                let latency_s = if r >= 3 { 10.0 } else { 1.0 };
                vec![
                    Sample {
                        latency_s,
                        items: 1
                    };
                    20
                ]
            })
            .collect();
        let max = |w: &[Sample]| w.iter().map(|s| s.latency_s).fold(0.0, f64::max);
        assert_eq!(median_over_rounds(&rounds, max), 1.0);
        // An empty round is skipped.
        let sparse = vec![
            Vec::new(),
            vec![Sample {
                latency_s: 3.0,
                items: 1,
            }],
        ];
        assert_eq!(median_over_rounds(&sparse, max), 3.0);
    }
}
