//! The measurement loop, order statistics and process memory readings.

use std::time::{Duration, Instant};

/// Calls `once` repeatedly while another call as long as the last one
/// still fits in `budget` seconds, and returns the results as
/// `(untraced, traced)`. Without `trace` every call is untraced. With
/// it, calls alternate between the two, starting untraced, so both
/// halves see the same stretch of machine time; there are at least two.
/// `once` is told whether its call is a traced one.
pub fn alternate_within<T>(
    budget: f64,
    trace: bool,
    mut once: impl FnMut(bool) -> Result<T, String>,
) -> Result<(Vec<T>, Vec<T>), String> {
    let min = if trace { 2 } else { 1 };
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = 0.0;
    for n in 0.. {
        if n >= min && start.elapsed().as_secs_f64() + last > budget {
            break;
        }
        let is_traced = trace && n % 2 == 1;
        let t = Instant::now();
        let r = once(is_traced)?;
        last = t.elapsed().as_secs_f64();
        if is_traced {
            traced.push(r);
        } else {
            untraced.push(r);
        }
    }
    Ok((untraced, traced))
}

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by linear interpolation
/// between closest ranks. Returns 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest of `samples` (0 for none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Column by column, the smallest value over `rows`: with one row per
/// pass and one column per query, each query's fastest time. The same
/// query run several times is slowed only by what else the machine was
/// doing, so its fastest time is its own cost; spreading the repeats
/// over the run lets every query meet the machine's quiet moments.
/// Rows may differ in length; a column takes the rows that have it.
pub fn best_per_column(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..width)
        .map(|i| {
            rows.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `values` to three decimals, space-separated, for the notes.
pub fn list(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB. `None` when `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&v), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn best_per_column_takes_each_fastest() {
        let rows = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0]];
        assert_eq!(best_per_column(&rows), vec![2.0, 1.0, 5.0]);
        assert!(best_per_column(&[]).is_empty());
    }
}
