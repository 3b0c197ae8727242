//! Order statistics and process memory.

/// The `q`-quantile of `values` by nearest rank (`q` in `0..=1`), or 0
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle pair for an even
/// count), or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
