//! Order statistics, process memory, and readers for the server's
//! `/metrics` exports (JSON snapshot and Prometheus text).

use quma_serve::prelude::Json;

/// The `q` quantile of `values` (linear interpolation between order
/// statistics); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
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
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// An integer at `path` in a JSON document (0 when absent).
pub fn json_u64(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The cumulative `_bucket` series of an unlabelled Prometheus histogram
/// family, as `(upper bound in seconds, count)` pairs (`+Inf` last).
fn prom_buckets(text: &str, family: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{family}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// The `q` quantile of a Prometheus histogram, interpolated linearly
/// inside its bucket as `histogram_quantile` does, in seconds; 0 when
/// the histogram is empty.
pub fn prom_quantile(text: &str, family: &str, q: f64) -> f64 {
    let buckets = prom_buckets(text, family);
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    if total == 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut lower = (0.0, 0.0);
    for &(le, count) in &buckets {
        if count >= rank {
            if le.is_infinite() {
                return lower.0;
            }
            let width = count - lower.1;
            let frac = if width > 0.0 {
                (rank - lower.1) / width
            } else {
                1.0
            };
            return lower.0 + (le - lower.0) * frac;
        }
        lower = (le, count);
    }
    lower.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn prometheus_quantile_interpolates_inside_the_bucket() {
        let text =
            "x_bucket{le=\"0.001\"} 0\nx_bucket{le=\"0.002\"} 10\nx_bucket{le=\"+Inf\"} 10\n";
        assert!((prom_quantile(text, "x", 0.5) - 0.0015).abs() < 1e-12);
        assert_eq!(prom_quantile("", "x", 0.5), 0.0);
    }
}
