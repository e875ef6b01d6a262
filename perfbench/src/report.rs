//! Statistics, the box description and the result line.

use serde::Value;

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
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

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// ten samples beyond it, as (percentile, value); the median when there
/// are fewer than twenty samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let pct = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(values, pct / 100.0))
}

/// `VmHWM` (peak resident set) of a live process, in MB (10⁶ bytes).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
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
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// The box the numbers come from: core count, architecture and cache
/// sizes. A run on fewer than two cores is marked not comparable, because
/// every pass runs two workers.
pub fn hardware() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        caches.push(Value::Str(format!("L{level} {kind} {size}")));
    }
    Value::Object(vec![
        ("nproc".into(), Value::Uint(cores as u64)),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
        ("caches".into(), Value::Array(caches)),
        ("comparable".into(), Value::Bool(cores >= 2)),
    ])
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                Value::Float(m.value)
            } else {
                Value::Null
            };
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), value),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Uint(attempted)),
        ("failed".into(), Value::Uint(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("serializable result")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&many).0, 90.0);
        assert_eq!(tail(&many[..19]).0, 50.0);
        assert_eq!(tail(&(0..2000).map(f64::from).collect::<Vec<_>>()).0, 99.0);
    }
}
