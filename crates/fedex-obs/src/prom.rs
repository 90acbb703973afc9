//! Prometheus text exposition (format version 0.0.4): a small writer
//! used by the server's `GET /metrics` handler, and a validating parser
//! used by CI's `promcheck` to gate the exposition's syntax and
//! histogram consistency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::{bucket_upper, HistSnapshot, NUM_BUCKETS, SUB_BUCKETS};

/// Builder for a Prometheus text-format exposition.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

fn escape_label(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            _ => s.push(c),
        }
    }
    s
}

fn fmt_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Format a float the way Prometheus expects (plain decimal; `+Inf`
/// handled by callers).
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> Self {
        PromWriter::default()
    }

    /// Emit `# HELP` and `# TYPE` comments for a metric family.
    /// `kind` is `counter`, `gauge`, or `histogram`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emit one sample line.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(
            self.out,
            "{name}{} {}",
            fmt_labels(labels),
            fmt_value(value)
        );
    }

    /// Emit the `_bucket`/`_sum`/`_count` series of one histogram whose
    /// observations were recorded in microseconds; `le` bounds and
    /// `_sum` are converted to seconds. To keep the exposition compact,
    /// cumulative buckets are emitted only at octave boundaries of the
    /// underlying log-linear scheme (plus `+Inf`), which preserves the
    /// ≤12.5% quantile error at scrape granularity of one octave.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistSnapshot) {
        let mut cum = 0u64;
        for idx in 0..NUM_BUCKETS {
            cum += snap.counts[idx];
            let octave_top = idx >= SUB_BUCKETS && idx % SUB_BUCKETS == SUB_BUCKETS - 1;
            let small = idx == 1 || idx == 3 || idx == SUB_BUCKETS - 1;
            if !(octave_top || small) {
                continue;
            }
            let le = bucket_upper(idx) as f64 / 1e6;
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            let le_s = format!("{le}");
            ls.push(("le", le_s.as_str()));
            self.sample(&format!("{name}_bucket"), &ls, cum as f64);
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.sample(&format!("{name}_bucket"), &ls, snap.count as f64);
        self.sample(&format!("{name}_sum"), labels, snap.sum as f64 / 1e6);
        self.sample(&format!("{name}_count"), labels, snap.count as f64);
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` parses to [`f64::INFINITY`]).
    pub value: f64,
}

/// Summary of a validated exposition.
#[derive(Debug, Default)]
pub struct Exposition {
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
    /// Metric families declared via `# TYPE`, name → kind.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// Sum of all samples of `name` (across label sets). `None` when
    /// the metric is absent.
    pub fn sum(&self, name: &str) -> Option<f64> {
        let mut total = 0.0;
        let mut seen = false;
        for s in &self.samples {
            if s.name == name {
                total += s.value;
                seen = true;
            }
        }
        seen.then_some(total)
    }

    /// Value of the single sample of `name` with a matching label, if
    /// present.
    pub fn value_with(&self, name: &str, label: &str, value: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == label && v == value))
            .map(|s| s.value)
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let name = rest[..eq].trim().to_string();
        if !valid_name(&name) {
            return Err(format!("line {line_no}: bad label name {name:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, other)) => value.push(other),
                    None => return Err(format!("line {line_no}: dangling escape")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((name, value));
        rest = rest[1 + end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

fn parse_value(s: &str, line_no: usize) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: bad value {other:?}")),
    }
}

/// Parse and validate a Prometheus text exposition. Checks line syntax
/// (names, quoting, numeric values), that `# TYPE` precedes its samples,
/// and histogram consistency: bucket counts non-decreasing in `le`, a
/// `+Inf` bucket present per series, and `+Inf == _count`.
pub fn validate_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {line_no}: bad TYPE name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {line_no}: bad TYPE kind {kind:?}"));
                }
                exp.types.insert(name.to_string(), kind.to_string());
            } else if !comment.starts_with("HELP ") && !comment.is_empty() {
                // Other comments are legal and ignored.
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find('{') {
            Some(b) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unbalanced '{{'"))?;
                (&line[..b], {
                    let labels = parse_labels(&line[b + 1..close], line_no)?;
                    let tail = line[close + 1..].trim();
                    (labels, tail)
                })
            }
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| format!("line {line_no}: sample without value"))?;
                (&line[..sp], (Vec::new(), line[sp..].trim()))
            }
        };
        let (labels, tail) = rest;
        let name = name_part.trim();
        if !valid_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let mut fields = tail.split_whitespace();
        let value_s = fields
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let value = parse_value(value_s, line_no)?;
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {line_no}: bad timestamp {ts:?}"))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {line_no}: trailing junk"));
        }
        // Typed families must be declared before use (our writer always
        // does; enforce for the base name of histogram suffixes too).
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| name.strip_suffix(suf))
            .filter(|base| exp.types.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !exp.types.contains_key(base) {
            return Err(format!("line {line_no}: sample {name:?} has no # TYPE"));
        }
        exp.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    validate_histograms(&exp)?;
    Ok(exp)
}

/// Key identifying one histogram series: non-`le` labels, serialized.
fn series_key(s: &Sample) -> String {
    let mut parts: Vec<String> = s
        .labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    parts.sort();
    parts.join(",")
}

fn validate_histograms(exp: &Exposition) -> Result<(), String> {
    for (family, kind) in &exp.types {
        if kind != "histogram" {
            continue;
        }
        // series key -> (ordered bucket values, has_inf, inf value)
        let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        for s in &exp.samples {
            if s.name == format!("{family}_bucket") {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("{family}: bucket without le label"))?;
                let le = parse_value(le, 0).map_err(|e| format!("{family}: {e}"))?;
                buckets
                    .entry(series_key(s))
                    .or_default()
                    .push((le, s.value));
            } else if s.name == format!("{family}_count") {
                counts.insert(series_key(s), s.value);
            }
        }
        if buckets.is_empty() {
            return Err(format!("{family}: histogram with no _bucket samples"));
        }
        for (key, series) in &buckets {
            let mut prev = -1.0f64;
            let mut prev_count = -1.0f64;
            for &(le, v) in series {
                if le.is_finite() {
                    if le <= prev {
                        return Err(format!("{family}{{{key}}}: le bounds not increasing"));
                    }
                    prev = le;
                }
                if v < prev_count {
                    return Err(format!("{family}{{{key}}}: bucket counts decreasing"));
                }
                prev_count = v;
            }
            let inf = series
                .iter()
                .find(|(le, _)| le.is_infinite())
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{family}{{{key}}}: missing +Inf bucket"))?;
            let count = counts
                .get(key)
                .ok_or_else(|| format!("{family}{{{key}}}: missing _count"))?;
            if (inf - count).abs() > 0.0 {
                return Err(format!(
                    "{family}{{{key}}}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn writer_output_validates() {
        let h = Histogram::new();
        for v in [3u64, 12, 700, 15_000, 2_000_000] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.header("fedex_requests_total", "counter", "Total requests.");
        w.sample("fedex_requests_total", &[], 5.0);
        w.header("fedex_request_duration_seconds", "histogram", "Latency.");
        w.histogram(
            "fedex_request_duration_seconds",
            &[("cmd", "explain")],
            &h.snapshot(),
        );
        let text = w.finish();
        let exp = validate_exposition(&text).expect("valid exposition");
        assert_eq!(exp.sum("fedex_requests_total"), Some(5.0));
        assert_eq!(exp.sum("fedex_request_duration_seconds_count"), Some(5.0));
    }

    #[test]
    fn validator_rejects_torn_histograms() {
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).unwrap_err().contains("decreasing"));
        let missing_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(missing_inf)
            .unwrap_err()
            .contains("+Inf"));
    }

    #[test]
    fn validator_rejects_untyped_and_junk() {
        assert!(validate_exposition("nope 1\n").is_err());
        let bad_value = "# TYPE g gauge\ng one\n";
        assert!(validate_exposition(bad_value).is_err());
        let bad_label = "# TYPE g gauge\ng{x=unquoted} 1\n";
        assert!(validate_exposition(bad_label).is_err());
    }

    #[test]
    fn label_escaping_round_trips() {
        let mut w = PromWriter::new();
        w.header("g", "gauge", "g");
        w.sample("g", &[("path", "a\"b\\c\nd")], 1.0);
        let exp = validate_exposition(&w.finish()).expect("valid");
        assert_eq!(exp.samples[0].labels[0].1, "a\"b\\c\nd");
    }
}
