//! Visualizations for explanations.
//!
//! The paper renders explanations as Matplotlib charts inside notebooks;
//! this crate produces the same information as a structured [`Chart`]
//! (serializable to JSON) plus a Unicode bar-chart renderer for terminals.
//! Exceptionality explanations use a side-by-side before/after bar chart
//! (Fig. 2a); diversity explanations use a bar chart of the aggregated
//! value per set-of-rows with a mean line (Fig. 2b).
//!
//! Every renderer appends to a caller's buffer (`write_*`); the
//! `String`-returning forms are one-buffer wrappers around them, so a
//! serving layer can build a whole reply without intermediate strings.

use std::fmt::Write as _;

use crate::pipeline::StageReport;

/// Widest chart a caller may ask to render. The text grows with `width`
/// times the number of bars, so an unbounded width lets one request
/// allocate until the process aborts; the CLI and the server both refuse
/// anything wider.
pub const MAX_WIDTH: usize = 1_000;

/// Chart flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartKind {
    /// Before/after frequency bars (exceptionality explanations).
    BeforeAfterBars,
    /// One value bar per set with an overall-mean rule (diversity
    /// explanations).
    ValueBars,
}

/// One bar of a chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Category label (the set-of-rows label).
    pub label: String,
    /// Primary value: frequency-before (%) or the aggregated value.
    pub value: f64,
    /// Secondary value for before/after charts: frequency-after (%).
    pub after: Option<f64>,
    /// Whether this is the explained set `R` (drawn highlighted/green).
    pub highlighted: bool,
}

/// A complete captioned chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    /// Chart flavor.
    pub kind: ChartKind,
    /// X-axis label (the partition attribute).
    pub x_label: String,
    /// Y-axis label (frequency % or the aggregate description).
    pub y_label: String,
    /// Bars in display order.
    pub bars: Vec<Bar>,
    /// Overall mean rule (diversity charts).
    pub mean_line: Option<f64>,
}

impl Chart {
    /// Approximate heap size in bytes: labels and bars.
    pub fn approx_bytes(&self) -> usize {
        self.x_label.len()
            + self.y_label.len()
            + self
                .bars
                .iter()
                .map(|b| std::mem::size_of::<Bar>() + b.label.len())
                .sum::<usize>()
    }

    /// Render as a Unicode horizontal bar chart, `width` cells wide.
    pub fn render_text(&self, width: usize) -> String {
        let mut out = String::new();
        self.write_text(&mut out, width);
        out
    }

    /// Append [`Chart::render_text`]'s output to `out`.
    pub fn write_text(&self, out: &mut String, width: usize) {
        let width = width.max(10);
        let label_w = self
            .bars
            .iter()
            .map(|b| b.label.chars().count())
            .max()
            .unwrap_or(0)
            .min(24);
        let mut lo = 0.0f64;
        let mut hi = f64::MIN;
        for b in &self.bars {
            lo = lo.min(b.value).min(b.after.unwrap_or(b.value));
            hi = hi.max(b.value).max(b.after.unwrap_or(b.value));
        }
        if let Some(m) = self.mean_line {
            lo = lo.min(m);
            hi = hi.max(m);
        }
        if hi <= lo {
            hi = lo + 1.0;
        }
        let span = hi - lo;
        // A bar of `v` as `|cells  |`: `width` cells between the rules.
        let bar = |out: &mut String, cell: char, v: f64| {
            let n = (((v - lo) / span) * width as f64).round() as usize;
            out.push('|');
            out.extend(std::iter::repeat_n(cell, n));
            out.extend(std::iter::repeat_n(' ', width.saturating_sub(n)));
            out.push('|');
        };

        let _ = writeln!(out, "{} by {}", self.y_label, self.x_label);
        for b in &self.bars {
            let mark = if b.highlighted { '▶' } else { ' ' };
            match self.kind {
                ChartKind::BeforeAfterBars => {
                    let after = b.after.unwrap_or(0.0);
                    let _ = write!(out, "{mark}{:label_w$} before ", b.label);
                    bar(out, '█', b.value);
                    let _ = writeln!(out, " {:.1}%", b.value);
                    let _ = write!(out, " {:label_w$} after  ", "");
                    bar(out, '▓', after);
                    let _ = writeln!(out, " {after:.1}%");
                }
                ChartKind::ValueBars => {
                    let _ = write!(out, "{mark}{:label_w$} ", b.label);
                    bar(out, '█', b.value);
                    let _ = writeln!(out, " {:.3}", b.value);
                }
            }
        }
        if let Some(m) = self.mean_line {
            let _ = writeln!(out, " {:label_w$} mean = {:.3}", "", m);
        }
    }

    /// Serialize the chart to a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append [`Chart::to_json`]'s output to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str(match self.kind {
            ChartKind::BeforeAfterBars => "{\"kind\":\"before_after_bars\",\"x_label\":",
            ChartKind::ValueBars => "{\"kind\":\"value_bars\",\"x_label\":",
        });
        write_json_string(out, &self.x_label);
        out.push_str(",\"y_label\":");
        write_json_string(out, &self.y_label);
        out.push_str(",\"mean_line\":");
        write_json_number(out, self.mean_line.unwrap_or(f64::NAN));
        out.push_str(",\"bars\":[");
        for (i, b) in self.bars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            write_json_string(out, &b.label);
            out.push_str(",\"value\":");
            write_json_number(out, b.value);
            out.push_str(",\"after\":");
            write_json_number(out, b.after.unwrap_or(f64::NAN));
            out.push_str(if b.highlighted {
                ",\"highlighted\":true}"
            } else {
                ",\"highlighted\":false}"
            });
        }
        out.push_str("]}");
    }
}

/// Append `s` to `out` as a JSON string literal.
///
/// Escapes `"`, `\\`, and the control characters below U+0020 (`\n`,
/// `\r`, `\t` by name, the rest as `\u00xx`); everything else, non-ASCII
/// included, is copied as is, one `push_str` per unescaped run. The
/// wire layer's `Json` writes through it too, so a reply's strings read
/// the same whichever side serialized them.
pub fn write_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `x` to `out` as a JSON number in the canonical form.
///
/// Non-finite values become `null` (JSON has no NaN or infinity);
/// integral values below 9e15 in magnitude print as integers, so `-0.0`
/// is `0`; everything else uses Rust's shortest round-trip `{}` form.
/// Parsing the output and writing it again gives the same bytes.
pub fn write_json_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Append a pipeline's stage reports to `out` as a JSON array: one
/// `{"stage","micros","items","sub":[{"name","micros"}]}` object per
/// stage, plus a `"cache":[{"artifact","hit"}]` list on stages that
/// consulted the artifact cache. The server's `stage_trace` and
/// `trace.spans` and the CLI's `--json --trace` all write through it.
pub fn write_stage_trace_json(out: &mut String, trace: &[StageReport]) {
    out.push('[');
    for (i, r) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"stage\":");
        write_json_string(out, r.stage);
        out.push_str(",\"micros\":");
        write_json_number(out, r.elapsed.as_micros() as f64);
        out.push_str(",\"items\":");
        write_json_number(out, r.items as f64);
        out.push_str(",\"sub\":[");
        for (j, (name, d)) in r.sub.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(out, name);
            out.push_str(",\"micros\":");
            write_json_number(out, d.as_micros() as f64);
            out.push('}');
        }
        out.push(']');
        if !r.artifacts.is_empty() {
            // Cache consultations of the stage: which artifacts (input
            // frames, mined partitions, a whole result)
            // were warm.
            out.push_str(",\"cache\":[");
            for (j, (artifact, hit)) in r.artifacts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"artifact\":");
                write_json_string(out, artifact);
                out.push_str(if *hit {
                    ",\"hit\":true}"
                } else {
                    ",\"hit\":false}"
                });
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> Chart {
        Chart {
            kind: ChartKind::BeforeAfterBars,
            x_label: "decade".into(),
            y_label: "Frequency (%)".into(),
            bars: vec![
                Bar {
                    label: "2010s".into(),
                    value: 3.5,
                    after: Some(61.0),
                    highlighted: true,
                },
                Bar {
                    label: "1990s".into(),
                    value: 20.0,
                    after: Some(12.0),
                    highlighted: false,
                },
            ],
            mean_line: None,
        }
    }

    #[test]
    fn renders_highlight_marker() {
        let text = chart().render_text(30);
        assert!(text.contains('▶'));
        assert!(text.contains("61.0%"));
        assert!(text.contains("decade"));
    }

    #[test]
    fn value_bars_render_mean_line() {
        let c = Chart {
            kind: ChartKind::ValueBars,
            x_label: "decade".into(),
            y_label: "mean loudness".into(),
            bars: vec![Bar {
                label: "1990s".into(),
                value: -10.7,
                after: None,
                highlighted: true,
            }],
            mean_line: Some(-8.7),
        };
        let text = c.render_text(20);
        assert!(text.contains("mean = -8.700"));
    }

    #[test]
    fn json_round_shape() {
        let j = chart().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\":\"before_after_bars\""));
        assert!(j.contains("\"label\":\"2010s\""));
        assert!(j.contains("\"highlighted\":true"));
        assert!(j.contains("\"after\":61"));
    }

    fn number(x: f64) -> String {
        let mut out = String::new();
        write_json_number(&mut out, x);
        out
    }

    fn string(s: &str) -> String {
        let mut out = String::new();
        write_json_string(&mut out, s);
        out
    }

    #[test]
    fn json_numbers_are_canonical() {
        assert_eq!(number(-0.0), "0");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-42.0), "-42");
        assert_eq!(number(1e16), "10000000000000000");
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn json_number_handles_nonfinite() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(
            string("\r\t\u{1}\u{1f}\u{7f}"),
            "\"\\r\\t\\u0001\\u001f\u{7f}\""
        );
        assert_eq!(string("décennie ▶ 😀"), "\"décennie ▶ 😀\"");
        // Every ASCII byte: controls escape, the rest copy through.
        for b in 0u8..=0x7f {
            let c = char::from(b);
            let got = string(&format!("x{c}y"));
            let want = match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c if b < 0x20 => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            };
            assert_eq!(got, format!("\"x{want}y\""), "byte {b:#04x}");
        }
    }

    #[test]
    fn writers_append_what_wrappers_return() {
        let c = chart();
        let mut out = String::from("prefix");
        c.write_json(&mut out);
        c.write_text(&mut out, 30);
        assert_eq!(out, format!("prefix{}{}", c.to_json(), c.render_text(30)));
    }

    #[test]
    fn degenerate_chart_renders() {
        let c = Chart {
            kind: ChartKind::ValueBars,
            x_label: "x".into(),
            y_label: "y".into(),
            bars: vec![],
            mean_line: None,
        };
        let text = c.render_text(10);
        assert!(text.contains("y by x"));
    }
}
