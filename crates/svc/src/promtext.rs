//! A minimal Prometheus text-format (version 0.0.4) parser, for
//! *validating* what the exporter serves — tests scrape `/metrics` and
//! run it through [`parse`] instead of grepping for substrings. Test-only:
//! it is compiled into the crate's unit tests, and `tests/audit.rs`
//! includes this file as a module of its own.
//!
//! Covers the subset the exporter emits: `# HELP`/`# TYPE` comments,
//! plain samples, labeled samples, and histogram series
//! (`_bucket`/`_sum`/`_count`). [`PromText::check_histograms`] verifies
//! the invariants Prometheus itself would enforce at scrape time:
//! cumulative non-decreasing buckets, a `+Inf` bucket, and
//! `_count` == the `+Inf` bucket.

use std::collections::BTreeMap;
use std::fmt;

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in emission order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: samples in document order plus the HELP/TYPE
/// metadata.
#[derive(Clone, Debug, Default)]
pub struct PromText {
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: family name → type string.
    pub types: BTreeMap<String, String>,
    /// `# HELP` declarations: family name → help string.
    pub helps: BTreeMap<String, String>,
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, reason: impl Into<String>) -> ParseError {
    ParseError {
        line,
        reason: reason.into(),
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses a value token: decimal, scientific, `+Inf`, `-Inf`, `NaN`.
fn parse_value(tok: &str) -> Option<f64> {
    match tok {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => tok.parse().ok(),
    }
}

/// Parses the `{k="v",...}` label block (input excludes the braces).
fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, ParseError> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| err(line_no, "label without '='"))?;
        let key = rest[..eq].trim();
        if !is_name(key) {
            return Err(err(line_no, format!("bad label name {key:?}")));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(err(line_no, "label value must be quoted"));
        }
        // Scan the quoted value honoring \" escapes.
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    _ => return Err(err(line_no, "bad escape in label value")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| err(line_no, "unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = rest[1 + end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(err(line_no, "expected ',' between labels"));
        }
    }
    Ok(labels)
}

/// Parses a full exposition body.
///
/// # Errors
///
/// The first malformed line, with its number and a reason.
pub fn parse(text: &str) -> Result<PromText, ParseError> {
    let mut out = PromText::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let (name, help) = rest.split_once(' ').map_or((rest, ""), |(n, h)| (n, h));
                if !is_name(name) {
                    return Err(err(line_no, format!("bad HELP metric name {name:?}")));
                }
                out.helps.insert(name.to_string(), help.to_string());
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(line_no, "TYPE without a kind"))?;
                if !is_name(name) {
                    return Err(err(line_no, format!("bad TYPE metric name {name:?}")));
                }
                match kind {
                    "counter" | "gauge" | "histogram" | "summary" | "untyped" => {}
                    other => return Err(err(line_no, format!("unknown TYPE {other:?}"))),
                }
                out.types.insert(name.to_string(), kind.to_string());
            }
            // Other comments are legal and skipped.
            continue;
        }
        // Sample: name[{labels}] value
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| err(line_no, "unclosed label block"))?;
                if close < brace {
                    return Err(err(line_no, "unclosed label block"));
                }
                (&line[..brace], {
                    let labels = parse_labels(&line[brace + 1..close], line_no)?;
                    let value_tok = line[close + 1..].trim();
                    Some((labels, value_tok))
                })
            }
            None => {
                let mut it = line.split_whitespace();
                let name = it.next().unwrap_or("");
                let value_tok = it
                    .next()
                    .ok_or_else(|| err(line_no, "sample without value"))?;
                if it.next().is_some() {
                    return Err(err(line_no, "trailing tokens after value"));
                }
                (name, Some((Vec::new(), value_tok)))
            }
        };
        let name = name_part.trim();
        if !is_name(name) {
            return Err(err(line_no, format!("bad metric name {name:?}")));
        }
        let (labels, value_tok) = rest.unwrap();
        if value_tok.is_empty() {
            return Err(err(line_no, "sample without value"));
        }
        let value = parse_value(value_tok)
            .ok_or_else(|| err(line_no, format!("bad value {value_tok:?}")))?;
        out.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

impl PromText {
    /// The single unlabeled sample of `name`, when present exactly once.
    pub fn value(&self, name: &str) -> Option<f64> {
        let mut hits = self
            .samples
            .iter()
            .filter(|s| s.name == name && s.labels.is_empty());
        let first = hits.next()?;
        if hits.next().is_some() {
            return None;
        }
        Some(first.value)
    }

    /// All samples of `name` (any labels), in order.
    pub fn values(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// Family names that declared `# TYPE <name> histogram`.
    pub fn histogram_families(&self) -> Vec<&str> {
        self.types
            .iter()
            .filter(|(_, kind)| kind.as_str() == "histogram")
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Verifies every declared histogram family: buckets sorted by `le`,
    /// cumulative counts non-decreasing, a `+Inf` bucket present, and
    /// `_count` equal to the `+Inf` bucket.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_histograms(&self) -> Result<(), String> {
        for family in self.histogram_families() {
            let buckets: Vec<&Sample> = self.values(&format!("{family}_bucket"));
            if buckets.is_empty() {
                return Err(format!("histogram {family} has no _bucket samples"));
            }
            let mut prev_le = f64::NEG_INFINITY;
            let mut prev_count = 0.0;
            let mut inf_count = None;
            for b in &buckets {
                let le = b
                    .label("le")
                    .and_then(parse_value_opt)
                    .ok_or_else(|| format!("histogram {family}: bucket without le"))?;
                if le <= prev_le {
                    return Err(format!("histogram {family}: le not increasing at {le}"));
                }
                if b.value < prev_count {
                    return Err(format!(
                        "histogram {family}: cumulative count decreased at le={le}"
                    ));
                }
                prev_le = le;
                prev_count = b.value;
                if le.is_infinite() {
                    inf_count = Some(b.value);
                }
            }
            let inf =
                inf_count.ok_or_else(|| format!("histogram {family}: missing +Inf bucket"))?;
            let count = self
                .value(&format!("{family}_count"))
                .ok_or_else(|| format!("histogram {family}: missing _count"))?;
            if count != inf {
                return Err(format!(
                    "histogram {family}: _count {count} != +Inf bucket {inf}"
                ));
            }
            if self.value(&format!("{family}_sum")).is_none() {
                return Err(format!("histogram {family}: missing _sum"));
            }
        }
        Ok(())
    }
}

fn parse_value_opt(tok: &str) -> Option<f64> {
    parse_value(tok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP sudoku_reads_total Demand reads served.
# TYPE sudoku_reads_total counter
sudoku_reads_total 42
# TYPE sudoku_queue_depth gauge
sudoku_queue_depth{shard=\"0\"} 3
sudoku_queue_depth{shard=\"1\"} 0
# TYPE sudoku_read_latency_ns histogram
sudoku_read_latency_ns_bucket{le=\"1024\"} 10
sudoku_read_latency_ns_bucket{le=\"2048\"} 15
sudoku_read_latency_ns_bucket{le=\"+Inf\"} 16
sudoku_read_latency_ns_sum 31744
sudoku_read_latency_ns_count 16
";

    #[test]
    fn parses_the_exporter_subset() {
        let p = parse(GOOD).unwrap();
        assert_eq!(p.value("sudoku_reads_total"), Some(42.0));
        assert_eq!(p.types.get("sudoku_read_latency_ns").unwrap(), "histogram");
        assert_eq!(
            p.helps.get("sudoku_reads_total").unwrap(),
            "Demand reads served."
        );
        let depths = p.values("sudoku_queue_depth");
        assert_eq!(depths.len(), 2);
        assert_eq!(depths[0].label("shard"), Some("0"));
        p.check_histograms().unwrap();
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("sudoku_reads_total").is_err(), "missing value");
        assert!(parse("sudoku_reads_total abc").is_err(), "bad value");
        assert!(parse("bad{le=\"1\" 3").is_err(), "unclosed labels");
        assert!(parse("bad{le=1} 3").is_err(), "unquoted label value");
        assert!(parse("# TYPE x wat\n").is_err(), "unknown type");
        assert!(parse("9bad 1").is_err(), "bad metric name");
    }

    #[test]
    fn catches_broken_histograms() {
        let no_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_sum 1
h_count 1
";
        assert!(parse(no_inf).unwrap().check_histograms().is_err());
        let decreasing = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 5
";
        assert!(parse(decreasing).unwrap().check_histograms().is_err());
        let count_mismatch = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 4
";
        assert!(parse(count_mismatch).unwrap().check_histograms().is_err());
    }

    #[test]
    fn label_escapes_roundtrip() {
        let p = parse("m{msg=\"a\\\"b\\\\c\\nd\"} 1\n").unwrap();
        assert_eq!(p.samples[0].label("msg"), Some("a\"b\\c\nd"));
    }
}
