//! The structured recovery event: one record per repair attempt.

use std::fmt;

/// Which hash dimension a group-level mechanism operated in.
///
/// Mirrors `sudoku_core::HashDim` without depending on it — `sudoku-obs`
/// sits below every other crate in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    /// Hash-1: consecutive-line RAID-Groups (SuDoku-X/Y/Z).
    H1,
    /// Hash-2: skewed RAID-Groups (SuDoku-Z only).
    H2,
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dim::H1 => "H1",
            Dim::H2 => "H2",
        })
    }
}

/// Which mechanism of the recovery ladder an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mechanism {
    /// Transient faults injected into a line (campaign injection record).
    Inject,
    /// Per-line ECC-1 acting on a payload bit.
    Ecc1,
    /// Regeneration of the ECC metadata field itself.
    EccField,
    /// CRC flagged the line as multi-bit faulty (detection, not repair).
    CrcDetect,
    /// RAID-4 reconstruction from the group parity.
    Raid4,
    /// Sequential Data Resurrection (parity-guided bit-flip trials).
    Sdr,
    /// The line was declared detectably uncorrectable.
    Due,
}

impl Mechanism {
    const ALL: &'static [(Mechanism, &'static str)] = &[
        (Mechanism::Inject, "Inject"),
        (Mechanism::Ecc1, "Ecc1"),
        (Mechanism::EccField, "EccField"),
        (Mechanism::CrcDetect, "CrcDetect"),
        (Mechanism::Raid4, "Raid4"),
        (Mechanism::Sdr, "Sdr"),
        (Mechanism::Due, "Due"),
    ];

    fn parse(s: &str) -> Option<Mechanism> {
        Self::ALL.iter().find(|(_, n)| *n == s).map(|&(m, _)| m)
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = Self::ALL
            .iter()
            .find(|&&(m, _)| m == *self)
            .map(|&(_, n)| n)
            .unwrap_or("?");
        f.write_str(name)
    }
}

/// What an event's mechanism actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Faults were injected (paired with [`Mechanism::Inject`]).
    Injected,
    /// The mechanism detected corruption without repairing it.
    Detected,
    /// The line was restored to a valid codeword.
    Repaired,
    /// The mechanism could not run (e.g. RAID-4 with ≥2 casualties).
    Blocked,
    /// The mechanism ran and gave up (e.g. SDR exhausted its trials).
    Failed,
}

impl Outcome {
    const ALL: &'static [(Outcome, &'static str)] = &[
        (Outcome::Injected, "Injected"),
        (Outcome::Detected, "Detected"),
        (Outcome::Repaired, "Repaired"),
        (Outcome::Blocked, "Blocked"),
        (Outcome::Failed, "Failed"),
    ];

    fn parse(s: &str) -> Option<Outcome> {
        Self::ALL.iter().find(|(_, n)| *n == s).map(|&(o, _)| o)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = Self::ALL
            .iter()
            .find(|&&(o, _)| o == *self)
            .map(|&(_, n)| n)
            .unwrap_or("?");
        f.write_str(name)
    }
}

/// One structured record of a repair attempt (or injection, or DUE).
///
/// Collecting every event of a campaign and grouping by `(interval, line)`
/// reconstructs each line's escalation chain — see [`crate::forensics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Scrub interval (campaign trial) the event belongs to; stamped by the
    /// owning [`crate::Recorder`].
    pub interval: u64,
    /// The affected cache line.
    pub line: u64,
    /// RAID-Group id the mechanism operated on (`None` for per-line
    /// mechanisms that never consulted a group).
    pub group: Option<u64>,
    /// Hash dimension of `group` (`None` for per-line mechanisms).
    pub hash_dim: Option<Dim>,
    /// Which ladder rung acted.
    pub mechanism: Mechanism,
    /// What it did.
    pub outcome: Outcome,
    /// Work spent: flip-and-check trials for SDR, injected fault bits for
    /// `Inject`, blocked-casualty count for `Raid4`/`Blocked`, else 0.
    pub trials: u32,
}

impl RecoveryEvent {
    /// Serializes the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let group = match self.group {
            Some(g) => g.to_string(),
            None => "null".to_string(),
        };
        let dim = match self.hash_dim {
            Some(d) => format!("\"{d}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"interval\":{},\"line\":{},\"group\":{},\"hash_dim\":{},\
             \"mechanism\":\"{}\",\"outcome\":\"{}\",\"trials\":{}}}",
            self.interval, self.line, group, dim, self.mechanism, self.outcome, self.trials
        )
    }

    /// Parses one JSONL line produced by [`RecoveryEvent::to_jsonl`].
    ///
    /// Returns `None` on any malformed or missing field. The parser is a
    /// deliberate subset of JSON (flat object, no escapes, no nesting) —
    /// exactly the shape `to_jsonl` emits. Unknown keys are ignored, so
    /// older logs that still carry a `"trace"` key parse unchanged.
    pub fn from_jsonl(line: &str) -> Option<RecoveryEvent> {
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\":");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        };
        let unquote = |v: &str| -> Option<String> {
            v.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
        };
        let group = match field("group")? {
            "null" => None,
            v => Some(v.parse().ok()?),
        };
        let hash_dim = match field("hash_dim")? {
            "null" => None,
            v => Some(match unquote(v)?.as_str() {
                "H1" => Dim::H1,
                "H2" => Dim::H2,
                _ => return None,
            }),
        };
        Some(RecoveryEvent {
            interval: field("interval")?.parse().ok()?,
            line: field("line")?.parse().ok()?,
            group,
            hash_dim,
            mechanism: Mechanism::parse(&unquote(field("mechanism")?)?)?,
            outcome: Outcome::parse(&unquote(field("outcome")?)?)?,
            trials: field("trials")?.parse().ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecoveryEvent {
        RecoveryEvent {
            interval: 7,
            line: 12345,
            group: Some(24),
            hash_dim: Some(Dim::H2),
            mechanism: Mechanism::Sdr,
            outcome: Outcome::Repaired,
            trials: 9,
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let ev = sample();
        assert_eq!(RecoveryEvent::from_jsonl(&ev.to_jsonl()), Some(ev));
    }

    #[test]
    fn jsonl_roundtrip_with_nulls() {
        let ev = RecoveryEvent {
            group: None,
            hash_dim: None,
            mechanism: Mechanism::Ecc1,
            outcome: Outcome::Repaired,
            trials: 0,
            ..sample()
        };
        let text = ev.to_jsonl();
        assert!(text.contains("\"group\":null"));
        assert_eq!(RecoveryEvent::from_jsonl(&text), Some(ev));
    }

    #[test]
    fn legacy_trace_key_is_ignored() {
        // Logs written before the trace stamp existed have no "trace" key;
        // logs written while it existed carry one. Both parse to the event.
        let line = sample().to_jsonl();
        assert!(!line.contains("\"trace\""));
        let traced = line.replace("\"line\":", "\"trace\":42,\"line\":");
        assert_eq!(RecoveryEvent::from_jsonl(&line), Some(sample()));
        assert_eq!(RecoveryEvent::from_jsonl(&traced), Some(sample()));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert_eq!(RecoveryEvent::from_jsonl(""), None);
        assert_eq!(RecoveryEvent::from_jsonl("{\"interval\":1}"), None);
        assert_eq!(
            RecoveryEvent::from_jsonl(&sample().to_jsonl().replace("Sdr", "Nope")),
            None
        );
    }

    #[test]
    fn mechanism_and_outcome_display_parse() {
        for &(m, name) in Mechanism::ALL {
            assert_eq!(Mechanism::parse(name), Some(m));
            assert_eq!(m.to_string(), name);
        }
        for &(o, name) in Outcome::ALL {
            assert_eq!(Outcome::parse(name), Some(o));
            assert_eq!(o.to_string(), name);
        }
    }
}
