//! Escalation-chain reconstruction over a recovery event log.
//!
//! Grouping a campaign's events by `(interval, line)` and keeping emission
//! order yields, per faulty line, the exact ladder the engine walked —
//! e.g. `Inject → CrcDetect → Raid4:Blocked → Sdr:Repaired@H1`, or the
//! cross-hash rescue `… → Sdr:Failed@H1 → Raid4:Repaired@H2`. The
//! [`Breakdown`] then aggregates chains into the signature table the
//! `forensics` benchmark binary prints.

use crate::event::{Dim, Mechanism, Outcome, RecoveryEvent};
use std::collections::BTreeMap;

/// Every event observed for one line within one interval, emission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// The interval (campaign trial) the chain belongs to.
    pub interval: u64,
    /// The affected line.
    pub line: u64,
    /// The events, oldest first.
    pub events: Vec<RecoveryEvent>,
}

impl Chain {
    /// Compact signature, e.g.
    /// `Inject→CrcDetect→Raid4:Blocked→Sdr:Repaired@H1`.
    pub fn signature(&self) -> String {
        self.events
            .iter()
            .map(|e| {
                let mut part = match (e.mechanism, e.outcome) {
                    // The unmarked outcomes for the common steps keep
                    // signatures short.
                    (Mechanism::Inject, Outcome::Injected) => "Inject".to_string(),
                    (Mechanism::CrcDetect, Outcome::Detected) => "CrcDetect".to_string(),
                    (m, o) => format!("{m}:{o}"),
                };
                if let Some(dim) = e.hash_dim {
                    part.push('@');
                    part.push_str(&dim.to_string());
                }
                part
            })
            .collect::<Vec<_>>()
            .join("→")
    }

    /// The event that settled the line: the last `Repaired` or `Due`.
    pub fn resolution(&self) -> Option<&RecoveryEvent> {
        self.events
            .iter()
            .rev()
            .find(|e| e.outcome == Outcome::Repaired || e.mechanism == Mechanism::Due)
    }

    /// Whether the line ended detectably uncorrectable.
    pub fn is_due(&self) -> bool {
        self.resolution()
            .is_some_and(|e| e.mechanism == Mechanism::Due)
    }

    /// Whether an SDR resurrection settled the line.
    pub fn resolved_by_sdr(&self) -> bool {
        self.resolution()
            .is_some_and(|e| e.mechanism == Mechanism::Sdr && e.outcome == Outcome::Repaired)
    }

    /// Whether the settling repair ran in the Hash-2 dimension — the
    /// SuDoku-Z cross-resolution path.
    pub fn resolved_via_hash2(&self) -> bool {
        self.resolution()
            .is_some_and(|e| e.outcome == Outcome::Repaired && e.hash_dim == Some(Dim::H2))
    }

    /// Whether the chain is *complete*: it starts at a root cause
    /// (injection record or CRC detection) and ends settled.
    pub fn is_complete(&self) -> bool {
        let starts_at_root = self
            .events
            .first()
            .is_some_and(|e| matches!(e.mechanism, Mechanism::Inject | Mechanism::CrcDetect));
        starts_at_root && self.resolution().is_some()
    }

    /// Total SDR flip-and-check trials along the chain.
    pub fn sdr_trials(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.mechanism == Mechanism::Sdr)
            .map(|e| e.trials as u64)
            .sum()
    }
}

/// Groups an event log into per-`(interval, line)` escalation chains,
/// preserving emission order within each chain. Chains are returned in
/// `(interval, line)` order.
pub fn chains(events: &[RecoveryEvent]) -> Vec<Chain> {
    let mut by_key: BTreeMap<(u64, u64), Vec<RecoveryEvent>> = BTreeMap::new();
    for &e in events {
        by_key.entry((e.interval, e.line)).or_default().push(e);
    }
    by_key
        .into_iter()
        .map(|((interval, line), events)| Chain {
            interval,
            line,
            events,
        })
        .collect()
}

/// Aggregated view of a chain set: counts per signature and per resolving
/// mechanism.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Chain count per signature, descending by count (ties: signature
    /// order).
    pub signatures: Vec<(String, u64)>,
    /// Chain count per resolving mechanism name (`"unresolved"` when a
    /// chain has no settling event — e.g. only an injection record for a
    /// line ECC-1 silently fixed... which still emits, so in practice:
    /// detection-only chains).
    pub resolutions: BTreeMap<String, u64>,
    /// Chains settled through the Hash-2 dimension.
    pub hash2_resolved: u64,
    /// Chains that ended as DUEs.
    pub due_chains: u64,
    /// Total chains.
    pub total: u64,
}

/// Builds the [`Breakdown`] for a chain set.
pub fn breakdown(chains: &[Chain]) -> Breakdown {
    let mut sig_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut out = Breakdown {
        total: chains.len() as u64,
        ..Breakdown::default()
    };
    for chain in chains {
        *sig_counts.entry(chain.signature()).or_default() += 1;
        let res = match chain.resolution() {
            Some(e) if e.mechanism == Mechanism::Due => "Due".to_string(),
            Some(e) => {
                let mut name = e.mechanism.to_string();
                if let Some(d) = e.hash_dim {
                    name.push('@');
                    name.push_str(&d.to_string());
                }
                name
            }
            None => "unresolved".to_string(),
        };
        *out.resolutions.entry(res).or_default() += 1;
        out.hash2_resolved += chain.resolved_via_hash2() as u64;
        out.due_chains += chain.is_due() as u64;
    }
    out.signatures = sig_counts.into_iter().collect();
    out.signatures
        .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

impl Breakdown {
    /// Multi-line human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} escalation chains ({} via Hash-2, {} DUE)\n",
            self.total, self.hash2_resolved, self.due_chains
        ));
        out.push_str("\nresolution breakdown:\n");
        for (name, count) in &self.resolutions {
            out.push_str(&format!(
                "  {name:<14} {count:>8}  ({:>6.2}%)\n",
                *count as f64 / self.total.max(1) as f64 * 100.0
            ));
        }
        out.push_str("\nchain signatures:\n");
        for (sig, count) in &self.signatures {
            out.push_str(&format!("  {count:>8}  {sig}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        interval: u64,
        line: u64,
        mechanism: Mechanism,
        outcome: Outcome,
        hash_dim: Option<Dim>,
        trials: u32,
    ) -> RecoveryEvent {
        RecoveryEvent {
            interval,
            line,
            group: hash_dim.map(|_| 3),
            hash_dim,
            mechanism,
            outcome,
            trials,
        }
    }

    /// The paper's §IV scenario as an event stream: two 2-fault lines in
    /// one group; SDR resurrects line 1, RAID-4 finishes line 2.
    fn sdr_story() -> Vec<RecoveryEvent> {
        vec![
            ev(0, 1, Mechanism::Inject, Outcome::Injected, None, 2),
            ev(0, 2, Mechanism::Inject, Outcome::Injected, None, 2),
            ev(0, 1, Mechanism::CrcDetect, Outcome::Detected, None, 0),
            ev(0, 2, Mechanism::CrcDetect, Outcome::Detected, None, 0),
            ev(0, 1, Mechanism::Raid4, Outcome::Blocked, Some(Dim::H1), 2),
            ev(0, 2, Mechanism::Raid4, Outcome::Blocked, Some(Dim::H1), 2),
            ev(0, 1, Mechanism::Sdr, Outcome::Repaired, Some(Dim::H1), 5),
            ev(0, 2, Mechanism::Raid4, Outcome::Repaired, Some(Dim::H1), 0),
        ]
    }

    #[test]
    fn chains_group_by_interval_and_line() {
        let mut events = sdr_story();
        events.push(ev(1, 1, Mechanism::Ecc1, Outcome::Repaired, None, 0));
        let chains = chains(&events);
        assert_eq!(chains.len(), 3); // (0,1), (0,2), (1,1)
        assert_eq!(chains[0].events.len(), 4);
        assert_eq!(chains[2].interval, 1);
    }

    #[test]
    fn sdr_chain_reconstructs_the_ladder() {
        let chains = chains(&sdr_story());
        let c1 = &chains[0];
        assert_eq!(
            c1.signature(),
            "Inject→CrcDetect→Raid4:Blocked@H1→Sdr:Repaired@H1"
        );
        assert!(c1.is_complete());
        assert!(c1.resolved_by_sdr());
        assert!(!c1.resolved_via_hash2());
        assert!(!c1.is_due());
        assert_eq!(c1.sdr_trials(), 5);
        let c2 = &chains[1];
        assert!(!c2.resolved_by_sdr());
        assert!(c2.is_complete());
    }

    #[test]
    fn hash2_rescue_detected() {
        let events = vec![
            ev(0, 7, Mechanism::CrcDetect, Outcome::Detected, None, 0),
            ev(0, 7, Mechanism::Sdr, Outcome::Failed, Some(Dim::H1), 12),
            ev(0, 7, Mechanism::Raid4, Outcome::Repaired, Some(Dim::H2), 0),
        ];
        let chains = chains(&events);
        assert!(chains[0].resolved_via_hash2());
        assert!(chains[0].is_complete());
    }

    #[test]
    fn due_chain_detected() {
        let events = vec![
            ev(0, 9, Mechanism::CrcDetect, Outcome::Detected, None, 0),
            ev(0, 9, Mechanism::Due, Outcome::Failed, None, 0),
        ];
        let chains = chains(&events);
        assert!(chains[0].is_due());
        assert!(chains[0].is_complete());
    }

    #[test]
    fn breakdown_counts_everything() {
        let mut events = sdr_story();
        events.extend([
            ev(1, 9, Mechanism::CrcDetect, Outcome::Detected, None, 0),
            ev(1, 9, Mechanism::Due, Outcome::Failed, None, 0),
            ev(2, 5, Mechanism::CrcDetect, Outcome::Detected, None, 0),
            ev(2, 5, Mechanism::Sdr, Outcome::Repaired, Some(Dim::H2), 3),
        ]);
        let b = breakdown(&chains(&events));
        assert_eq!(b.total, 4);
        assert_eq!(b.due_chains, 1);
        assert_eq!(b.hash2_resolved, 1);
        assert_eq!(b.resolutions.get("Sdr@H1"), Some(&1));
        assert_eq!(b.resolutions.get("Due"), Some(&1));
        let rendered = b.render();
        assert!(rendered.contains("4 escalation chains"));
        assert!(rendered.contains("Sdr:Repaired@H2"));
    }
}
