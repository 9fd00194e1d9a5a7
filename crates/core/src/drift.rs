//! The model-drift ledger: every measured trial's predicted-vs-measured
//! residual, aggregated into the auditable statistics behind the
//! analytic-fallback decisions.
//!
//! The tuning engine appends one [`DriftRecord`] per genuinely measured
//! trial (fallbacks predicted, they did not measure, so they cannot
//! drift) keyed by `(stencil, params, cores)`. A [`DriftLedger`]
//! aggregates those records per stencil through
//! [`yasksite_ecm::DriftStats`], flagging a stencil *model suspect* when
//! its p95 absolute drift exceeds
//! [`yasksite_ecm::DRIFT_SUSPECT_THRESHOLD`]. The record count and
//! suspect count surface in [`crate::TuneCost`], the per-record and
//! per-stencil numbers in the telemetry trace (`drift` /
//! `drift_summary` events) and the `yasksite report` drift table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use yasksite_ecm::{drift_fraction, DriftStats};

/// One measured trial's prediction residual.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRecord {
    /// Stencil the trial ran.
    pub stencil: String,
    /// Compact rendering of the trial's tuning parameters.
    pub params: String,
    /// Active cores of the trial.
    pub cores: usize,
    /// The specialisation-ladder tier that executed the measured trial
    /// (`"folded"`, `"scalar"`, ... — `"?"` for records predating tier
    /// attribution), so SUSPECT entries are attributable to a kernel
    /// tier, not just a stencil.
    pub tier: String,
    /// What the ECM model predicted (MLUP/s).
    pub predicted_mlups: f64,
    /// What the trial measured (MLUP/s).
    pub measured_mlups: f64,
}

impl DriftRecord {
    /// Signed relative model error of this record (see
    /// [`yasksite_ecm::drift_fraction`]).
    #[must_use]
    pub fn drift(&self) -> f64 {
        drift_fraction(self.predicted_mlups, self.measured_mlups)
    }
}

/// Append-only collection of [`DriftRecord`]s with per-stencil
/// aggregation, optionally bounded per `(stencil, params, cores)` key so
/// a long-lived daemon cannot grow it without limit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftLedger {
    records: Vec<DriftRecord>,
    cap_per_key: Option<usize>,
    evicted: usize,
}

impl DriftLedger {
    /// An empty, unbounded ledger (the one-shot tuning default: a single
    /// session is already bounded by its search space and budget).
    #[must_use]
    pub fn new() -> Self {
        DriftLedger::default()
    }

    /// An empty ledger keeping at most `cap_per_key` records per
    /// `(stencil, params, cores)` key; the oldest record of that key is
    /// evicted first once the cap is reached. A cap of 0 is treated as 1
    /// (an empty ledger would silently drop all drift evidence).
    #[must_use]
    pub fn bounded(cap_per_key: usize) -> Self {
        DriftLedger {
            records: Vec::new(),
            cap_per_key: Some(cap_per_key.max(1)),
            evicted: 0,
        }
    }

    /// Appends one record, evicting the oldest record with the same
    /// `(stencil, params, cores)` key first when this ledger is bounded
    /// and the key is at capacity.
    pub fn push(&mut self, record: DriftRecord) {
        if let Some(cap) = self.cap_per_key {
            let same_key = |r: &DriftRecord| {
                r.stencil == record.stencil && r.params == record.params && r.cores == record.cores
            };
            if self.records.iter().filter(|r| same_key(r)).count() >= cap {
                if let Some(oldest) = self.records.iter().position(same_key) {
                    self.records.remove(oldest);
                    self.evicted += 1;
                }
            }
        }
        self.records.push(record);
    }

    /// Copies every record of `other` into this ledger, applying this
    /// ledger's own eviction policy. Used by the daemon to absorb each
    /// tuning session's ledger into its long-lived bounded one.
    pub fn absorb(&mut self, other: &DriftLedger) {
        for r in other.records() {
            self.push(r.clone());
        }
    }

    /// Records evicted over this ledger's lifetime (0 when unbounded).
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.evicted
    }

    /// Records collected so far, in append order.
    #[must_use]
    pub fn records(&self) -> &[DriftRecord] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no trial has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-stencil drift statistics, sorted by stencil name.
    #[must_use]
    pub fn per_stencil(&self) -> Vec<(String, DriftStats)> {
        let mut by_stencil: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &self.records {
            by_stencil.entry(&r.stencil).or_default().push(r.drift());
        }
        by_stencil
            .into_iter()
            .filter_map(|(name, drifts)| {
                DriftStats::from_drifts(&drifts).map(|s| (name.to_string(), s))
            })
            .collect()
    }

    /// Per-`(stencil, tier)` drift statistics, sorted by stencil then
    /// tier — the attribution behind the drift table: a SUSPECT flag on
    /// a `(stencil, scalar)` row and an ok on `(stencil, folded)` points
    /// at the kernel tier, not the stencil.
    #[must_use]
    pub fn per_stencil_tier(&self) -> Vec<((String, String), DriftStats)> {
        let mut by_key: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for r in &self.records {
            by_key
                .entry((&r.stencil, &r.tier))
                .or_default()
                .push(r.drift());
        }
        by_key
            .into_iter()
            .filter_map(|((name, tier), drifts)| {
                DriftStats::from_drifts(&drifts).map(|s| ((name.to_string(), tier.to_string()), s))
            })
            .collect()
    }

    /// How many stencils are currently flagged model suspect.
    #[must_use]
    pub fn suspect_count(&self) -> usize {
        self.per_stencil().iter().filter(|(_, s)| s.suspect).count()
    }

    /// Per-`(stencil, params, cores)` model-correction state for every
    /// key currently flagged SUSPECT: the key's display name, the fitted
    /// multiplicative throughput coefficient (1 + median signed drift —
    /// multiply a prediction by it to land on the measured behaviour)
    /// and the drift statistics behind the flag, derived from the
    /// long-lived ledger (the daemon's `corrected_keys` gauge counts
    /// them); keys whose drift stays below the threshold carry no
    /// correction.
    #[must_use]
    pub fn per_key_corrections(&self) -> Vec<(String, f64, DriftStats)> {
        let mut by_key: BTreeMap<(&str, &str, usize), Vec<f64>> = BTreeMap::new();
        for r in &self.records {
            by_key
                .entry((&r.stencil, &r.params, r.cores))
                .or_default()
                .push(r.drift());
        }
        by_key
            .into_iter()
            .filter_map(|((stencil, params, cores), mut drifts)| {
                let stats = DriftStats::from_drifts(&drifts)?;
                if !stats.suspect {
                    return None;
                }
                drifts.sort_by(f64::total_cmp);
                let mid = drifts.len() / 2;
                let median = if drifts.len() % 2 == 1 {
                    drifts[mid]
                } else {
                    (drifts[mid - 1] + drifts[mid]) / 2.0
                };
                Some((
                    format!("{stencil} {params} @{cores}"),
                    (1.0 + median).max(1e-9),
                    stats,
                ))
            })
            .collect()
    }

    /// The drift table: one row per `(stencil, executing tier)` with
    /// count, percentiles of the absolute drift, worst record and the
    /// suspect flag.
    #[must_use]
    pub fn render_table(&self) -> String {
        if self.records.is_empty() {
            return "drift: no measured trials\n".to_string();
        }
        let mut out = String::from(
            "stencil                tier      count    p50%    p95%    p99%    max%  model\n",
        );
        for ((name, tier), s) in self.per_stencil_tier() {
            let _ = writeln!(
                out,
                "{:<22} {:<8} {:>6}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}  {}",
                name,
                tier,
                s.count,
                s.p50 * 100.0,
                s.p95 * 100.0,
                s.p99 * 100.0,
                s.max_abs * 100.0,
                if s.suspect { "SUSPECT" } else { "ok" }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stencil: &str, predicted: f64, measured: f64) -> DriftRecord {
        rec_tier(stencil, "folded", predicted, measured)
    }

    fn rec_tier(stencil: &str, tier: &str, predicted: f64, measured: f64) -> DriftRecord {
        DriftRecord {
            stencil: stencil.to_string(),
            params: "b=8x8x8 t=1".to_string(),
            cores: 1,
            tier: tier.to_string(),
            predicted_mlups: predicted,
            measured_mlups: measured,
        }
    }

    #[test]
    fn ledger_aggregates_per_stencil() {
        let mut l = DriftLedger::new();
        assert!(l.is_empty());
        l.push(rec("heat-3d", 100.0, 110.0));
        l.push(rec("heat-3d", 100.0, 95.0));
        l.push(rec("box-3d", 200.0, 40.0)); // -80% drift: suspect
        assert_eq!(l.len(), 3);
        let per = l.per_stencil();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, "box-3d"); // sorted
        assert!(per[0].1.suspect);
        assert!(!per[1].1.suspect);
        assert_eq!(l.suspect_count(), 1);
    }

    #[test]
    fn table_renders_rows_and_flags() {
        let mut l = DriftLedger::new();
        assert!(l.render_table().contains("no measured trials"));
        l.push(rec("heat-3d", 100.0, 104.0));
        l.push(rec("box-3d", 100.0, 10.0));
        let t = l.render_table();
        assert!(t.contains("heat-3d"), "{t}");
        assert!(t.contains("ok"), "{t}");
        assert!(t.contains("SUSPECT"), "{t}");
    }

    #[test]
    fn bounded_ledger_evicts_oldest_per_key() {
        let mut l = DriftLedger::bounded(2);
        l.push(rec("heat-3d", 100.0, 101.0));
        l.push(rec("heat-3d", 100.0, 102.0));
        l.push(rec("box-3d", 100.0, 99.0)); // different key: untouched
        l.push(rec("heat-3d", 100.0, 103.0)); // evicts the 101.0 record
        assert_eq!(l.len(), 3);
        assert_eq!(l.evictions(), 1);
        let heat: Vec<f64> = l
            .records()
            .iter()
            .filter(|r| r.stencil == "heat-3d")
            .map(|r| r.measured_mlups)
            .collect();
        assert_eq!(heat, vec![102.0, 103.0]);
    }

    #[test]
    fn table_attributes_drift_to_the_executing_tier() {
        let mut l = DriftLedger::new();
        // The scalar tier drifts wildly, the folded tier is fine — the
        // table must separate them instead of smearing the SUSPECT over
        // the whole stencil.
        l.push(rec_tier("heat-3d", "folded", 100.0, 103.0));
        l.push(rec_tier("heat-3d", "folded", 100.0, 98.0));
        l.push(rec_tier("heat-3d", "scalar", 100.0, 10.0));
        l.push(rec_tier("heat-3d", "scalar", 100.0, 12.0));
        let per = l.per_stencil_tier();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, ("heat-3d".to_string(), "folded".to_string()));
        assert!(!per[0].1.suspect);
        assert_eq!(per[1].0, ("heat-3d".to_string(), "scalar".to_string()));
        assert!(per[1].1.suspect);
        let t = l.render_table();
        let folded_row = t.lines().find(|l| l.contains("folded")).unwrap();
        let scalar_row = t.lines().find(|l| l.contains("scalar")).unwrap();
        assert!(folded_row.ends_with("ok"), "{t}");
        assert!(scalar_row.ends_with("SUSPECT"), "{t}");
        // Per-stencil aggregation still pools both tiers.
        assert_eq!(l.per_stencil().len(), 1);
    }

    #[test]
    fn per_key_corrections_cover_only_suspect_keys() {
        let mut l = DriftLedger::new();
        // Key A tracks the model (~+3%): no correction.
        l.push(rec("heat-3d", 100.0, 103.0));
        l.push(rec("heat-3d", 100.0, 102.0));
        // Key B measures 4x slower than predicted: suspect, coeff ~0.25.
        let slow = |m| DriftRecord {
            params: "b=16x16x16 t=1".to_string(),
            ..rec("box-3d", 100.0, m)
        };
        l.push(slow(25.0));
        l.push(slow(24.0));
        l.push(slow(26.0));
        let corrections = l.per_key_corrections();
        assert_eq!(corrections.len(), 1, "{corrections:?}");
        let (key, coeff, stats) = &corrections[0];
        assert!(key.contains("box-3d") && key.contains("@1"), "{key}");
        assert!((coeff - 0.25).abs() < 0.02, "coeff {coeff}");
        assert!(stats.suspect);
        // Applying the coefficient closes the loop for this key: the
        // corrected prediction re-derives to near-zero drift.
        for m in [25.0f64, 24.0, 26.0] {
            let corrected_pred = 100.0 * coeff;
            let residual = (m - corrected_pred).abs() / corrected_pred;
            assert!(residual < 0.1, "residual {residual} at measured {m}");
        }
    }

    #[test]
    fn bounded_ledger_evicts_strictly_oldest_first_per_key() {
        // Satellite coverage: under sustained --drift-cap pressure the
        // survivor set must always be the newest `cap` records of each
        // key, and the eviction count must be exact.
        let cap = 3;
        let mut l = DriftLedger::bounded(cap);
        for i in 0..10 {
            l.push(rec("heat-3d", 100.0, 100.0 + i as f64));
            l.push(rec("box-3d", 100.0, 200.0 + i as f64));
        }
        assert_eq!(l.len(), 2 * cap);
        assert_eq!(l.evictions(), 2 * (10 - cap));
        let heat: Vec<f64> = l
            .records()
            .iter()
            .filter(|r| r.stencil == "heat-3d")
            .map(|r| r.measured_mlups)
            .collect();
        assert_eq!(
            heat,
            vec![107.0, 108.0, 109.0],
            "newest survive, oldest-first order"
        );
        let boxd: Vec<f64> = l
            .records()
            .iter()
            .filter(|r| r.stencil == "box-3d")
            .map(|r| r.measured_mlups)
            .collect();
        assert_eq!(boxd, vec![207.0, 208.0, 209.0]);
    }

    #[test]
    fn eviction_counts_are_exact_across_absorb_chains() {
        // A daemon absorbing session ledgers repeatedly must account for
        // every single eviction, not just the last batch.
        let mut daemon = DriftLedger::bounded(2);
        for batch in 0..4 {
            let mut session = DriftLedger::new();
            for i in 0..3 {
                session.push(rec("heat-3d", 100.0, (batch * 10 + i) as f64));
            }
            daemon.absorb(&session);
        }
        // 12 pushed, 2 kept => 10 evicted, all charged to the daemon.
        assert_eq!(daemon.len(), 2);
        assert_eq!(daemon.evictions(), 10);
        let kept: Vec<f64> = daemon.records().iter().map(|r| r.measured_mlups).collect();
        assert_eq!(kept, vec![31.0, 32.0]);
    }

    #[test]
    fn unbounded_ledger_never_evicts() {
        let mut l = DriftLedger::new();
        for i in 0..100 {
            l.push(rec("heat-3d", 100.0, 100.0 + i as f64));
        }
        assert_eq!(l.len(), 100);
        assert_eq!(l.evictions(), 0);
    }

    #[test]
    fn absorb_applies_the_receivers_policy() {
        let mut session = DriftLedger::new();
        for i in 0..5 {
            session.push(rec("heat-3d", 100.0, 100.0 + i as f64));
        }
        let mut daemon = DriftLedger::bounded(3);
        daemon.absorb(&session);
        assert_eq!(daemon.len(), 3);
        assert_eq!(daemon.evictions(), 2);
        // The newest records survive.
        let kept: Vec<f64> = daemon.records().iter().map(|r| r.measured_mlups).collect();
        assert_eq!(kept, vec![102.0, 103.0, 104.0]);
    }

    #[test]
    fn zero_cap_is_clamped_to_one() {
        let mut l = DriftLedger::bounded(0);
        l.push(rec("s", 100.0, 90.0));
        l.push(rec("s", 100.0, 95.0));
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].measured_mlups, 95.0);
    }

    #[test]
    fn record_drift_is_signed() {
        assert!((rec("s", 100.0, 150.0).drift() - 0.5).abs() < 1e-12);
        assert!((rec("s", 100.0, 50.0).drift() + 0.5).abs() < 1e-12);
    }
}
