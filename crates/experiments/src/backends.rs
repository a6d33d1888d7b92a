//! Cross-backend comparison: the same corpora decoded by every
//! [`BackendKind`], reporting detection, false positives and decode
//! cost side by side.
//!
//! Two regimes bracket the passive detectors' operating envelope:
//!
//! - **mild** — the `backends-mild` preset, `Δ = 1 s`, chaff `0.5/s`:
//!   the channel is sparse enough (`Δ · rate` near 1) that
//!   order-consistent coverage and the IPD likelihood ratio still
//!   separate true pairs from decoys.
//! - **stress** — the scale's `monitor` world (`Δ = 7 s`, chaff
//!   `3/s`): chance matching serves nearly every window, the passive
//!   statistics flatten, and both passive backends (by design) stop
//!   correlating — the saturation regime that motivates the paper's
//!   active watermarking.
//!
//! Corpora derive from the seed alone, so all backends in a regime see
//! byte-identical flows.

use std::fmt;

use stepstone_core::BackendKind;
use stepstone_monitor::MonitorConfig;
use stepstone_scenario::{Backend, ScenarioSpec};

use crate::config::ExperimentConfig;
use crate::live::replay;
use crate::scenario_run::{backend_kind, build_spec_corpus, Detection, ScenarioRunError};

/// One backend's results over one regime's corpus.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// The backend decoded with.
    pub backend: BackendKind,
    /// The online replay's verdicts scored against the true pairs.
    pub detection: Detection,
    /// Decode jobs the online replay ran.
    pub decodes_run: u64,
    /// Mean packet accesses for one full-window decode of a true pair.
    pub mean_cost_true: f64,
    /// Mean packet accesses for one full-window decode of a non-pair.
    pub mean_cost_other: f64,
    /// Online replay throughput, packets per second.
    pub packets_per_sec: f64,
}

/// One regime: its world and every backend's row over it.
#[derive(Debug, Clone)]
pub struct BackendRegime {
    /// Short regime name (`mild`, `stress`).
    pub name: &'static str,
    /// The world all backends replay (modulo the `backend` key).
    pub spec: ScenarioSpec,
    /// One row per [`BackendKind::ALL`] entry, in that order.
    pub rows: Vec<BackendRow>,
}

/// The full cross-backend comparison.
#[derive(Debug, Clone)]
pub struct BackendComparison {
    /// Compared regimes, mild first.
    pub regimes: Vec<BackendRegime>,
}

/// Runs every backend over both regimes' corpora: the `backends-mild`
/// preset and the scale's `monitor` world, both seeded from `cfg`.
///
/// # Errors
///
/// Fails only if a world's flows cannot carry the watermark layout
/// (see [`stepstone_watermark::WatermarkError::FlowTooShort`]).
pub fn compare(cfg: &ExperimentConfig) -> Result<BackendComparison, ScenarioRunError> {
    let regimes = [
        ("mild", cfg.preset("backends-mild")),
        ("stress", cfg.monitor_spec()),
    ];
    let mut out = Vec::new();
    for (name, base) in regimes {
        let mut rows = Vec::new();
        for backend in Backend::ALL {
            let spec = ScenarioSpec {
                backend,
                ..base.clone()
            };
            let report = replay(&spec, None)?;
            let (mean_cost_true, mean_cost_other) = batch_costs(&spec)?;
            rows.push(BackendRow {
                backend: backend_kind(backend),
                detection: report.detection,
                decodes_run: report.stats.decodes_run,
                mean_cost_true,
                mean_cost_other,
                packets_per_sec: report.packets_per_sec(),
            });
        }
        out.push(BackendRegime {
            name,
            spec: base,
            rows,
        });
    }
    Ok(BackendComparison { regimes: out })
}

/// Decodes every (upstream, suspicious) pair once at full window and
/// averages the billed packet accesses (`cost + matching_cost`, the
/// monitor's per-verdict convention) over true pairs and non-pairs.
fn batch_costs(spec: &ScenarioSpec) -> Result<(f64, f64), ScenarioRunError> {
    let corpus = build_spec_corpus(spec, None, MonitorConfig::default())?;
    let (mut true_sum, mut true_n) = (0u64, 0u64);
    let (mut other_sum, mut other_n) = (0u64, 0u64);
    for (i, correlator) in corpus.correlators.iter().enumerate() {
        for (flow_id, flow) in &corpus.suspicious {
            let outcome = correlator.correlate(flow);
            let billed = outcome.cost + outcome.matching_cost;
            if flow_id.0 == i as u64 {
                true_sum += billed;
                true_n += 1;
            } else {
                other_sum += billed;
                other_n += 1;
            }
        }
    }
    let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    Ok((mean(true_sum, true_n), mean(other_sum, other_n)))
}

impl fmt::Display for BackendComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for regime in &self.regimes {
            let s = &regime.spec;
            writeln!(
                f,
                "backend comparison [{}]: {} upstreams, {} decoys, {} packets, \
                 delta {:.3}s, chaff {}/s",
                regime.name,
                s.upstreams,
                s.decoys,
                s.packets,
                s.delta_ms as f64 / 1000.0,
                s.chaff.rate()
            )?;
            writeln!(
                f,
                "{:<8} {:>3} {:>3} {:>6} {:>8} {:>15} {:>16} {:>12}",
                "backend",
                "tp",
                "fp",
                "missed",
                "decodes",
                "mean_cost_true",
                "mean_cost_other",
                "packets/sec"
            )?;
            for row in &regime.rows {
                writeln!(
                    f,
                    "{:<8} {:>3} {:>3} {:>6} {:>8} {:>15.0} {:>16.0} {:>12.0}",
                    row.backend.name(),
                    row.detection.true_positives,
                    row.detection.false_positives,
                    row.detection.missed,
                    row.decodes_run,
                    row.mean_cost_true,
                    row.mean_cost_other,
                    row.packets_per_sec
                )?;
            }
        }
        Ok(())
    }
}

impl BackendComparison {
    /// Renders the comparison as a stable JSON document (hand-rolled;
    /// the workspace vendors no JSON serializer), the shape checked in
    /// as `BENCH_backends.json`. Throughput and decode counts are
    /// intentionally omitted — throughput varies with the host, and
    /// the number of incremental decodes depends on how shard threads
    /// batch window growth — so the file is reproducible from the
    /// seed alone.
    pub fn to_json(&self, scale: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"bench\": \"backends\",\n");
        out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
        out.push_str(
            "  \"note\": \"same seed-derived corpus decoded by every backend; \
             cost is packet accesses per full-window decode\",\n",
        );
        out.push_str("  \"regimes\": {\n");
        for (ri, regime) in self.regimes.iter().enumerate() {
            let s = &regime.spec;
            out.push_str(&format!("    \"{}\": {{\n", regime.name));
            out.push_str(&format!(
                "      \"scenario\": {{\"upstreams\": {}, \"decoys\": {}, \"packets\": {}, \
                 \"delta_secs\": {}, \"chaff_per_sec\": {}}},\n",
                s.upstreams,
                s.decoys,
                s.packets,
                s.delta_ms as f64 / 1000.0,
                s.chaff.rate()
            ));
            out.push_str("      \"backends\": {\n");
            for (i, row) in regime.rows.iter().enumerate() {
                out.push_str(&format!(
                    "        \"{}\": {{\"true_positives\": {}, \"false_positives\": {}, \
                     \"missed\": {}, \"mean_cost_true\": {:.1}, \
                     \"mean_cost_other\": {:.1}}}{}\n",
                    row.backend.name(),
                    row.detection.true_positives,
                    row.detection.false_positives,
                    row.detection.missed,
                    row.mean_cost_true,
                    row.mean_cost_other,
                    if i + 1 == regime.rows.len() { "" } else { "," }
                ));
            }
            out.push_str("      }\n");
            out.push_str(&format!(
                "    }}{}\n",
                if ri + 1 == self.regimes.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn comparison_covers_every_backend_in_order() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let comparison = compare(&cfg).expect("quick corpora carry the layout");
        assert_eq!(comparison.regimes.len(), 2);
        for regime in &comparison.regimes {
            let kinds: Vec<BackendKind> = regime.rows.iter().map(|r| r.backend).collect();
            assert_eq!(kinds, BackendKind::ALL.to_vec());
            for row in &regime.rows {
                assert_eq!(
                    row.detection.true_positives + row.detection.missed,
                    regime.spec.upstreams
                );
                assert!(row.mean_cost_true > 0.0);
            }
        }
        // In the mild regime every backend separates true pairs from
        // decoys; in the saturated stress regime the passive backends
        // must go quiet rather than false-positive.
        let mild = &comparison.regimes[0];
        for row in &mild.rows {
            assert_eq!(
                row.detection.missed, 0,
                "{} missed in mild regime",
                row.backend
            );
            assert_eq!(
                row.detection.false_positives, 0,
                "{} FP in mild regime",
                row.backend
            );
        }
        let stress = &comparison.regimes[1];
        for row in &stress.rows {
            if row.backend != BackendKind::Paper {
                assert_eq!(
                    row.detection.false_positives, 0,
                    "{} FP under saturation",
                    row.backend
                );
            }
        }
        let rendered = comparison.to_string();
        assert!(rendered.contains("backend comparison [mild]"), "{rendered}");
        let json = comparison.to_json("quick");
        assert!(json.contains("\"regimes\""), "{json}");
        assert!(json.contains("\"game\""), "{json}");
    }
}
