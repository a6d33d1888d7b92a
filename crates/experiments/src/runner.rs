//! Grid-point evaluation: detection rates, false-positive rates, costs.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::thread;

use stepstone_flow::{Flow, TimeDelta};
use stepstone_stats::{CostSummary, RateEstimate};
use stepstone_traffic::Seed;

use crate::config::ExperimentConfig;
use crate::dataset::{attacked, Dataset};
use crate::schemes::SCHEMES;

/// Results of one `(Δ, λc)` grid point: a rate and a cost summary per
/// scheme (indexed like [`SCHEMES`]).
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// The maximum delay / perturbation bound at this point.
    pub delta: TimeDelta,
    /// The chaff rate at this point.
    pub chaff: f64,
    /// Detection or false-positive rate per scheme.
    pub rates: [RateEstimate; 5],
    /// Cost per scheme, over the same runs.
    pub costs: [CostSummary; 5],
}

impl GridPoint {
    fn empty(delta: TimeDelta, chaff: f64) -> Self {
        GridPoint {
            delta,
            chaff,
            rates: [RateEstimate::empty(); 5],
            costs: [CostSummary::new(); 5],
        }
    }

    fn merge(&mut self, other: &GridPoint) {
        for k in 0..SCHEMES.len() {
            self.rates[k].merge(other.rates[k]);
            self.costs[k].merge(other.costs[k]);
        }
    }
}

/// Evaluates grid points over a prepared dataset.
#[derive(Debug, Clone, Copy)]
pub struct Runner<'a> {
    cfg: &'a ExperimentConfig,
    ds: &'a Dataset,
}

impl<'a> Runner<'a> {
    /// Creates a runner.
    pub fn new(cfg: &'a ExperimentConfig, ds: &'a Dataset) -> Self {
        Runner { cfg, ds }
    }

    /// Detection at `(Δ, λc)`: each trace's watermarked flow is
    /// perturbed (bound `Δ`) and chaffed (rate `λc`), then every scheme
    /// correlates the original against its own attacked flow (paper:
    /// "calculating the correlation between each original flow and its
    /// perturbed and chaffed flows").
    pub fn detection_point(&self, delta: TimeDelta, chaff: f64) -> GridPoint {
        let items: Vec<usize> = (0..self.ds.len()).collect();
        let partials = parallel_map(&items, |&i| {
            let up = &self.ds.flows()[i];
            let suspicious = attacked(&up.marked, delta, chaff, self.attack_seed(i, delta, chaff));
            let mut point = GridPoint::empty(delta, chaff);
            for s in SCHEMES {
                let (correlated, cost) = s.correlate(up, &suspicious, delta, self.cfg);
                point.rates[s.index()].record(correlated);
                point.costs[s.index()].record(cost);
            }
            point
        });
        reduce(delta, chaff, partials)
    }

    /// False positives at `(Δ, λc)`: each upstream flow is correlated
    /// against the attacked flows of *other* traces (paper: "correlating
    /// each original flow with the perturbed and chaffed flows of other
    /// 90 flows"). Pair sampling follows the configuration.
    pub fn fpr_point(&self, delta: TimeDelta, chaff: f64) -> GridPoint {
        let pairs = self.cfg.fpr_index_pairs();
        // Build each distinct downstream flow once.
        let mut downstream: HashMap<usize, Flow> = HashMap::new();
        for &(_, j) in &pairs {
            downstream.entry(j).or_insert_with(|| {
                attacked(
                    &self.ds.flows()[j].marked,
                    delta,
                    chaff,
                    self.attack_seed(j, delta, chaff),
                )
            });
        }
        let partials = parallel_map(&pairs, |&(i, j)| {
            let up = &self.ds.flows()[i];
            let suspicious = &downstream[&j];
            let mut point = GridPoint::empty(delta, chaff);
            for s in SCHEMES {
                let (correlated, cost) = s.correlate(up, suspicious, delta, self.cfg);
                point.rates[s.index()].record(correlated);
                point.costs[s.index()].record(cost);
            }
            point
        });
        reduce(delta, chaff, partials)
    }

    /// The attack seed for trace `i` at a grid point: every
    /// `(trace, Δ, λc)` triple gets an independent stream.
    fn attack_seed(&self, i: usize, delta: TimeDelta, chaff: f64) -> Seed {
        self.cfg
            .seed
            .child(0xA77A)
            .child(i as u64)
            .child(delta.as_micros() as u64)
            .child((chaff * 1000.0).round() as u64)
    }
}

fn reduce(delta: TimeDelta, chaff: f64, partials: Vec<GridPoint>) -> GridPoint {
    let mut total = GridPoint::empty(delta, chaff);
    for p in &partials {
        total.merge(p);
    }
    total
}

/// Maps `f` over `items`, fanning out over the available cores with
/// scoped threads (sequential on single-core machines).
fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Vec<R>> = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(|| slice.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "re-raise a worker panic on the driver thread; swallowing it would fake results"
        )]
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect();
        out = joined;
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::schemes::Scheme;

    fn setup() -> (ExperimentConfig, Dataset) {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let ds = Dataset::build(&cfg);
        (cfg, ds)
    }

    #[test]
    fn detection_point_counts_every_trace() {
        let (cfg, ds) = setup();
        let p = Runner::new(&cfg, &ds).detection_point(TimeDelta::from_secs(2), 1.0);
        for s in SCHEMES {
            assert_eq!(p.rates[s.index()].trials(), cfg.corpus as u64, "{s}");
            assert_eq!(p.costs[s.index()].count(), cfg.corpus as u64, "{s}");
        }
    }

    #[test]
    fn active_schemes_detect_at_moderate_attack() {
        let (cfg, ds) = setup();
        let p = Runner::new(&cfg, &ds).detection_point(TimeDelta::from_secs(4), 2.0);
        for s in [Scheme::Greedy, Scheme::GreedyPlus, Scheme::Optimal] {
            assert!(
                p.rates[s.index()].rate() >= 0.8,
                "{s}: {}",
                p.rates[s.index()]
            );
        }
        // Chaff destroys the basic scheme.
        assert!(
            p.rates[Scheme::BasicWm.index()].rate() <= 0.4,
            "wm: {}",
            p.rates[Scheme::BasicWm.index()]
        );
    }

    #[test]
    fn fpr_point_counts_every_pair() {
        let (cfg, ds) = setup();
        let p = Runner::new(&cfg, &ds).fpr_point(TimeDelta::from_secs(2), 1.0);
        let pairs = cfg.fpr_pair_count() as u64;
        for s in SCHEMES {
            assert_eq!(p.rates[s.index()].trials(), pairs, "{s}");
        }
    }

    #[test]
    fn points_are_deterministic() {
        let (cfg, ds) = setup();
        let r = Runner::new(&cfg, &ds);
        let a = r.detection_point(TimeDelta::from_secs(1), 1.0);
        let b = r.detection_point(TimeDelta::from_secs(1), 1.0);
        for k in 0..SCHEMES.len() {
            assert_eq!(a.rates[k], b.rates[k]);
        }
    }

    #[test]
    fn greedy_detection_dominates_greedy_plus() {
        // Greedy's Hamming lower bound ⇒ it can only detect more.
        let (cfg, ds) = setup();
        let r = Runner::new(&cfg, &ds);
        for (delta, chaff) in [(2, 1.0), (7, 3.0)] {
            let p = r.detection_point(TimeDelta::from_secs(delta), chaff);
            assert!(
                p.rates[Scheme::Greedy.index()].rate()
                    >= p.rates[Scheme::GreedyPlus.index()].rate(),
                "Δ={delta} λc={chaff}"
            );
        }
    }
}
