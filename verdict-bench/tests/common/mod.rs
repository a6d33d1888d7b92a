//! Small copies of the benchmark workloads, for tests.

use stepstone_scenario::ScenarioSpec;
use stepstone_verdict_bench::Workload;

/// `workload` at 16 upstreams + 16 decoys (512 candidate pairs) and
/// 800-packet flows, its regime and decode settings unchanged. With 32
/// flows, hundreds of decodes land on a shard between two boundaries of
/// one pair, so the same pass schedules the same decodes every time.
pub fn small(workload: &Workload) -> ScenarioSpec {
    let mut spec = workload.spec(None).expect("workload parses");
    spec.upstreams = 16;
    spec.decoys = 16;
    spec.packets = 800;
    spec.validate().expect("the small copy is a valid spec");
    spec
}
