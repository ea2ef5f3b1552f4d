//! Checkpoint cost is O(live network state), not O(campaign length).
//!
//! The v1 snapshot format embedded the whole delivery log in every
//! checkpoint, so a checkpoint taken late in a campaign was arbitrarily
//! larger (and slower to render) than an early one. The v2 format
//! spools deliveries into the append-only delivery stream and records
//! only an offset, so checkpoint size must be flat across the run.
//! This pin compares a checkpoint taken near cycle 10k against one
//! taken near cycle 100k — under the old format the late one carried
//! ~10× the deliveries and dwarfed the early one.

use noc_faults::FaultPlan;
use noc_sim::{MemoryStream, Simulator};
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, SimConfig};
use shield_router::RouterKind;

#[test]
fn checkpoint_size_is_independent_of_campaign_length() {
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    let sim_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 100_000,
        drain_cycles: 0,
        seed: 0xC0_57,
    };
    // Sampling off: the epoch series is the one intentionally
    // length-dependent term (a few dozen bytes per epoch) and is not
    // what this pin is about.
    let sim = Simulator::new(net_cfg, sim_cfg, RouterKind::Protected, FaultPlan::none())
        .with_checkpoint_every(10_000);
    let topo = Topology::from_spec(&net_cfg);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.05);
    let mut gen = TrafficGenerator::for_topology(traffic, &topo, 0xC0_57);

    let mut stream = MemoryStream::new();
    let mut sizes: Vec<(u64, usize, u64)> = Vec::new(); // (cycle, bytes, offset)
    sim.run_streamed(&mut gen, &mut stream, None, |checkpoint| {
        let doc = checkpoint.document();
        let cycle = doc.get("cycle").and_then(|v| v.as_u64()).unwrap();
        let offset = doc.get("delivery_offset").and_then(|v| v.as_u64()).unwrap();
        sizes.push((cycle, doc.render().len(), offset));
        true
    })
    .expect("campaign runs");

    assert!(sizes.len() >= 10, "expected ten checkpoints, got {sizes:?}");
    let (early_cycle, early_bytes, _) = sizes[0];
    let (late_cycle, late_bytes, late_offset) = *sizes.last().unwrap();
    assert_eq!(early_cycle, 10_000);
    assert_eq!(late_cycle, 100_000);
    // The campaign must actually have delivered enough traffic that the
    // old format would have ballooned: tens of thousands of entries.
    assert!(
        late_offset > 10_000,
        "campaign too quiet to prove anything (offset {late_offset})"
    );
    // Flat within noise: live state fluctuates (buffered flits, wire
    // traffic, counter digit widths), but nothing grows with elapsed
    // cycles. Under the v1 format this ratio was >10×.
    let ratio = late_bytes as f64 / early_bytes as f64;
    assert!(
        ratio < 1.15,
        "late checkpoint ({late_bytes} B at cycle {late_cycle}) is {ratio:.2}× the early one \
         ({early_bytes} B at cycle {early_cycle}): checkpoint cost is campaign-length-dependent"
    );
}
