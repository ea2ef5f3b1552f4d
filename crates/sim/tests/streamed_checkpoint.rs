//! A checkpoint written straight to text is the tree's rendering, byte
//! for byte: [`Checkpoint::write_document`], into a `String` and through
//! an [`IoText`] into a file (what the service spools), equals
//! [`Checkpoint::document`]`.render()` (what tests, restore and tools
//! see) on every topology family, both router kinds, no faults,
//! accumulating permanent faults and a transient storm, at 1, 2 and 3
//! stepper shards, at every boundary of the run — and both parse back
//! to the same document.
//!
//! The storm runs on the protected router only, as the storm suites
//! elsewhere do: a baseline router under a storm trips the buffer's
//! debug assertion that an idle VC's first flit is a head flit.

use noc_faults::{FaultPlan, InjectionConfig};
use noc_sim::{Checkpoint, MemoryStream, Network, Simulator};
use noc_telemetry::json::{IoText, JsonValue};
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, SimConfig, TopologySpec};
use shield_router::RouterKind;
use std::fs;
use std::path::Path;

const SEED: u64 = 0x7E47_5EED;
const CYCLES: u64 = 700;

fn net_cfg(topology: &str) -> NetworkConfig {
    NetworkConfig {
        mesh_k: 4,
        topology: TopologySpec::parse_arg(topology, 4).unwrap(),
        ..NetworkConfig::paper()
    }
}

/// The three fault regimes, drawn for `routers` routers.
fn plans(cfg: &NetworkConfig, routers: usize) -> [(&'static str, FaultPlan); 3] {
    let accumulating = InjectionConfig {
        tolerated_only: false,
        ..InjectionConfig::accelerated_accumulating(150, CYCLES)
    };
    [
        ("no faults", FaultPlan::none()),
        (
            "accumulating",
            FaultPlan::uniform_random(&cfg.router, routers, &accumulating, SEED),
        ),
        (
            "transient storm",
            FaultPlan::transient_storm(&cfg.router, routers, 0.01, 20, CYCLES, SEED),
        ),
    ]
}

/// `c` encoded into the file at `path` as a job's spool writer encodes
/// it, through the fixed buffer; the file's text.
fn written_to_file(c: &Checkpoint, path: &Path) -> String {
    let mut out = IoText::new(fs::File::create(path).unwrap());
    c.write_document(&mut out);
    out.finish().unwrap();
    fs::read_to_string(path).unwrap()
}

/// Every boundary's text, after checking it, and the file, against the
/// tree.
fn streamed_documents(
    cfg: NetworkConfig,
    kind: RouterKind,
    plan: &FaultPlan,
    threads: usize,
    case: &str,
) -> Vec<String> {
    let phases = SimConfig {
        warmup_cycles: 100,
        measure_cycles: CYCLES - 300,
        drain_cycles: 200,
        seed: SEED,
    };
    let sim = Simulator::new(cfg, phases, kind, plan.clone())
        .with_threads(threads)
        .with_sample_every(90)
        .with_checkpoint_every(97);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.15);
    let topology = Network::with_faults(cfg, kind, &FaultPlan::none());
    let mut gen = TrafficGenerator::for_topology(traffic, topology.topology(), SEED);
    let mut texts = Vec::new();
    let mut text = String::new();
    let file = std::env::temp_dir().join(format!("noc-streamed-checkpoint-{}", std::process::id()));
    let check = |c: Checkpoint, text: &mut String| {
        // Into a buffer that still holds the previous document: the
        // writer appends, the caller clears.
        text.clear();
        c.write_document(text);
        let tree = c.document();
        let rendered = tree.render();
        let cycle = c.head().cycle();
        assert!(
            *text == rendered,
            "{case}: the streamed checkpoint at cycle {cycle} differs from the tree's",
        );
        assert!(
            written_to_file(&c, &file) == rendered,
            "{case}: the checkpoint file at cycle {cycle} differs from the tree's",
        );
        assert_eq!(JsonValue::parse(text).unwrap(), tree, "{case}");
    };
    sim.run_streamed(&mut gen, &mut MemoryStream::new(), None, |c| {
        check(c, &mut text);
        texts.push(text.clone());
        true
    })
    .unwrap();
    let _ = fs::remove_file(&file);
    assert!(texts.len() >= 4, "{case}: only {} checkpoints", texts.len());
    texts
}

#[test]
fn streamed_checkpoints_equal_the_rendered_tree() {
    for topology in ["mesh", "torus", "cutmesh3", "chipletmesh", "chipletstar"] {
        let cfg = net_cfg(topology);
        let routers = Network::new(cfg, RouterKind::Protected).topology().len();
        for kind in [RouterKind::Baseline, RouterKind::Protected] {
            for (faults, plan) in plans(&cfg, routers) {
                if kind == RouterKind::Baseline && faults == "transient storm" {
                    continue;
                }
                let mut serial = None;
                for threads in [1, 2, 3] {
                    let case = format!("{topology}, {kind:?}, {faults}, {threads} shards");
                    let texts = streamed_documents(cfg, kind, &plan, threads, &case);
                    // The shard count does not show in the text either.
                    match &serial {
                        None => serial = Some(texts),
                        Some(serial) => assert!(*serial == texts, "{case}"),
                    }
                }
            }
        }
    }
}
