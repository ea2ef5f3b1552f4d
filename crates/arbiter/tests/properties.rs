//! Property-based tests for arbiters and the separable allocator,
//! driven by a seeded RNG over many widths and request patterns.

use noc_arbiter::{
    Arbiter, ArbiterKind, FixedPriorityArbiter, MatrixArbiter, RequestMatrix, RoundRobinArbiter,
    SeparableAllocator,
};
use noc_types::rng::Rng;

fn mask(width: usize) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

/// Every grant must correspond to an asserted request, for every arbiter.
fn grant_implies_request<A: Arbiter>(mut arb: A, reqs: Vec<u32>) {
    let w = arb.width();
    for r in reqs {
        match arb.arbitrate(r) {
            Some(g) => {
                assert!(g < w, "grant index within width");
                assert!(r & (1 << g) != 0, "granted line was requesting");
            }
            None => assert_eq!(r & mask(w), 0, "no grant only when no requests"),
        }
    }
}

fn random_requests(rng: &mut Rng, len: usize) -> Vec<u32> {
    (0..len).map(|_| (rng.next_u64() >> 32) as u32).collect()
}

#[test]
fn round_robin_grant_implies_request() {
    let mut rng = Rng::seeded(0xA1);
    for width in 1usize..=32 {
        for _ in 0..8 {
            let reqs = random_requests(&mut rng, 64);
            grant_implies_request(RoundRobinArbiter::new(width), reqs);
        }
    }
}

#[test]
fn matrix_grant_implies_request() {
    let mut rng = Rng::seeded(0xA2);
    for width in 1usize..=16 {
        for _ in 0..8 {
            let reqs = random_requests(&mut rng, 64);
            grant_implies_request(MatrixArbiter::new(width), reqs);
        }
    }
}

#[test]
fn fixed_grant_implies_request() {
    let mut rng = Rng::seeded(0xA3);
    for width in 1usize..=32 {
        for _ in 0..8 {
            let reqs = random_requests(&mut rng, 64);
            grant_implies_request(FixedPriorityArbiter::new(width), reqs);
        }
    }
}

/// Under persistent full request, a round-robin arbiter grants every
/// line exactly once per `width` consecutive cycles (strict fairness).
#[test]
fn round_robin_fairness_window() {
    for width in 1usize..=32 {
        for rounds in 1usize..8 {
            let mut arb = RoundRobinArbiter::new(width);
            let full = mask(width);
            let mut counts = vec![0u32; width];
            for _ in 0..rounds * width {
                let g = arb.arbitrate(full).unwrap();
                counts[g] += 1;
            }
            for c in &counts {
                assert_eq!(*c as usize, rounds);
            }
        }
    }
}

/// A matrix arbiter never starves a persistently-requesting line:
/// within `width` cycles of persistent request it must be granted.
#[test]
fn matrix_no_starvation() {
    let mut rng = Rng::seeded(0xA4);
    for width in 2usize..=12 {
        for line in 0..width {
            let noise = (rng.next_u64() >> 32) as u32;
            let mut arb = MatrixArbiter::new(width);
            // Arbitrary history to scramble priorities.
            for _ in 0..width {
                arb.arbitrate(noise & mask(width));
            }
            let full = mask(width);
            let granted = (0..width).any(|_| arb.arbitrate(full) == Some(line));
            assert!(granted, "line {line} starved at width {width}");
        }
    }
}

/// The separable allocator always produces a matching consistent with
/// the request matrix, for arbitrary request patterns.
#[test]
fn separable_allocation_is_a_valid_matching() {
    let mut rng = Rng::seeded(0xA5);
    for _ in 0..200 {
        let requestors = 1 + rng.index(20);
        let resources = 1 + rng.index(20);
        let cycles = 1 + rng.index(5);
        let mut alloc = SeparableAllocator::new(requestors, resources, ArbiterKind::RoundRobin);
        let mut m = RequestMatrix::new(requestors, resources);
        for r in 0..requestors {
            let bits = (rng.next_u64() >> 32) as u32;
            for c in 0..resources {
                if bits & (1 << c) != 0 {
                    m.request(r, c);
                }
            }
        }
        for _ in 0..cycles {
            let grants = alloc.allocate(&m);
            let mut used = vec![false; resources];
            for (r, g) in grants.iter().enumerate() {
                if let Some(res) = *g {
                    assert!(m.is_requested(r, res));
                    assert!(!used[res]);
                    used[res] = true;
                }
            }
            // Work conservation at the single-resource level: a sole
            // requestor in the whole matrix must always be granted.
            for (r, grant) in grants.iter().enumerate() {
                let row = m.row(r);
                if row.count_ones() >= 1 && grant.is_none() {
                    let alone = (0..requestors).all(|o| o == r || m.row(o) == 0);
                    assert!(!alone, "sole requestor must always be granted");
                }
            }
        }
    }
}
