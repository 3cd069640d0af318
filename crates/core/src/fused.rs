//! The FAST kernel: one δ-window scan per center node, const-generic over
//! which motif families it counts.
//!
//! Algorithms 1 and 2 enumerate exactly the same `(e_i, e_j)` pairs of
//! `S_u` — a first edge and a later edge within δ — and differ only in
//! what they do per pair: Algorithm 1 answers second-edge queries from
//! the [`NeighborScratch`] counters, Algorithm 2 probes the pair edge
//! list `E(v, w)`. This module holds the one loop that enumerates those
//! pairs; its `STAR` and `TRI` parameters select the per-pair work at
//! compile time:
//!
//! * `<true, true>` counts all 36 motifs in one scan. Every whole-graph
//!   driver runs it: [`crate::count_motifs`], [`crate::Hare::count_all`],
//!   out-of-core, sampling and per-node profiles;
//! * `<true, false>` counts star and pair motifs ([`crate::fast_star`]);
//! * `<false, true>` counts triangle motifs ([`crate::fast_tri`]).
//!
//! The scan is data-oriented:
//!
//! * one traversal of the SoA timestamp lane per first edge, sharing the
//!   `t ≤ t_1 + δ` window bound and the scratch population between the
//!   star/pair and triangle updates;
//! * flat per-node accumulators (`[u64; 24]` star, `[u64; 8]` pair,
//!   `[u64; 24]` triangle) with `(d1, d3)`-hoisted offsets instead of
//!   per-step indexed counter calls, folded into the shared counters
//!   once per call;
//! * branch-free triangle type classification (two total-order
//!   comparisons summed).
//!
//! Counter addition is commutative, so the star-only and triangle-only
//! instantiations summed must equal the full one; the tests below pin
//! that, which checks that the two flags are decoupled. Exactness itself
//! is checked against brute-force enumeration by the differential
//! suites.
//!
//! hare-lint: no-alloc

use crate::counters::{PairCounter, StarCounter, TriCounter};
use crate::scratch::NeighborScratch;
use hare_obs::{NoopProbe, Phase, Probe};
use temporal_graph::{NodeId, TemporalGraph, Timestamp, TsLane, TsRead};

/// Count star, pair and triangle motifs centered at `u` in one scan,
/// restricted to first-edge positions `first_edge_range` within `S_u`
/// (the full range fuses Algorithms 1 and 2; sub-ranges are HARE's
/// intra-node parallel unit).
///
/// `scratch` must cover the graph's node count; it is reset internally.
#[allow(clippy::too_many_arguments)] // one counter per motif family
pub fn count_node_all_range(
    g: &TemporalGraph,
    u: NodeId,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
    star: &mut StarCounter,
    pair: &mut PairCounter,
    tri: &mut TriCounter,
) {
    let mut star_acc = [0u64; 24];
    let mut pair_acc = [0u64; 8];
    let mut tri_acc = [0u64; 24];
    count_node_into::<true, true>(
        g,
        u,
        first_edge_range,
        delta,
        scratch,
        &mut star_acc,
        &mut pair_acc,
        &mut tri_acc,
    );
    star.add_flat(&star_acc);
    pair.add_flat(&pair_acc);
    tri.add_flat(&tri_acc);
}

/// The scan for one center node, accumulating into caller-owned flat
/// arrays so whole-graph drivers (and the sampling engine's per-window
/// tasks) can fold into the shared counters once per run instead of
/// once per node. Arrays of a family the instantiation does not count
/// are left untouched, and with `STAR = false` so is `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_node_into<const STAR: bool, const TRI: bool>(
    g: &TemporalGraph,
    u: NodeId,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
    star_acc: &mut [u64; 24],
    pair_acc: &mut [u64; 8],
    tri_acc: &mut [u64; 24],
) {
    // One layout dispatch per node; the generic scan monomorphises so the
    // raw path compiles to plain slice indexing and the compressed path
    // inlines the O(1) bit-unpack.
    let s = g.node_events(u);
    match s.ts_lane() {
        TsLane::Raw(ts) => fused_scan::<_, STAR, TRI>(
            g,
            &s,
            ts,
            first_edge_range,
            delta,
            scratch,
            star_acc,
            pair_acc,
            tri_acc,
        ),
        TsLane::Packed(p) => fused_scan::<_, STAR, TRI>(
            g,
            &s,
            p,
            first_edge_range,
            delta,
            scratch,
            star_acc,
            pair_acc,
            tri_acc,
        ),
    }
}

/// The scan proper, generic over the timestamp lane representation and
/// over the motif families it counts.
///
/// The window upper bound `t_hi = t_1 + δ` is non-decreasing in `i`, so
/// its end position `j_end` is maintained by a monotone two-pointer
/// advance instead of a per-`j` compare-and-break: the inner loops below
/// run over `i+1..j_end` with a hoisted trip count, which keeps them
/// branch-minimal and auto-vectorisation-friendly, and makes the window
/// bound derivation O(2|E|) amortised per node instead of O(Σ window²).
///
/// `STAR` guards the scratch and the star/pair updates, `TRI` the bloom
/// test, the pair-list probe and the triangle updates; both are
/// constants, so each instantiation compiles to a loop holding only its
/// own work.
#[allow(clippy::too_many_arguments)]
fn fused_scan<T: TsRead, const STAR: bool, const TRI: bool>(
    g: &TemporalGraph,
    s: &temporal_graph::NodeEvents<'_>,
    ts: T,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
    star_acc: &mut [u64; 24],
    pair_acc: &mut [u64; 8],
    tri_acc: &mut [u64; 24],
) {
    let packed = s.packed_lane();
    let eids = s.edge_lane();
    let pairs = g.pairs();
    let n_events = ts.len();
    debug_assert!(first_edge_range.end <= n_events);

    let mut j_end = first_edge_range.start;
    for i in first_edge_range {
        let t1 = ts.at(i);
        let t_hi = t1.saturating_add(delta);
        if j_end <= i {
            j_end = i + 1;
        }
        while j_end < n_events && ts.at(j_end) <= t_hi {
            j_end += 1;
        }
        // Empty δ-window: nothing can complete — skip all setup. Bursty
        // real graphs leave most windows empty at paper-scale δ.
        if i + 1 >= j_end {
            continue;
        }
        let p1 = packed[i];
        let v = p1 >> 1;
        let d1 = (p1 & 1) as usize;
        let b1 = d1 << 2; // d1·4, hoisted over the window

        // Edge ids are chronological ranks under the global (t, input
        // position) total order, so bare id compares replace (t, edge)
        // tuple compares everywhere below.
        let e1_id = if TRI { eids[i] } else { 0 };
        // v's neighbour signature: one register test rejects the frequent
        // wedges with no closing edge before any hash probe.
        let bloom_v = if TRI { pairs.bloom_of(v) } else { 0 };
        if STAR {
            scratch.reset();
        }
        // Running totals of second-edge candidates per direction (the
        // paper's #e_in / #e_out).
        let mut n = [0u64; 2];
        // v's in-window counts, tracked in registers: v is fixed for the
        // whole window, so events to v never touch the scratch array at
        // all and the Star-III read is free.
        let mut cv = [0u64; 2];
        // One-entry pair-list memo: bursty sequences hit the same far
        // endpoint in runs, making consecutive probes of E(v, w) free.
        let mut memo_w = u32::MAX;
        let mut memo_evs: &[temporal_graph::PairEvent] = &[];

        for j in i + 1..j_end {
            let p3 = packed[j];
            let w = p3 >> 1;
            let d3 = (p3 & 1) as usize;
            let base = b1 | d3; // d1·4 + d3; d2 contributes ·2

            if w == v {
                // Pair motifs + Star-II (second edge elsewhere). No
                // triangle can span (u, v, v).
                if STAR {
                    pair_acc[base] += cv[0];
                    pair_acc[base | 2] += cv[1];
                    star_acc[8 + base] += n[0] - cv[0];
                    star_acc[8 + (base | 2)] += n[1] - cv[1];
                    cv[d3] += 1;
                }
            } else {
                // Star-I (second edge at w) + Star-III (second edge at v).
                if STAR {
                    let cw = scratch.get(w);
                    star_acc[base] += cw[0];
                    star_acc[base | 2] += cw[1];
                    star_acc[16 + base] += cv[0];
                    star_acc[16 + (base | 2)] += cv[1];
                }

                // Triangles: opposite edges from E(v, w) inside the
                // [t_j − δ, t_i + δ] window (Algorithm 2's trick). The
                // bloom test is an exact negative for unconnected pairs.
                if TRI && temporal_graph::PairIndex::bloom_may_connect(bloom_v, w) {
                    if w != memo_w {
                        memo_w = w;
                        memo_evs = pairs.events_between(v, w);
                    }
                    let evs = memo_evs;
                    if !evs.is_empty() {
                        let dk_flip = usize::from(v >= w); // dirs stored relative to lo
                        let tbase = b1 | (d3 << 1); // di·4 + dj·2
                        let ej_id = eids[j];
                        let t_lo = ts.at(j).saturating_sub(delta);
                        let start = evs.partition_point(|p| p.t < t_lo);
                        for p in &evs[start..] {
                            if p.t > t_hi {
                                break;
                            }
                            let dk = p.dir_from_lo.index() ^ dk_flip;
                            // Type by position in the chronological total
                            // order: before e_i → I (0), between → II (1),
                            // after e_j → III (2).
                            let ty = usize::from(p.edge >= e1_id) + usize::from(p.edge >= ej_id);
                            tri_acc[(ty << 3) | tbase | dk] += 1;
                        }
                    }
                }

                // e3 becomes a second-edge candidate for later third
                // edges (events to v are covered by the register pair).
                if STAR {
                    scratch.bump(w, d3);
                }
            }

            if STAR {
                n[d3] += 1;
            }
        }
    }
}

/// Count star, pair and triangle motifs centered at `u` over the whole
/// of `S_u` with the fused kernel.
pub fn count_node_all(
    g: &TemporalGraph,
    u: NodeId,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
    star: &mut StarCounter,
    pair: &mut PairCounter,
    tri: &mut TriCounter,
) {
    let len = g.node_events(u).len();
    count_node_all_range(g, u, 0..len, delta, scratch, star, pair, tri);
}

/// Sequential fused FAST over the whole graph: one scan per node filling
/// all three counters (the single-threaded hot path behind
/// [`crate::count_motifs`]). Flat accumulators live for the whole run
/// and are folded into the counter structures exactly once.
#[must_use]
pub fn fused_all(g: &TemporalGraph, delta: Timestamp) -> (StarCounter, PairCounter, TriCounter) {
    fused_all_probed(g, delta, &NoopProbe)
}

/// [`fused_all`] with a [`Probe`] observing its phase boundaries:
/// [`Phase::Scan`] wraps the per-node window scans, [`Phase::Fold`]
/// wraps the flat-accumulator fold. With [`NoopProbe`] this
/// monomorphizes to exactly [`fused_all`] — counts are bit-identical
/// across probe implementations by construction.
#[must_use]
pub fn fused_all_probed<P: Probe>(
    g: &TemporalGraph,
    delta: Timestamp,
    probe: &P,
) -> (StarCounter, PairCounter, TriCounter) {
    scan_all::<true, true, P>(g, delta, probe)
}

/// Sequential whole-graph driver for one instantiation of the scan. The
/// counters of a family the instantiation does not count come back
/// zero.
pub(crate) fn scan_all<const STAR: bool, const TRI: bool, P: Probe>(
    g: &TemporalGraph,
    delta: Timestamp,
    probe: &P,
) -> (StarCounter, PairCounter, TriCounter) {
    let mut star_acc = [0u64; 24];
    let mut pair_acc = [0u64; 8];
    let mut tri_acc = [0u64; 24];
    probe.span(Phase::Scan, || {
        let mut scan_nodes = |scratch: &mut NeighborScratch| {
            for u in g.node_ids() {
                let len = g.node_events(u).len();
                if len < 2 {
                    continue; // no (e1, e3) window can open
                }
                count_node_into::<STAR, TRI>(
                    g,
                    u,
                    0..len,
                    delta,
                    scratch,
                    &mut star_acc,
                    &mut pair_acc,
                    &mut tri_acc,
                );
            }
        };
        if STAR {
            crate::scratch::with_thread_scratch(g.num_nodes(), scan_nodes);
        } else {
            // The triangle-only scan never reads the scratch; an empty
            // one costs no allocation.
            scan_nodes(&mut NeighborScratch::new(0));
        }
    });
    probe.span(Phase::Fold, || fold_flat(&star_acc, &pair_acc, &tri_acc))
}

/// Fold flat accumulators into fresh counters.
pub(crate) fn fold_flat(
    star_acc: &[u64; 24],
    pair_acc: &[u64; 8],
    tri_acc: &[u64; 24],
) -> (StarCounter, PairCounter, TriCounter) {
    let mut star = StarCounter::default();
    let mut pair = PairCounter::default();
    let mut tri = TriCounter::default();
    star.add_flat(star_acc);
    pair.add_flat(pair_acc);
    tri.add_flat(tri_acc);
    (star, pair, tri)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_star::fast_star;
    use crate::fast_tri::fast_tri;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy, GenConfig};

    #[test]
    fn fused_equals_separate_passes_on_toy() {
        let g = paper_fig1_toy();
        for delta in [0, 5, 10, 50] {
            let (star, pair) = fast_star(&g, delta);
            let tri = fast_tri(&g, delta);
            let (fstar, fpair, ftri) = fused_all(&g, delta);
            assert_eq!(fstar, star, "delta={delta}");
            assert_eq!(fpair, pair, "delta={delta}");
            assert_eq!(ftri, tri, "delta={delta}");
        }
    }

    #[test]
    fn fused_equals_separate_passes_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi_temporal(25, 600, 800, seed);
            let delta = 150;
            let (star, pair) = fast_star(&g, delta);
            let tri = fast_tri(&g, delta);
            let (fstar, fpair, ftri) = fused_all(&g, delta);
            assert_eq!(fstar, star, "seed={seed}");
            assert_eq!(fpair, pair, "seed={seed}");
            assert_eq!(ftri, tri, "seed={seed}");
        }
    }

    #[test]
    fn fused_equals_separate_passes_on_skewed_graph() {
        let g = GenConfig {
            nodes: 80,
            edges: 2_000,
            zipf_exponent: 1.2,
            seed: 5,
            ..GenConfig::default()
        }
        .generate();
        let delta = 20_000;
        let (star, pair) = fast_star(&g, delta);
        let tri = fast_tri(&g, delta);
        let (fstar, fpair, ftri) = fused_all(&g, delta);
        assert_eq!(fstar, star);
        assert_eq!(fpair, pair);
        assert_eq!(ftri, tri);
    }

    #[test]
    fn fused_range_split_equals_full_run() {
        let g = hub_burst(30, 1_500, 8_000, 9);
        let delta = 800;
        let (full_star, full_pair, full_tri) = fused_all(&g, delta);

        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut star = StarCounter::default();
        let mut pair = PairCounter::default();
        let mut tri = TriCounter::default();
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            let third = len / 3;
            for range in [0..third, third..len] {
                count_node_all_range(
                    &g,
                    u,
                    range,
                    delta,
                    &mut scratch,
                    &mut star,
                    &mut pair,
                    &mut tri,
                );
            }
        }
        assert_eq!(star, full_star);
        assert_eq!(pair, full_pair);
        assert_eq!(tri, full_tri);
    }

    #[test]
    fn fused_empty_and_tiny_graphs() {
        for edges in [vec![], vec![temporal_graph::TemporalEdge::new(0, 1, 1)]] {
            let g = temporal_graph::TemporalGraph::from_edges(edges);
            let (star, pair, tri) = fused_all(&g, 100);
            assert_eq!(star.total() + pair.total() + tri.total(), 0);
        }
    }
}
