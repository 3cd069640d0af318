//! FAST-Star (Algorithm 1): exact counting of all star and pair temporal
//! motifs.
//!
//! For every node `u` taken as center, the algorithm slides a `(first
//! edge, third edge)` pair `(e1, e3)` over the time-ordered event sequence
//! `S_u` with `e3.t − e1.t ≤ δ`. Second-edge candidates are *not* scanned:
//! per-neighbour direction counts accumulated while advancing `e3`
//! ([`NeighborScratch`], the paper's `m_in`/`m_out`) answer every "how many
//! qualifying second edges" query in O(1):
//!
//! * `e3.v == e1.v` — second edges to that same neighbour complete **pair**
//!   motifs; second edges to any other neighbour complete **Star-II**
//!   motifs (Fig. 6);
//! * `e3.v != e1.v` — second edges to `e3.v` complete **Star-I** motifs
//!   (Fig. 4); second edges to `e1.v` complete **Star-III** motifs
//!   (Fig. 5).
//!
//! Each star instance is counted exactly once (at its unique center); each
//! pair instance is counted once from each endpoint (handled by the
//! center-based fold in [`PairCounter::add_to_matrix_center_based`]).
//!
//! Worst-case time is `O(Σ_u d_u · d_u^δ)` ≈ `O(2 d^δ |E|)` — linear in the
//! number of temporal edges for fixed window density (§IV.A.4).
//!
//! The scan is the `<true, false>` instantiation of the one FAST
//! kernel in [`crate::fused`]: the same window loop as the full count,
//! with the triangle work compiled out.
//!
//! hare-lint: no-alloc

use crate::counters::{PairCounter, StarCounter};
use crate::fused::{count_node_into, scan_all};
use crate::scratch::NeighborScratch;
use hare_obs::NoopProbe;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

/// Count star/pair motifs centered at `u`, restricted to first-edge
/// positions `first_edge_range` within `S_u` (the full range reproduces
/// Algorithm 1; sub-ranges are the intra-node parallel unit of HARE).
///
/// `scratch` must be sized for the graph's node count; it is reset
/// internally.
pub fn count_node_star_pair_range(
    g: &TemporalGraph,
    u: NodeId,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
    star: &mut StarCounter,
    pair: &mut PairCounter,
) {
    // Flat accumulators (index ty·8 + d1·4 + d2·2 + d3 / d1·4 + d2·2 + d3);
    // the shared counters are touched once per call.
    let mut star_acc = [0u64; 24];
    let mut pair_acc = [0u64; 8];
    count_node_into::<true, false>(
        g,
        u,
        first_edge_range,
        delta,
        scratch,
        &mut star_acc,
        &mut pair_acc,
        &mut [0; 24],
    );
    star.add_flat(&star_acc);
    pair.add_flat(&pair_acc);
}

/// Count star/pair motifs centered at `u` over the whole of `S_u`.
pub fn count_node_star_pair(
    g: &TemporalGraph,
    u: NodeId,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
    star: &mut StarCounter,
    pair: &mut PairCounter,
) {
    let len = g.node_events(u).len();
    count_node_star_pair_range(g, u, 0..len, delta, scratch, star, pair);
}

/// Sequential FAST-Star over the whole graph: returns the star and pair
/// counters (fold them with the `counters` module to obtain grid counts).
#[must_use]
pub fn fast_star(g: &TemporalGraph, delta: Timestamp) -> (StarCounter, PairCounter) {
    let (star, pair, _) = scan_all::<true, false, _>(g, delta, &NoopProbe);
    (star, pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motif::StarType::{I, II, III};
    use temporal_graph::gen::paper_fig1_toy;
    use temporal_graph::Dir::{In, Out};
    use temporal_graph::TemporalEdge;

    /// §IV.A.3 walks Algorithm 1 over center v_a of the Fig. 1 toy graph
    /// with δ = 10s and derives exactly four counts. Reproduce the walk.
    #[test]
    fn paper_walkthrough_center_va() {
        let g = paper_fig1_toy();
        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut star = StarCounter::default();
        let mut pair = PairCounter::default();
        count_node_star_pair(&g, 0, 10, &mut scratch, &mut star, &mut pair);

        assert_eq!(star.get(III, Out, Out, In), 1, "Star[III,o,o,in]");
        assert_eq!(star.get(III, Out, Out, Out), 1, "Star[III,o,o,o]");
        assert_eq!(star.get(II, Out, In, Out), 1, "Star[II,o,in,o]");
        assert_eq!(star.get(II, Out, Out, Out), 1, "Star[II,o,o,o]");
        // ... and nothing else.
        assert_eq!(star.total(), 4);
        assert_eq!(pair.total(), 0);
    }

    /// The 2-node instance <(v_d,v_e,14s),(v_e,v_d,18s),(v_d,v_e,21s)> is
    /// M65 (§III). From center v_d it is Pair[o,in,o]; from center v_e it
    /// is Pair[in,o,in].
    #[test]
    fn pair_instance_from_both_endpoints() {
        let g = paper_fig1_toy();
        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut star = StarCounter::default();
        let mut pair = PairCounter::default();
        count_node_star_pair(&g, 3, 10, &mut scratch, &mut star, &mut pair);
        assert_eq!(pair.get(Out, In, Out), 1);
        let mut pair_e = PairCounter::default();
        count_node_star_pair(&g, 4, 10, &mut scratch, &mut star, &mut pair_e);
        assert_eq!(pair_e.get(In, Out, In), 1);
    }

    #[test]
    fn whole_graph_pair_counter_is_mirror_balanced() {
        let g = paper_fig1_toy();
        let (_, pair) = fast_star(&g, 10);
        assert!(pair.mirror_cells_balanced());
        // Exactly one pair instance exists in the toy graph at δ=10 (M65).
        assert_eq!(pair.total(), 2); // counted once per endpoint
        assert_eq!(pair.get(Out, In, Out), 1);
        assert_eq!(pair.get(In, Out, In), 1);
    }

    /// The instance <(v_a,v_c,4s),(v_a,v_c,8s),(v_d,v_a,9s)> is M63 (§III):
    /// a Star-III with dirs (o, o, in) from center v_a — and our first
    /// walkthrough count above. Check the canonical fold sends it to M63.
    #[test]
    fn m63_instance_lands_in_m63() {
        use crate::motif::{m, star_motif};
        assert_eq!(star_motif(III, Out, Out, In), m(6, 3));
    }

    #[test]
    fn delta_zero_counts_only_simultaneous_edges() {
        // Three edges at the same timestamp around a center: with δ=0 all
        // windows qualify; order is input order. e1 and e3 bond to node 1,
        // the isolated middle edge goes to node 2 — a Star-II.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(0, 2, 5),
            TemporalEdge::new(0, 1, 5),
        ]);
        let (star, pair) = fast_star(&g, 0);
        assert_eq!(star.get(II, Out, Out, Out), 1);
        assert_eq!(star.total(), 1);
        assert_eq!(pair.total(), 0);
    }

    #[test]
    fn three_edges_to_three_distinct_neighbours_is_not_a_motif() {
        // u with one edge to each of three different nodes induces a
        // 4-node subgraph — outside the 2-/3-node motif universe.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(0, 3, 3),
        ]);
        let (star, pair) = fast_star(&g, 100);
        assert_eq!(star.total() + pair.total(), 0);
    }

    #[test]
    fn delta_excludes_out_of_window_triples() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 2, 5),
            TemporalEdge::new(0, 1, 11),
        ]);
        let (star, _) = fast_star(&g, 10);
        assert_eq!(star.total(), 0, "span 11 > delta 10");
        let (star, _) = fast_star(&g, 11);
        assert_eq!(star.get(II, Out, Out, Out), 1);
        assert_eq!(star.total(), 1);
    }

    #[test]
    fn range_split_equals_full_run() {
        let g = temporal_graph::gen::erdos_renyi_temporal(20, 300, 1_000, 42);
        let delta = 100;
        let (full_star, full_pair) = fast_star(&g, delta);

        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut star = StarCounter::default();
        let mut pair = PairCounter::default();
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            let mid = len / 2;
            count_node_star_pair_range(&g, u, 0..mid, delta, &mut scratch, &mut star, &mut pair);
            count_node_star_pair_range(&g, u, mid..len, delta, &mut scratch, &mut star, &mut pair);
        }
        assert_eq!(star, full_star);
        assert_eq!(pair, full_pair);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![]);
        let (star, pair) = fast_star(&g, 100);
        assert_eq!(star.total() + pair.total(), 0);

        let g = temporal_graph::TemporalGraph::from_edges(vec![TemporalEdge::new(0, 1, 1)]);
        let (star, pair) = fast_star(&g, 100);
        assert_eq!(star.total() + pair.total(), 0);

        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 2, 2),
        ]);
        let (star, pair) = fast_star(&g, 100);
        assert_eq!(star.total() + pair.total(), 0, "3 edges needed");
    }

    #[test]
    fn pure_pair_burst() {
        // 3 edges 0->1: one pair instance, direction pattern ooo from 0.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 1, 2),
            TemporalEdge::new(0, 1, 3),
        ]);
        let (star, pair) = fast_star(&g, 10);
        assert_eq!(star.total(), 0);
        assert_eq!(pair.get(Out, Out, Out), 1);
        assert_eq!(pair.get(In, In, In), 1);
        assert_eq!(pair.total(), 2);
    }

    #[test]
    fn star_i_detection() {
        // e1 isolated first edge to node 1; then two edges to node 2.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(2, 0, 3),
        ]);
        let (star, _) = fast_star(&g, 10);
        assert_eq!(star.get(I, Out, Out, In), 1);
        // From center 0 only; nodes 1 and 2 are not centers of any star
        // (their sequences hold < 3 edges... node 2 has 2 events).
        assert_eq!(star.total(), 1);
    }
}
