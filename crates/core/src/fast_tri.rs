//! FAST-Tri (Algorithm 2): exact counting of all triangle temporal motifs.
//!
//! For every node `u` taken as center, every pair of incident edges
//! `(e_i, e_j)` with `i < j`, `t_j − t_i ≤ δ` and distinct far endpoints
//! `v ≠ w` spans a potential triangle. The third side must come from the
//! pair edge list `E(v, w)`; the index is binary-searched to the δ window
//! `[t_j − δ, t_i + δ]` (the paper's "implementation trick" bounding `ξ`
//! by `d^δ`), and each edge inside it is classified by time position
//! (§IV.B.1):
//!
//! * **Triangle-I** — the opposite edge precedes `e_i`,
//! * **Triangle-II** — it lies between `e_i` and `e_j`,
//! * **Triangle-III** — it follows `e_j`.
//!
//! Classification compares the global `(t, edge_id)` total order rather
//! than raw timestamps so timestamp ties resolve identically to the
//! enumeration oracle (DESIGN.md §2.2); the δ windows still use raw
//! timestamps exactly as the paper states.
//!
//! Every triangle instance is discovered three times — once per vertex,
//! landing in the three isomorphic counter cells of its class (Fig. 8) —
//! and divided by 3 at fold time ([`TriCounter::add_to_matrix`]). The
//! paper uses the same ÷3 strategy in multi-threaded mode to keep threads
//! dependency-free; we use it unconditionally so single- and multi-thread
//! runs share one code path and produce bit-identical counters.
//!
//! The scan is the `<false, true>` instantiation of the one FAST kernel
//! in [`crate::fused`]: the same window loop as the full count, with the
//! star/pair work and the neighbour scratch compiled out.
//!
//! hare-lint: no-alloc

use crate::counters::TriCounter;
use crate::fused::{count_node_into, scan_all};
use crate::scratch::NeighborScratch;
use hare_obs::NoopProbe;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

/// Count triangle motifs centered at `u`, restricted to first-edge
/// positions `first_edge_range` within `S_u` (full range = Algorithm 2;
/// sub-ranges are HARE's intra-node parallel unit).
pub fn count_node_tri_range(
    g: &TemporalGraph,
    u: NodeId,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    tri: &mut TriCounter,
) {
    let mut tri_acc = [0u64; 24];
    // The triangle-only scan never reads the scratch; an empty one costs
    // no allocation.
    count_node_into::<false, true>(
        g,
        u,
        first_edge_range,
        delta,
        &mut NeighborScratch::new(0),
        &mut [0; 24],
        &mut [0; 8],
        &mut tri_acc,
    );
    tri.add_flat(&tri_acc);
}

/// Count triangle motifs centered at `u` over the whole of `S_u`.
pub fn count_node_tri(g: &TemporalGraph, u: NodeId, delta: Timestamp, tri: &mut TriCounter) {
    let len = g.node_events(u).len();
    count_node_tri_range(g, u, 0..len, delta, tri);
}

/// Sequential FAST-Tri over the whole graph. The returned counter holds
/// each instance three times (once per vertex); fold with
/// [`TriCounter::add_to_matrix`] to obtain per-class counts.
#[must_use]
pub fn fast_tri(g: &TemporalGraph, delta: Timestamp) -> TriCounter {
    scan_all::<false, true, _>(g, delta, &NoopProbe).2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::MotifMatrix;
    use crate::motif::m;
    use crate::motif::TriType::{I, II, III};
    use temporal_graph::gen::paper_fig1_toy;
    use temporal_graph::Dir::{In, Out};
    use temporal_graph::TemporalEdge;

    /// §IV.B.2 walks Algorithm 2 over center v_e of the Fig. 1 toy graph
    /// with δ = 10s: exactly two counts, Tri[III,o,o,o] and — after
    /// correcting the paper's typo against Fig. 8 / the §III M46 claim —
    /// Tri[II,o,in,in].
    #[test]
    fn paper_walkthrough_center_ve() {
        let g = paper_fig1_toy();
        let mut tri = TriCounter::default();
        count_node_tri(&g, 4, 10, &mut tri);
        assert_eq!(tri.get(III, Out, Out, Out), 1, "Tri[III,o,o,o]");
        assert_eq!(tri.get(II, Out, In, In), 1, "Tri[II,o,in,in]");
        assert_eq!(tri.total(), 2);
    }

    /// §IV.B.3: the M25 instance <(v_a,v_c,8s),(v_d,v_a,9s),(v_c,v_d,17s)>
    /// is seen as Tri[III,o,in,o] / Tri[II,in,o,in] / Tri[I,o,in,o] from
    /// centers v_a / v_c / v_d.
    #[test]
    fn m25_counted_from_all_three_centers() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 2, 8),  // a -> c
            TemporalEdge::new(3, 0, 9),  // d -> a
            TemporalEdge::new(2, 3, 17), // c -> d
        ]);
        let delta = 10;
        let mut from_a = TriCounter::default();
        count_node_tri(&g, 0, delta, &mut from_a);
        assert_eq!(from_a.get(III, Out, In, Out), 1);
        assert_eq!(from_a.total(), 1);

        let mut from_c = TriCounter::default();
        count_node_tri(&g, 2, delta, &mut from_c);
        assert_eq!(from_c.get(II, In, Out, In), 1);
        assert_eq!(from_c.total(), 1);

        let mut from_d = TriCounter::default();
        count_node_tri(&g, 3, delta, &mut from_d);
        assert_eq!(from_d.get(I, Out, In, Out), 1);
        assert_eq!(from_d.total(), 1);

        // Whole graph: class cells balanced, fold yields exactly one M25.
        let tri = fast_tri(&g, delta);
        assert!(tri.class_cells_balanced());
        let mut mx = MotifMatrix::default();
        tri.add_to_matrix(&mut mx);
        assert_eq!(mx.get(m(2, 5)), 1);
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn whole_toy_graph_counts_are_divisible_by_three() {
        let g = paper_fig1_toy();
        let tri = fast_tri(&g, 10);
        assert!(tri.class_cells_balanced());
        assert_eq!(tri.total() % 3, 0);
    }

    #[test]
    fn cyclic_triangle_is_m26() {
        // a->b, b->c, c->a in time order: the temporal cycle.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 2, 2),
            TemporalEdge::new(2, 0, 3),
        ]);
        let tri = fast_tri(&g, 10);
        let mut mx = MotifMatrix::default();
        tri.add_to_matrix(&mut mx);
        assert_eq!(mx.get(m(2, 6)), 1, "cyclic triangle must be M26");
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn delta_window_excludes_far_opposite_edges() {
        // Triangle whose opposite edge is 100 time units away.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(1, 2, 102),
        ]);
        assert_eq!(fast_tri(&g, 10).total(), 0);
        assert_eq!(fast_tri(&g, 101).total(), 3);
    }

    #[test]
    fn type_windows_are_exact_at_boundaries() {
        // Opposite edge exactly δ before e_j (type I boundary).
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(1, 2, 0),  // opposite
            TemporalEdge::new(0, 1, 5),  // e_i at center 0
            TemporalEdge::new(0, 2, 10), // e_j at center 0
        ]);
        // span = 10; δ=10 includes, δ=9 excludes (t_j - t_k = 10 > 9).
        assert_eq!(fast_tri(&g, 10).total(), 3);
        assert_eq!(fast_tri(&g, 9).total(), 0);
    }

    #[test]
    fn simultaneous_edges_classified_by_input_order() {
        // All three edges at t=5. Total order = input order, giving a
        // unique instance and type classification per center.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(1, 2, 5),
            TemporalEdge::new(2, 0, 5),
        ]);
        let tri = fast_tri(&g, 0);
        assert!(tri.class_cells_balanced());
        let mut mx = MotifMatrix::default();
        tri.add_to_matrix(&mut mx);
        assert_eq!(mx.get(m(2, 6)), 1); // still the cycle M26
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn multi_edges_between_pair_multiply_instances() {
        // Two parallel opposite edges -> two triangle instances.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(1, 2, 3),
            TemporalEdge::new(1, 2, 4),
        ]);
        let tri = fast_tri(&g, 10);
        let mut mx = MotifMatrix::default();
        tri.add_to_matrix(&mut mx);
        assert_eq!(mx.total(), 2);
    }

    #[test]
    fn range_split_equals_full_run() {
        let g = temporal_graph::gen::erdos_renyi_temporal(15, 300, 500, 7);
        let delta = 120;
        let full = fast_tri(&g, delta);
        let mut split = TriCounter::default();
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            let third = len / 3;
            count_node_tri_range(&g, u, 0..third, delta, &mut split);
            count_node_tri_range(&g, u, third..len, delta, &mut split);
        }
        assert_eq!(split, full);
    }

    #[test]
    fn no_triangles_in_pure_star() {
        let edges = (0..20)
            .map(|i| TemporalEdge::new(0, i + 1, i as i64))
            .collect();
        let g = temporal_graph::TemporalGraph::from_edges(edges);
        assert_eq!(fast_tri(&g, 100).total(), 0);
    }
}
