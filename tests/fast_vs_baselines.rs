//! Cross-validation of every exact algorithm in the workspace: FAST,
//! HARE, EX, BT, raw enumeration and 2SCENT must agree on the counts of
//! every motif class over a grid of workloads, seeds and δ values.
//!
//! This is the repository's central correctness argument: five
//! independently implemented algorithms (different data structures,
//! different traversal orders, different counting disciplines) producing
//! the same 36 numbers on every workload.

use hare::motif::{m, Motif, MotifCategory};
use hare::{DegreeThreshold, Hare, HareConfig, MotifMatrix};
use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, GenConfig};
use temporal_graph::TemporalGraph;

fn workloads() -> Vec<(String, TemporalGraph)> {
    let mut out = Vec::new();
    for seed in 0..3 {
        out.push((
            format!("er-{seed}"),
            erdos_renyi_temporal(20, 300, 500, seed),
        ));
    }
    out.push((
        "conversations".into(),
        GenConfig {
            nodes: 40,
            edges: 700,
            time_span: 20_000,
            seed: 5,
            ..GenConfig::default()
        }
        .generate(),
    ));
    out.push(("hub".into(), hub_burst(30, 500, 4_000, 7)));
    out.push((
        "dense-ties".into(),
        // Many simultaneous timestamps stress the tie-breaking rules.
        erdos_renyi_temporal(10, 200, 20, 11),
    ));
    out
}

#[test]
fn all_exact_algorithms_agree() {
    for (name, g) in workloads() {
        for delta in [0, 10, 120, 5_000] {
            let oracle = hare_baselines::enumerate_all(&g, delta);
            let fast = hare::count_motifs(&g, delta);
            assert_eq!(
                oracle, fast.matrix,
                "oracle vs FAST on {name} (delta {delta})"
            );
            let ex = hare_baselines::ex::count_all(&g, delta);
            assert_eq!(oracle, ex, "oracle vs EX on {name} (delta {delta})");
            let bt = hare_baselines::bt_count_all(&g, delta);
            assert_eq!(oracle, bt, "oracle vs BT on {name} (delta {delta})");
        }
    }
}

#[test]
fn specialised_variants_agree_with_full_count() {
    // The category-restricted engine paths behind `--only` / `?only=`
    // are checked against the enumeration oracle at one thread, and on
    // two threads with every node above degree 5 split into intra-node
    // sub-ranges. The extra graph holds enough events
    // (2|E| >= SEQ_FALLBACK_EVENTS) that the two-thread engine takes the
    // pool path instead of the sequential fallback.
    let engines = [
        Hare::with_threads(1),
        Hare::new(HareConfig {
            num_threads: 2,
            degree_threshold: DegreeThreshold::Fixed(5),
            min_task_events: 4,
            ..HareConfig::default()
        }),
    ];
    let pooled = erdos_renyi_temporal(200, 17_000, 20_000, 3);
    assert!(2 * pooled.num_edges() >= hare::hare::SEQ_FALLBACK_EVENTS);
    let mut graphs = workloads();
    graphs.push(("pooled".into(), pooled));
    for (name, g) in graphs {
        let delta = 300;
        let full = hare::count_motifs(&g, delta);
        let pair_only = hare::count_pair_motifs(&g, delta);
        let tri_only = hare::count_triangle_motifs(&g, delta);
        let bt_pairs = hare_baselines::bt_count_pairs(&g, delta);
        let ex_pairs = hare_baselines::ex::count_pairs(&g, delta);
        let ex_tris = hare_baselines::ex::count_triangles(&g, delta);
        for mo in Motif::all() {
            match mo.category() {
                MotifCategory::Pair => {
                    assert_eq!(full.get(mo), pair_only.get(mo), "{name} {mo} fast-pair");
                    assert_eq!(full.get(mo), bt_pairs.get(mo), "{name} {mo} bt-pair");
                    assert_eq!(full.get(mo), ex_pairs.get(mo), "{name} {mo} ex-pair");
                }
                MotifCategory::Triangle => {
                    assert_eq!(full.get(mo), tri_only.get(mo), "{name} {mo} fast-tri");
                    assert_eq!(full.get(mo), ex_tris.get(mo), "{name} {mo} ex-tri");
                }
                MotifCategory::Star => {}
            }
        }

        let oracle = hare_baselines::enumerate_all(&g, delta);
        for cat in [
            MotifCategory::Pair,
            MotifCategory::Star,
            MotifCategory::Triangle,
        ] {
            let mut expect = MotifMatrix::default();
            for mo in Motif::all().filter(|mo| mo.category() == cat) {
                expect.set(mo, oracle.get(mo));
            }
            for engine in &engines {
                assert_eq!(
                    engine.count_matrix(&g, delta, Some(cat)),
                    expect,
                    "{name} only={cat:?} {:?}",
                    engine.config()
                );
            }
        }
    }
}

#[test]
fn two_scent_matches_m26_everywhere() {
    for (name, g) in workloads() {
        for delta in [10, 300, 5_000] {
            let fast = hare::count_motifs(&g, delta);
            assert_eq!(
                hare_baselines::two_scent_tri(&g, delta),
                fast.get(m(2, 6)),
                "{name} delta={delta}"
            );
        }
    }
}

#[test]
fn calibrated_datasets_validate_end_to_end() {
    // One representative of each family through the full pipeline at a
    // small scale (keeps CI fast while touching the realistic shapes).
    for name in ["CollegeMsg", "Bitcoinalpha", "WikiTalk"] {
        let spec = hare_datasets::by_name(name).unwrap();
        let scale = spec.scale_for(8_000);
        let g = spec.generate(scale);
        let delta = 600;
        let fast = hare::count_motifs(&g, delta);
        let ex = hare_baselines::ex::count_all(&g, delta);
        assert_eq!(fast.matrix, ex, "{name}");
        assert!(fast.total() > 0, "{name} produced an empty workload");
    }
}

#[test]
fn counts_monotone_in_delta() {
    let (_, g) = &workloads()[0];
    let mut prev = 0u64;
    for delta in [0, 5, 25, 100, 1_000, 100_000] {
        let total = hare::count_motifs(g, delta).total();
        assert!(total >= prev, "total decreased at delta={delta}");
        prev = total;
    }
}
