//! Cross-crate end-to-end tests: every evaluation application, run on
//! both engines, checked against its serial oracle, with the two
//! engines' results also checked against each other.

use dpx10::apps::{
    knapsack::Item, serial, workload, KnapsackApp, LcsApp, LpsApp, MtpApp, SwlagApp,
};
use dpx10::prelude::*;

#[test]
fn swlag_threaded_and_sim_match_oracle() {
    let a = workload::dna(60, 21);
    let b = workload::dna(48, 22);
    let scoring = SwlagApp::new(a.clone(), b.clone()).scoring;
    let expect = serial::smith_waterman_affine(&a, &b, &scoring);

    let app = SwlagApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let threaded = ThreadedEngine::new(app, pattern, EngineConfig::flat(3))
        .run()
        .unwrap();

    let app = SwlagApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let simulated = SimEngine::new(app, pattern, SimConfig::paper(2))
        .run()
        .unwrap();

    for i in 0..=a.len() as u32 {
        for j in 0..=b.len() as u32 {
            let e = expect[i as usize][j as usize];
            assert_eq!(threaded.get(i, j).h, e, "threaded H[{i}][{j}]");
            assert_eq!(simulated.get(i, j).h, e, "sim H[{i}][{j}]");
            assert_eq!(threaded.get(i, j), simulated.get(i, j), "engines agree");
        }
    }
}

#[test]
fn mtp_both_engines_match_oracle() {
    let (h, w, seed) = (25u32, 31u32, 99u64);
    let expect = serial::manhattan_tourist(h, w, seed);
    let threaded = ThreadedEngine::new(
        MtpApp::new(h, w, seed),
        MtpApp::new(h, w, seed).pattern(),
        EngineConfig::flat(4).with_dist(DistKind::BlockCol),
    )
    .run()
    .unwrap();
    let simulated = SimEngine::new(
        MtpApp::new(h, w, seed),
        MtpApp::new(h, w, seed).pattern(),
        EngineConfig::flat(4).with_dist(DistKind::BlockRow),
    )
    .run()
    .unwrap();
    for i in 0..h {
        for j in 0..w {
            assert_eq!(threaded.get(i, j), expect[i as usize][j as usize]);
            assert_eq!(simulated.get(i, j), expect[i as usize][j as usize]);
        }
    }
}

#[test]
fn lps_both_engines_match_oracle() {
    let text = workload::letters(40, 5);
    let expect = serial::lps(&text);
    let n = text.len() as u32;

    let threaded = ThreadedEngine::new(
        LpsApp::new(text.clone()),
        LpsApp::new(text.clone()).pattern(),
        EngineConfig::flat(3),
    )
    .run()
    .unwrap();
    assert_eq!(threaded.get(0, n - 1), expect);

    let simulated = SimEngine::new(
        LpsApp::new(text.clone()),
        LpsApp::new(text.clone()).pattern(),
        SimConfig::paper(2),
    )
    .run()
    .unwrap();
    assert_eq!(simulated.get(0, n - 1), expect);
}

#[test]
fn knapsack_both_engines_match_oracle() {
    let items = workload::knapsack_items(30, 12, 77);
    let capacity = 60;
    let expect = serial::knapsack(&items, capacity);
    let n = items.len() as u32;

    let threaded = ThreadedEngine::new(
        KnapsackApp::new(items.clone(), capacity),
        KnapsackApp::new(items.clone(), capacity).pattern(),
        EngineConfig::flat(3).with_dist(DistKind::BlockRow),
    )
    .run()
    .unwrap();
    assert_eq!(threaded.get(n, capacity), expect);

    let simulated = SimEngine::new(
        KnapsackApp::new(items.clone(), capacity),
        KnapsackApp::new(items.clone(), capacity).pattern(),
        SimConfig::paper(2).with_dist(DistKind::BlockRow),
    )
    .run()
    .unwrap();
    assert_eq!(simulated.get(n, capacity), expect);
}

#[test]
fn lcs_paper_walkthrough_end_to_end() {
    let app = LcsApp::new(b"ABC".to_vec(), b"DBC".to_vec());
    let pattern = app.pattern();
    let result = ThreadedEngine::new(
        LcsApp::new(b"ABC".to_vec(), b"DBC".to_vec()),
        pattern,
        EngineConfig::flat(2),
    )
    .run()
    .unwrap();
    assert_eq!(app.length(&result), 2);
    assert_eq!(app.backtrack(&result), b"BC");
}

#[test]
fn native_baseline_agrees_with_framework() {
    let a = workload::dna(80, 31);
    let b = workload::dna(70, 32);
    let native = dpx10::baseline::NativeSwlag::new(a.clone(), b.clone(), 4).run();
    let app = SwlagApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let fw = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
        .run()
        .unwrap();
    for i in 0..=a.len() as u32 {
        for j in 0..=b.len() as u32 {
            assert_eq!(fw.get(i, j).h, native[i as usize][j as usize]);
        }
    }
}

#[test]
fn knapsack_small_codebase_claim() {
    // Paper §I claims some DP algorithms need fewer lines than their
    // serial version; at minimum, the framework answer equals the serial
    // one on a batch of random instances.
    for seed in 0..5u64 {
        let items = workload::knapsack_items(12, 8, seed);
        let capacity = 25;
        let expect = serial::knapsack(&items, capacity);
        let app = KnapsackApp::new(items.clone(), capacity);
        let pattern = app.pattern();
        let got = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
            .run()
            .unwrap()
            .get(items.len() as u32, capacity);
        assert_eq!(got, expect, "seed {seed}");
    }
}

#[test]
fn item_type_is_plain_data() {
    let it = Item {
        weight: 3,
        value: 9,
    };
    assert_eq!(it, it);
}

#[test]
fn extension_apps_run_on_the_simulator_too() {
    use dpx10::apps::{serial, MatrixChainApp, NeedlemanWunschApp, NussinovApp};

    // Nussinov on the simulated cluster (2D/1D pattern).
    let seq = b"GGGAAAUCCACUCGAUU".to_vec();
    let app = NussinovApp::new(seq.clone());
    let pattern = app.pattern();
    let result = SimEngine::new(app, pattern, SimConfig::paper(2))
        .run()
        .unwrap();
    let helper = NussinovApp::new(seq.clone());
    assert_eq!(helper.answer(&result), serial::nussinov(&seq));

    // Matrix chain on the simulated cluster.
    let dims = vec![30u64, 35, 15, 5, 10, 20, 25];
    let app = MatrixChainApp::new(dims.clone());
    let pattern = app.pattern();
    let result = SimEngine::new(app, pattern, EngineConfig::flat(3))
        .run()
        .unwrap();
    assert_eq!(MatrixChainApp::new(dims).answer(&result), 15125);

    // Needleman-Wunsch on the simulated cluster.
    let (a, b) = (b"GATTACA".to_vec(), b"GCATGCU".to_vec());
    let app = NeedlemanWunschApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let result = SimEngine::new(app, pattern, EngineConfig::flat(2))
        .run()
        .unwrap();
    assert_eq!(
        NeedlemanWunschApp::new(a.clone(), b.clone()).answer(&result),
        serial::needleman_wunsch(&a, &b, 1, -1, -1)
    );
}

#[test]
fn tiled_swlag_equals_per_cell_swlag_end_to_end() {
    use dpx10::apps::{workload, SwlagApp};
    use dpx10::core::tiled::run_tiled_threaded;

    let a = workload::dna(50, 61);
    let b = workload::dna(50, 62);
    let app = SwlagApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let per_cell = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
        .run()
        .unwrap();
    let app = SwlagApp::new(a.clone(), b.clone());
    let geometry = app.pattern();
    let tiled = run_tiled_threaded(app, geometry, 8, EngineConfig::flat(2)).unwrap();
    for i in 0..=50u32 {
        for j in 0..=50u32 {
            assert_eq!(per_cell.get(i, j), tiled.get(i, j));
        }
    }
}
