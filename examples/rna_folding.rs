//! Extension demo: 2D/1D recurrences (paper §III) on the
//! interval-with-splits pattern — Nussinov RNA folding and matrix-chain
//! multiplication — plus the banded-alignment extension pattern.
//!
//! The paper notes DPX10 "can also express the type of 2D/iD (i >= 1),
//! nonetheless, the performance is less than satisfactory"; this example
//! runs two real 2D/1D applications and prints the per-vertex cost gap
//! against a 2D/0D grid app measured on the simulated cluster.
//!
//! ```text
//! cargo run --release -p dpx10 --example rna_folding
//! ```

use dpx10::apps::{workload, EditDistanceApp, MatrixChainApp, NussinovApp};
use dpx10::prelude::*;

fn main() {
    // Nussinov RNA folding on a random RNA string.
    let rna: Vec<u8> = workload::dna(60, 9)
        .into_iter()
        .map(|c| if c == b'T' { b'U' } else { c })
        .collect();
    let app = NussinovApp::new(rna.clone());
    let pattern = app.pattern();
    let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(3))
        .run()
        .expect("folding completes");
    let helper = NussinovApp::new(rna.clone());
    println!(
        "Nussinov: {} bases fold into {} base pairs (interval-splits pattern, {} vertices)",
        rna.len(),
        helper.answer(&result),
        result.report().vertices_total,
    );

    // Matrix-chain multiplication: the CLRS instance.
    let dims = vec![30u64, 35, 15, 5, 10, 20, 25];
    let app = MatrixChainApp::new(dims.clone());
    let pattern = app.pattern();
    let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
        .run()
        .expect("chain completes");
    let helper = MatrixChainApp::new(dims);
    println!(
        "matrix chain: optimal cost {} scalar multiplications (expected 15125)",
        helper.answer(&result)
    );
    assert_eq!(helper.answer(&result), 15125);

    // The §III caveat, measured: per-vertex makespan of a 2D/1D run vs a
    // 2D/0D run of the same vertex count on the simulated cluster.
    use dpx10::core::{DepView, DpApp};
    #[derive(Clone)]
    struct Sum;
    impl DpApp for Sum {
        type Value = u64;
        fn compute(&self, _id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            deps.values().sum::<u64>() + 1
        }
    }
    let n = 96u32;
    let grid = SimEngine::new(Sum, Grid3::new(n, n), SimConfig::paper(4))
        .run()
        .unwrap();
    let heavy = SimEngine::new(Sum, FullPrevRowCol::new(n, n), SimConfig::paper(4))
        .run()
        .unwrap();
    let per = |r: &dpx10::core::DagResult<u64>| {
        r.report().sim_time.as_nanos() as f64 / r.report().vertices_total as f64
    };
    println!(
        "2D/0D grid3: {:.0} ns/vertex of makespan; 2D/1D full-prev-row-col: {:.0} ns/vertex \
         — the paper's \"less than satisfactory\" caveat, quantified",
        per(&grid),
        per(&heavy)
    );

    // Banded alignment: the banded extension pattern computes the exact
    // edit distance at a fraction of the vertices.
    let a = workload::dna(120, 1);
    let mut b = a.clone();
    b[40] = if b[40] == b'A' { b'C' } else { b'A' }; // distance 1 (or 0 if unlucky — no: forced change)
    let full = dpx10::apps::serial::edit_distance(&a, &b);
    let app = dpx10::apps::BandedEditDistanceApp::new(a.clone(), b.clone(), 4);
    let pattern = app.pattern();
    let banded_vertices = dpx10::dag::DagPattern::vertex_count(&pattern);
    let result = ThreadedEngine::new(
        dpx10::apps::BandedEditDistanceApp::new(a, b, 4),
        pattern,
        EngineConfig::flat(2),
    )
    .run()
    .unwrap();
    println!(
        "banded edit distance: {} (= full DP's {}), using {} of {} cells",
        app.answer(&result),
        full,
        banded_vertices,
        121u64 * 121,
    );
    assert_eq!(app.answer(&result), full);

    // Edit distance itself, for the record.
    let app = EditDistanceApp::new(b"kitten".to_vec(), b"sitting".to_vec());
    let pattern = app.pattern();
    let result = ThreadedEngine::new(
        EditDistanceApp::new(b"kitten".to_vec(), b"sitting".to_vec()),
        pattern,
        EngineConfig::flat(2),
    )
    .run()
    .unwrap();
    println!("edit distance kitten -> sitting: {}", app.answer(&result));
    assert_eq!(app.answer(&result), 3);
}
