//! The workload catalog: the one place that turns `(app name, vertices,
//! seed)` into an application, its DAG pattern and its size.
//!
//! `dpx10 run`, `dpx10 serve`, the experiment registry and the `figures`
//! binary all build their workloads through [`with_app`], so a registry
//! cell, a served job and the equivalent `dpx10 run` compute the same
//! DAG by construction. Each app's sizing rule ([`CatalogApp::sized`])
//! converts the paper's "N million vertices" into sequence lengths or
//! grid sides; the generators themselves live in [`crate::workload`].

use dpx10_core::DpApp;
use dpx10_dag::DagPattern;

use crate::workload::{self, side_for_vertices};
use crate::{
    EditDistanceApp, GapApp, KnapsackApp, LcsApp, LpsApp, LwsApp, MtpApp, NeedlemanWunschApp,
    NussinovApp, SwCell, SwLinearApp, SwlagApp,
};

/// Knapsack capacity of every catalog-built 0/1KP instance.
pub const KNAPSACK_CAPACITY: u32 = 999;

/// Largest item weight of a catalog-built 0/1KP instance.
const KNAPSACK_MAX_WEIGHT: u32 = 64;

/// The runnable applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// Smith-Waterman, linear + affine gap.
    Swlag,
    /// Smith-Waterman, linear gap (the paper's Fig. 7 demo).
    SwLinear,
    /// Manhattan Tourists Problem.
    Mtp,
    /// Longest Palindromic Subsequence.
    Lps,
    /// 0/1 Knapsack.
    Knapsack,
    /// Longest Common Subsequence.
    Lcs,
    /// Levenshtein edit distance.
    EditDistance,
    /// Needleman-Wunsch global alignment.
    NeedlemanWunsch,
    /// Nussinov RNA folding (2D/1D).
    Nussinov,
    /// Least-Weight Subsequence (interval deps, prefix-aggregated).
    Lws,
    /// GAP: edit distance with general gap penalties (interval deps).
    Gap,
}

impl AppKind {
    /// Every app, in listing order.
    pub const ALL: [AppKind; 11] = [
        AppKind::Swlag,
        AppKind::SwLinear,
        AppKind::Mtp,
        AppKind::Lps,
        AppKind::Knapsack,
        AppKind::Lcs,
        AppKind::EditDistance,
        AppKind::NeedlemanWunsch,
        AppKind::Nussinov,
        AppKind::Lws,
        AppKind::Gap,
    ];

    /// `(name, one-line description)`.
    fn entry(self) -> (&'static str, &'static str) {
        match self {
            AppKind::Swlag => (
                "swlag",
                "Smith-Waterman, linear+affine gap (paper headline app)",
            ),
            AppKind::SwLinear => (
                "sw-linear",
                "Smith-Waterman, linear gap (paper Fig. 7 demo)",
            ),
            AppKind::Mtp => ("mtp", "Manhattan Tourists Problem"),
            AppKind::Lps => ("lps", "Longest Palindromic Subsequence"),
            AppKind::Knapsack => ("knapsack", "0/1 Knapsack (custom data-dependent pattern)"),
            AppKind::Lcs => (
                "lcs",
                "Longest Common Subsequence (paper Fig. 1 walk-through)",
            ),
            AppKind::EditDistance => ("edit-distance", "Levenshtein distance (extension)"),
            AppKind::NeedlemanWunsch => ("needleman-wunsch", "global alignment (extension)"),
            AppKind::Nussinov => ("nussinov", "RNA folding, 2D/1D interval-splits (extension)"),
            AppKind::Lws => (
                "lws",
                "Least-Weight Subsequence, interval deps + prefix-min (extension)",
            ),
            AppKind::Gap => (
                "gap",
                "general gap penalties, row+col interval deps (extension)",
            ),
        }
    }

    /// The name used on the command line, in jobfiles and in plan files.
    pub fn name(self) -> &'static str {
        self.entry().0
    }

    /// One line describing the app.
    pub fn describe(self) -> &'static str {
        self.entry().1
    }

    /// The app called `name`, if any.
    pub fn parse(name: &str) -> Option<AppKind> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// An application the catalog can build at a requested scale.
pub trait CatalogApp: DpApp + Clone + Sized + 'static {
    /// The app's DAG pattern.
    type Pattern: DagPattern + Clone + 'static;

    /// Per-vertex compute cost in the simulator's cost model, in ns.
    const SIM_COMPUTE_NS: u64 = 60;

    /// The instance with approximately `vertices` DAG vertices whose
    /// input is generated from `seed`.
    fn sized(vertices: u64, seed: u64) -> Self;

    /// The pattern this instance runs over.
    fn dag(&self) -> Self::Pattern;

    /// The cell holding the headline answer: the bottom-right corner,
    /// unless the app says otherwise.
    fn answer_cell(&self) -> (u32, u32) {
        let pattern = self.dag();
        (pattern.height() - 1, pattern.width() - 1)
    }

    /// Renders the headline answer from the value of
    /// [`answer_cell`](CatalogApp::answer_cell) `cell`.
    fn headline(cell: (u32, u32), value: &Self::Value) -> String;
}

/// What to do with the app [`with_app`] builds; generic over the app
/// type so every use is statically dispatched.
pub trait AppVisitor {
    /// The visit's result.
    type Out;

    /// Receives the built app.
    fn visit<A: CatalogApp>(self, app: A) -> Self::Out;
}

/// Builds `kind` at approximately `vertices` vertices from `seed` and
/// hands it to `visitor`.
pub fn with_app<V: AppVisitor>(kind: AppKind, vertices: u64, seed: u64, visitor: V) -> V::Out {
    match kind {
        AppKind::Swlag => visitor.visit(SwlagApp::sized(vertices, seed)),
        AppKind::SwLinear => visitor.visit(SwLinearApp::sized(vertices, seed)),
        AppKind::Mtp => visitor.visit(MtpApp::sized(vertices, seed)),
        AppKind::Lps => visitor.visit(LpsApp::sized(vertices, seed)),
        AppKind::Knapsack => visitor.visit(KnapsackApp::sized(vertices, seed)),
        AppKind::Lcs => visitor.visit(LcsApp::sized(vertices, seed)),
        AppKind::EditDistance => visitor.visit(EditDistanceApp::sized(vertices, seed)),
        AppKind::NeedlemanWunsch => visitor.visit(NeedlemanWunschApp::sized(vertices, seed)),
        AppKind::Nussinov => visitor.visit(NussinovApp::sized(vertices, seed)),
        AppKind::Lws => visitor.visit(LwsApp::sized(vertices, seed)),
        AppKind::Gap => visitor.visit(GapApp::sized(vertices, seed)),
    }
}

/// Two random DNA sequences whose alignment matrix has about `vertices`
/// cells.
fn dna_pair(vertices: u64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let n = side_for_vertices(vertices) as usize;
    (
        workload::dna(n, seed),
        workload::dna(n, seed.wrapping_add(1)),
    )
}

/// Two random letter strings whose matrix has about `vertices` cells.
fn letter_pair(vertices: u64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let n = side_for_vertices(vertices) as usize;
    (
        workload::letters(n, seed),
        workload::letters(n, seed.wrapping_add(1)),
    )
}

/// Length `n` such that the upper triangle of an `n × n` interval DAG
/// has about `vertices` cells.
fn interval_len(vertices: u64) -> usize {
    ((vertices as f64 * 2.0).sqrt() as usize).max(2)
}

impl CatalogApp for SwlagApp {
    type Pattern = dpx10_dag::builtin::Grid3;
    /// The affine-gap cell does roughly 1.5× the work of a plain DP
    /// cell (DESIGN.md §6).
    const SIM_COMPUTE_NS: u64 = 90;
    fn sized(vertices: u64, seed: u64) -> Self {
        let (a, b) = dna_pair(vertices, seed);
        SwlagApp::new(a, b)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline((i, j): (u32, u32), value: &SwCell) -> String {
        format!("H({i}, {j}) = {}", value.h)
    }
}

impl CatalogApp for SwLinearApp {
    type Pattern = dpx10_dag::builtin::Grid3;
    fn sized(vertices: u64, seed: u64) -> Self {
        let (a, b) = dna_pair(vertices, seed);
        SwLinearApp::new(a, b)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline((i, j): (u32, u32), value: &i32) -> String {
        format!("H({i}, {j}) = {value}")
    }
}

impl CatalogApp for MtpApp {
    type Pattern = dpx10_dag::builtin::Grid2;
    fn sized(vertices: u64, seed: u64) -> Self {
        let n = side_for_vertices(vertices) + 1;
        MtpApp::new(n, n, seed)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline(_: (u32, u32), value: &i64) -> String {
        format!("longest path = {value}")
    }
}

impl CatalogApp for LpsApp {
    type Pattern = dpx10_dag::builtin::IntervalUpper;
    fn sized(vertices: u64, seed: u64) -> Self {
        LpsApp::new(workload::letters(interval_len(vertices), seed))
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn answer_cell(&self) -> (u32, u32) {
        (0, self.text.len() as u32 - 1)
    }
    fn headline(_: (u32, u32), value: &u32) -> String {
        format!("longest palindromic subsequence = {value}")
    }
}

impl CatalogApp for KnapsackApp {
    type Pattern = dpx10_dag::KnapsackDag;
    fn sized(vertices: u64, seed: u64) -> Self {
        let items = workload::knapsack_shape_for_vertices(vertices, KNAPSACK_CAPACITY);
        KnapsackApp::new(
            workload::knapsack_items(items, KNAPSACK_MAX_WEIGHT, seed),
            KNAPSACK_CAPACITY,
        )
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline(_: (u32, u32), value: &u64) -> String {
        format!("optimum value = {value}")
    }
}

impl CatalogApp for LcsApp {
    type Pattern = dpx10_dag::builtin::Grid3;
    fn sized(vertices: u64, seed: u64) -> Self {
        let (a, b) = letter_pair(vertices, seed);
        LcsApp::new(a, b)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline(_: (u32, u32), value: &u32) -> String {
        format!("LCS length = {value}")
    }
}

impl CatalogApp for EditDistanceApp {
    type Pattern = dpx10_dag::builtin::Grid3;
    fn sized(vertices: u64, seed: u64) -> Self {
        let (a, b) = letter_pair(vertices, seed);
        EditDistanceApp::new(a, b)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline(_: (u32, u32), value: &u32) -> String {
        format!("edit distance = {value}")
    }
}

impl CatalogApp for NeedlemanWunschApp {
    type Pattern = dpx10_dag::builtin::Grid3;
    fn sized(vertices: u64, seed: u64) -> Self {
        let (a, b) = dna_pair(vertices, seed);
        NeedlemanWunschApp::new(a, b)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline(_: (u32, u32), value: &i32) -> String {
        format!("global alignment score = {value}")
    }
}

impl CatalogApp for NussinovApp {
    type Pattern = dpx10_dag::extra::IntervalSplits;
    fn sized(vertices: u64, seed: u64) -> Self {
        // 2D/1D: every cell walks its whole interval, so the scale is
        // capped to keep the default run modest.
        let n = interval_len(vertices).min(512);
        let rna = workload::dna(n, seed)
            .into_iter()
            .map(|c| if c == b'T' { b'U' } else { c })
            .collect();
        NussinovApp::new(rna)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn answer_cell(&self) -> (u32, u32) {
        (0, self.seq.len() as u32 - 1)
    }
    fn headline(_: (u32, u32), value: &u32) -> String {
        format!("max base pairs = {value}")
    }
}

impl CatalogApp for LwsApp {
    type Pattern = dpx10_dag::RangedDag;
    fn sized(vertices: u64, seed: u64) -> Self {
        // 1-D: every vertex is a position of the single-row DAG.
        LwsApp::new((vertices as u32).max(2), seed)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline((_, j): (u32, u32), value: &u32) -> String {
        format!("least weight D({j}) = {value}")
    }
}

impl CatalogApp for GapApp {
    type Pattern = dpx10_dag::RangedDag;
    fn sized(vertices: u64, seed: u64) -> Self {
        let n = side_for_vertices(vertices);
        GapApp::new(n, n, seed)
    }
    fn dag(&self) -> Self::Pattern {
        self.pattern()
    }
    fn headline((i, j): (u32, u32), value: &u32) -> String {
        format!("gap alignment cost G({i}, {j}) = {value}")
    }
}

#[cfg(test)]
mod tests {
    use dpx10_core::{EngineConfig, ThreadedEngine};

    use super::*;
    use crate::serial;

    /// Runs the app on a `places`-place threaded engine and renders its
    /// headline plus the result fingerprint.
    struct Solve(u16);

    impl AppVisitor for Solve {
        type Out = (String, u64);
        fn visit<A: CatalogApp>(self, app: A) -> (String, u64) {
            let (pattern, cell) = (app.dag(), app.answer_cell());
            let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(self.0))
                .run()
                .expect("threaded run");
            (
                A::headline(cell, &result.get(cell.0, cell.1)),
                result.fingerprint(),
            )
        }
    }

    /// The headline the serial reference implementation produces for the
    /// instance the catalog builds.
    fn serial_headline(kind: AppKind, vertices: u64, seed: u64) -> String {
        fn of<A: CatalogApp>(app: &A, value: A::Value) -> String {
            A::headline(app.answer_cell(), &value)
        }
        match kind {
            AppKind::Swlag => {
                let app = SwlagApp::sized(vertices, seed);
                let h = serial::smith_waterman_affine(&app.a, &app.b, &app.scoring);
                let h = h[app.a.len()][app.b.len()];
                of(
                    &app,
                    SwCell {
                        h,
                        ..SwCell::default()
                    },
                )
            }
            AppKind::SwLinear => {
                let app = SwLinearApp::sized(vertices, seed);
                let h = serial::smith_waterman_linear(&app.a, &app.b, &app.scoring);
                of(&app, h[app.a.len()][app.b.len()])
            }
            AppKind::Mtp => {
                let app = MtpApp::sized(vertices, seed);
                let m = serial::manhattan_tourist(app.height, app.width, app.seed);
                of(&app, m[app.height as usize - 1][app.width as usize - 1])
            }
            AppKind::Lps => {
                let app = LpsApp::sized(vertices, seed);
                of(&app, serial::lps(&app.text))
            }
            AppKind::Knapsack => {
                let app = KnapsackApp::sized(vertices, seed);
                of(&app, serial::knapsack(&app.items, app.capacity))
            }
            AppKind::Lcs => {
                let app = LcsApp::sized(vertices, seed);
                of(&app, serial::lcs_len(&app.a, &app.b))
            }
            AppKind::EditDistance => {
                let app = EditDistanceApp::sized(vertices, seed);
                of(&app, serial::edit_distance(&app.a, &app.b))
            }
            AppKind::NeedlemanWunsch => {
                let app = NeedlemanWunschApp::sized(vertices, seed);
                let score =
                    serial::needleman_wunsch(&app.a, &app.b, app.matched, app.mismatch, app.gap);
                of(&app, score)
            }
            AppKind::Nussinov => {
                let app = NussinovApp::sized(vertices, seed);
                of(&app, serial::nussinov(&app.seq))
            }
            AppKind::Lws => {
                let app = LwsApp::sized(vertices, seed);
                of(&app, serial::lws(app.n, app.seed)[app.n as usize - 1])
            }
            AppKind::Gap => {
                let app = GapApp::sized(vertices, seed);
                let g = serial::gap(app.h, app.w, app.seed);
                of(&app, g[app.h as usize - 1][app.w as usize - 1])
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in AppKind::ALL {
            assert_eq!(AppKind::parse(kind.name()), Some(kind));
            assert!(!kind.describe().is_empty());
        }
        assert_eq!(AppKind::parse("gpu"), None);
    }

    #[test]
    fn every_kind_matches_its_serial_reference_and_a_two_place_run() {
        for kind in AppKind::ALL {
            let (vertices, seed) = (900, 11);
            let (headline, fingerprint) = with_app(kind, vertices, seed, Solve(1));
            assert_eq!(
                headline,
                serial_headline(kind, vertices, seed),
                "{kind:?} vs serial"
            );
            assert_eq!(
                with_app(kind, vertices, seed, Solve(2)),
                (headline, fingerprint),
                "{kind:?} on 2 places"
            );
        }
    }
}
