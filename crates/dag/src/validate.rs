//! Pattern validation against the [`DagPattern`] contract.
//!
//! Custom patterns are the framework's main extension point (paper §V-A),
//! and a wrong `getAntiDependency` silently deadlocks or corrupts a run.
//! [`validate_pattern`] exhaustively checks a pattern at its configured
//! size; tests call it on small instances of every shipped pattern, and
//! the engines call it in debug builds.

use std::collections::HashSet;
use std::fmt;

use crate::tiled::stencil_anti_order;
use crate::topo::{for_each_vertex, topological_order};
use crate::{DagPattern, VertexId};

/// A violation of the [`DagPattern`] contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A query returned a vertex outside the pattern.
    OutOfPattern {
        /// Vertex whose query misbehaved.
        at: VertexId,
        /// The out-of-pattern id that was returned.
        returned: VertexId,
        /// Which query returned it.
        query: QueryKind,
    },
    /// `d ∈ dependencies(v)` but `v ∉ anti_dependencies(d)`.
    MissingAntiDependency {
        /// The dependent vertex `v`.
        vertex: VertexId,
        /// The dependency `d` that fails to list `v` back.
        dependency: VertexId,
    },
    /// `v ∈ anti_dependencies(d)` but `d ∉ dependencies(v)`.
    SpuriousAntiDependency {
        /// The vertex `d` whose anti-dependency list is wrong.
        vertex: VertexId,
        /// The listed dependent `v` that does not declare `d`.
        dependent: VertexId,
    },
    /// A query returned the same id twice for one vertex.
    DuplicateEdge {
        /// Vertex whose query misbehaved.
        at: VertexId,
        /// The duplicated id.
        returned: VertexId,
        /// Which query returned it.
        query: QueryKind,
    },
    /// A vertex listed itself as its own dependency.
    SelfLoop {
        /// The offending vertex.
        at: VertexId,
    },
    /// The edge relation contains a cycle (or an unreachable vertex).
    Cyclic,
    /// `indegree(i, j)` disagrees with `dependencies(i, j).len()`.
    IndegreeMismatch {
        /// The offending vertex.
        at: VertexId,
        /// Value reported by `indegree`.
        reported: u32,
        /// Number of ids actually returned by `dependencies`.
        actual: u32,
    },
    /// The pattern declares a [`DagPattern::stencil`], but
    /// `dependencies(i, j)` is not its offsets filtered by `contains`,
    /// in declared order.
    StencilMismatch {
        /// The offending vertex.
        at: VertexId,
        /// What the stencil promises.
        declared: Vec<VertexId>,
        /// What `dependencies` returned.
        returned: Vec<VertexId>,
    },
    /// `vertex_count()` is not the number of cells `contains` accepts.
    VertexCountMismatch {
        /// Value reported by `vertex_count`.
        reported: u64,
        /// Number of cells `contains` accepts.
        actual: u64,
    },
    /// The pattern declares a [`DagPattern::stencil`], but two vertices
    /// whose anti-dependencies cover every offset list them in
    /// different orders.
    AntiStencilOrder {
        /// The offending vertex.
        at: VertexId,
        /// Its anti-dependencies in the order an earlier vertex used.
        expected: Vec<VertexId>,
        /// What `anti_dependencies` returned.
        returned: Vec<VertexId>,
    },
}

/// Which pattern query produced an invalid answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `dependencies()`.
    Dependencies,
    /// `anti_dependencies()`.
    AntiDependencies,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::OutOfPattern {
                at,
                returned,
                query,
            } => write!(
                f,
                "{query:?} of {at} returned {returned}, which is outside the pattern"
            ),
            ValidationError::MissingAntiDependency { vertex, dependency } => write!(
                f,
                "{vertex} depends on {dependency}, but {dependency} does not list it back"
            ),
            ValidationError::SpuriousAntiDependency { vertex, dependent } => write!(
                f,
                "{vertex} lists dependent {dependent}, which does not depend on it"
            ),
            ValidationError::DuplicateEdge {
                at,
                returned,
                query,
            } => {
                write!(f, "{query:?} of {at} returned {returned} twice")
            }
            ValidationError::SelfLoop { at } => write!(f, "{at} depends on itself"),
            ValidationError::Cyclic => write!(f, "the pattern contains a dependency cycle"),
            ValidationError::IndegreeMismatch {
                at,
                reported,
                actual,
            } => write!(
                f,
                "indegree({at}) reports {reported} but dependencies() returns {actual} ids"
            ),
            ValidationError::VertexCountMismatch { reported, actual } => write!(
                f,
                "vertex_count() reports {reported} but contains() accepts {actual} cells"
            ),
            ValidationError::StencilMismatch {
                at,
                declared,
                returned,
            } => write!(
                f,
                "the stencil of {at} declares {declared:?}, but dependencies() returns {returned:?}"
            ),
            ValidationError::AntiStencilOrder {
                at,
                expected,
                returned,
            } => write!(
                f,
                "anti_dependencies({at}) returns {returned:?}, out of the stencil's order {expected:?}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Exhaustively validates `pattern` (O(V + E) time, O(V) space).
///
/// Checks the vertex count, containment, duplicate-freedom, self-loops,
/// a declared stencil (dependencies and the order of full
/// anti-dependency lists), the dependency/anti-dependency inversion
/// property, `indegree` consistency and acyclicity. Returns the first
/// violation found.
pub fn validate_pattern<P: DagPattern + ?Sized>(pattern: &P) -> Result<(), ValidationError> {
    let mut deps = Vec::new();
    let mut anti = Vec::new();
    let mut declared = Vec::new();
    let mut result = Ok(());

    // The engines count to `vertex_count` and take a pattern with as
    // many vertices as cells for one without holes.
    let mut actual = 0u64;
    for_each_vertex(pattern, |_| actual += 1);
    let reported = pattern.vertex_count();
    if reported != actual {
        return Err(ValidationError::VertexCountMismatch { reported, actual });
    }

    // Edge set gathered from `dependencies`, used to cross-check `anti`.
    let mut dep_edges: HashSet<(u64, u64)> = HashSet::new();

    for_each_vertex(pattern, |v| {
        if result.is_err() {
            return;
        }
        deps.clear();
        pattern.dependencies(v.i, v.j, &mut deps);

        if pattern.indegree(v.i, v.j) != deps.len() as u32 {
            result = Err(ValidationError::IndegreeMismatch {
                at: v,
                reported: pattern.indegree(v.i, v.j),
                actual: deps.len() as u32,
            });
            return;
        }
        let mut seen = HashSet::with_capacity(deps.len());
        for &d in &deps {
            if d == v {
                result = Err(ValidationError::SelfLoop { at: v });
                return;
            }
            if !pattern.contains(d.i, d.j) {
                result = Err(ValidationError::OutOfPattern {
                    at: v,
                    returned: d,
                    query: QueryKind::Dependencies,
                });
                return;
            }
            if !seen.insert(d) {
                result = Err(ValidationError::DuplicateEdge {
                    at: v,
                    returned: d,
                    query: QueryKind::Dependencies,
                });
                return;
            }
            dep_edges.insert((d.pack(), v.pack()));
        }
        if let Some(stencil) = pattern.stencil() {
            declared.clear();
            let shifted = stencil.iter().filter_map(|&o| v.shifted(o));
            declared.extend(shifted.filter(|d| pattern.contains(d.i, d.j)));
            if declared != deps {
                result = Err(ValidationError::StencilMismatch {
                    at: v,
                    declared: declared.clone(),
                    returned: deps.clone(),
                });
            }
        }
    });
    result?;

    let mut result = Ok(());
    let mut anti_count = 0u64;
    // The order of the stencil's offsets in the first anti list that
    // covers them all, as indices into the stencil.
    let stencil = pattern.stencil().unwrap_or_default();
    let mut anti_order: Option<Vec<usize>> = None;
    for_each_vertex(pattern, |d| {
        if result.is_err() {
            return;
        }
        anti.clear();
        pattern.anti_dependencies(d.i, d.j, &mut anti);
        if let Some(order) = stencil_anti_order(pattern, d) {
            match &anti_order {
                None => anti_order = Some(order),
                Some(first) if *first != order => {
                    let by = |&k: &usize| d.shifted((-stencil[k].0, -stencil[k].1));
                    result = Err(ValidationError::AntiStencilOrder {
                        at: d,
                        expected: first.iter().filter_map(by).collect(),
                        returned: anti.clone(),
                    });
                    return;
                }
                Some(_) => {}
            }
        }
        let mut seen = HashSet::with_capacity(anti.len());
        for &v in &anti {
            if !pattern.contains(v.i, v.j) {
                result = Err(ValidationError::OutOfPattern {
                    at: d,
                    returned: v,
                    query: QueryKind::AntiDependencies,
                });
                return;
            }
            if !seen.insert(v) {
                result = Err(ValidationError::DuplicateEdge {
                    at: d,
                    returned: v,
                    query: QueryKind::AntiDependencies,
                });
                return;
            }
            if !dep_edges.contains(&(d.pack(), v.pack())) {
                result = Err(ValidationError::SpuriousAntiDependency {
                    vertex: d,
                    dependent: v,
                });
                return;
            }
            anti_count += 1;
        }
    });
    result?;

    // Every dep edge must have been confirmed from the anti side.
    if anti_count != dep_edges.len() as u64 {
        // Find a witness for the error report.
        let mut witness = None;
        let mut anti = Vec::new();
        for &(d_raw, v_raw) in &dep_edges {
            let (d, v) = (VertexId::unpack(d_raw), VertexId::unpack(v_raw));
            anti.clear();
            pattern.anti_dependencies(d.i, d.j, &mut anti);
            if !anti.contains(&v) {
                witness = Some((v, d));
                break;
            }
        }
        let (vertex, dependency) = witness.expect("count mismatch implies a witness");
        return Err(ValidationError::MissingAntiDependency { vertex, dependency });
    }

    if topological_order(pattern).is_none() {
        return Err(ValidationError::Cyclic);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuiltinKind, CustomDag, KnapsackDag};

    #[test]
    fn all_builtins_validate() {
        for kind in BuiltinKind::ALL {
            let p = kind.instantiate(9, 7);
            validate_pattern(&p).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn knapsack_validates() {
        let p = KnapsackDag::new(vec![3, 1, 4, 1, 5], 12);
        validate_pattern(&p).unwrap();
    }

    #[test]
    fn missing_anti_dependency_detected() {
        let p = CustomDag::new(1, 3).with_dependencies(|_i, j, out| {
            if j > 0 {
                out.push(VertexId::new(0, j - 1));
            }
        });
        // anti closure left empty -> inversion violated.
        let err = validate_pattern(&p).unwrap_err();
        assert!(
            matches!(err, ValidationError::MissingAntiDependency { .. }),
            "{err}"
        );
    }

    #[test]
    fn spurious_anti_dependency_detected() {
        let p = CustomDag::new(1, 3).with_anti_dependencies(|_i, j, out, (_h, w)| {
            if j + 1 < w {
                out.push(VertexId::new(0, j + 1));
            }
        });
        let err = validate_pattern(&p).unwrap_err();
        assert!(
            matches!(err, ValidationError::SpuriousAntiDependency { .. }),
            "{err}"
        );
    }

    #[test]
    fn wrong_vertex_count_detected() {
        // A full 3 × 4 grid that claims one vertex fewer: an engine would
        // take it for a masked pattern and stop one vertex early.
        struct Short(CustomDag);
        impl DagPattern for Short {
            fn height(&self) -> u32 {
                self.0.height()
            }
            fn width(&self) -> u32 {
                self.0.width()
            }
            fn contains(&self, i: u32, j: u32) -> bool {
                self.0.contains(i, j)
            }
            fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                self.0.dependencies(i, j, out)
            }
            fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                self.0.anti_dependencies(i, j, out)
            }
            fn vertex_count(&self) -> u64 {
                self.0.vertex_count() - 1
            }
        }
        let grid = CustomDag::new(3, 4);
        validate_pattern(&grid).unwrap();
        assert_eq!(
            validate_pattern(&Short(grid)).unwrap_err(),
            ValidationError::VertexCountMismatch {
                reported: 11,
                actual: 12
            }
        );
    }

    #[test]
    fn self_loop_detected() {
        let p = CustomDag::new(2, 2).with_dependencies(|i, j, out| out.push(VertexId::new(i, j)));
        assert_eq!(
            validate_pattern(&p).unwrap_err(),
            ValidationError::SelfLoop {
                at: VertexId::new(0, 0)
            }
        );
    }

    #[test]
    fn out_of_pattern_detected() {
        let p = CustomDag::new(2, 2).with_dependencies(|_i, _j, out| out.push(VertexId::new(9, 9)));
        assert!(matches!(
            validate_pattern(&p).unwrap_err(),
            ValidationError::OutOfPattern { .. }
        ));
    }

    #[test]
    fn duplicate_edge_detected() {
        let p = CustomDag::new(1, 2)
            .with_dependencies(|_i, j, out| {
                if j == 1 {
                    out.push(VertexId::new(0, 0));
                    out.push(VertexId::new(0, 0));
                }
            })
            .with_anti_dependencies(|_i, j, out, _| {
                if j == 0 {
                    out.push(VertexId::new(0, 1));
                }
            });
        assert!(matches!(
            validate_pattern(&p).unwrap_err(),
            ValidationError::DuplicateEdge { .. }
        ));
    }

    #[test]
    fn cycle_detected() {
        // (0,0) <-> (0,1): each depends on the other, anti lists kept
        // consistent so only the acyclicity check can catch it.
        let p = CustomDag::new(1, 2)
            .with_dependencies(|_i, j, out| {
                out.push(VertexId::new(0, 1 - j));
            })
            .with_anti_dependencies(|_i, j, out, _| {
                out.push(VertexId::new(0, 1 - j));
            });
        assert_eq!(validate_pattern(&p).unwrap_err(), ValidationError::Cyclic);
    }

    #[test]
    fn indegree_mismatch_detected() {
        struct Lying;
        impl DagPattern for Lying {
            fn height(&self) -> u32 {
                1
            }
            fn width(&self) -> u32 {
                2
            }
            fn dependencies(&self, _i: u32, j: u32, out: &mut Vec<VertexId>) {
                if j == 1 {
                    out.push(VertexId::new(0, 0));
                }
            }
            fn anti_dependencies(&self, _i: u32, j: u32, out: &mut Vec<VertexId>) {
                if j == 0 {
                    out.push(VertexId::new(0, 1));
                }
            }
            fn indegree(&self, _i: u32, _j: u32) -> u32 {
                7 // wrong on purpose
            }
        }
        assert!(matches!(
            validate_pattern(&Lying).unwrap_err(),
            ValidationError::IndegreeMismatch { reported: 7, .. }
        ));
    }

    #[test]
    fn stencil_mismatch_detected() {
        // A valid 2 × 2 `Grid2` that declares its offsets in the wrong
        // order: `dependencies` lists the top before the left.
        struct Lying;
        impl DagPattern for Lying {
            fn height(&self) -> u32 {
                2
            }
            fn width(&self) -> u32 {
                2
            }
            fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                if i > 0 {
                    out.push(VertexId::new(i - 1, j));
                }
                if j > 0 {
                    out.push(VertexId::new(i, j - 1));
                }
            }
            fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                if i == 0 {
                    out.push(VertexId::new(1, j));
                }
                if j == 0 {
                    out.push(VertexId::new(i, 1));
                }
            }
            fn stencil(&self) -> Option<&[(i32, i32)]> {
                Some(&[(0, -1), (-1, 0)])
            }
        }
        let err = validate_pattern(&Lying).unwrap_err();
        assert_eq!(
            err,
            ValidationError::StencilMismatch {
                at: VertexId::new(1, 1),
                declared: vec![VertexId::new(1, 0), VertexId::new(0, 1)],
                returned: vec![VertexId::new(0, 1), VertexId::new(1, 0)],
            }
        );
        assert!(err.to_string().contains("stencil of (1, 1)"), "{err}");
    }

    #[test]
    fn anti_stencil_order_mismatch_detected() {
        // A valid 3 × 3 `Grid2` whose anti-dependencies list the right
        // neighbour first on the middle row only.
        struct Swapped;
        impl DagPattern for Swapped {
            fn height(&self) -> u32 {
                3
            }
            fn width(&self) -> u32 {
                3
            }
            fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                crate::builtin::Grid2::new(3, 3).dependencies(i, j, out);
            }
            fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                crate::builtin::Grid2::new(3, 3).anti_dependencies(i, j, out);
                if i == 1 {
                    out.reverse();
                }
            }
            fn stencil(&self) -> Option<&[(i32, i32)]> {
                Some(&[(-1, 0), (0, -1)])
            }
        }
        let err = validate_pattern(&Swapped).unwrap_err();
        assert_eq!(
            err,
            ValidationError::AntiStencilOrder {
                at: VertexId::new(1, 0),
                expected: vec![VertexId::new(2, 0), VertexId::new(1, 1)],
                returned: vec![VertexId::new(1, 1), VertexId::new(2, 0)],
            }
        );
        assert!(
            err.to_string().contains("anti_dependencies((1, 0))"),
            "{err}"
        );
    }

    #[test]
    fn declared_stencils_validate() {
        for kind in BuiltinKind::ALL {
            let p = kind.instantiate(9, 7);
            let want = kind != BuiltinKind::FullPrevRowCol;
            assert_eq!(p.stencil().is_some(), want, "{kind:?} declares a stencil");
        }
        validate_pattern(&crate::BandedGrid3::new(11, 2)).unwrap();
        assert!(crate::BandedGrid3::new(11, 2).stencil().is_some());
    }

    #[test]
    fn errors_display() {
        let e = ValidationError::SelfLoop {
            at: VertexId::new(1, 1),
        };
        assert!(e.to_string().contains("(1, 1)"));
    }
}
