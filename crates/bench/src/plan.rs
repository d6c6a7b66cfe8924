//! The declarative ablation-plan DSL.
//!
//! An [`AblationPlan`] is a TOML file describing a grid sweep over the
//! framework's launch axes — backend × pattern × vertices × places ×
//! coalesce-budget × tile-size × cache-capacity — plus fixed knobs
//! (distribution, scheduling strategy) and a base seed. [`expand`]
//! turns the grid into an ordered list of [`Experiment`] cells with
//! per-cell seeds, entirely deterministically: the same plan text and
//! seed always yield the byte-identical experiment list, and the plan's
//! [`digest`] is computed over a canonical serialization so reordering
//! keys or sections in the file cannot change any provenance hash.
//!
//! ```toml
//! name = "pinned-small"
//! seed = 1
//!
//! [grid]
//! backend = ["sim", "threads", "sockets"]
//! pattern = ["swlag", "lcs"]
//! vertices = [10000]
//! places = [2]
//! coalesce = ["off", 4096]
//! tile = [1]
//! cache = [4096]
//!
//! [fixed]
//! dist = "cyclic-col"
//! schedule = "local"
//! ```
//!
//! [`expand`]: AblationPlan::expand
//! [`digest`]: AblationPlan::digest

use std::fmt;

use dpx10_apps::AppKind;
use dpx10_core::ScheduleStrategy;
use dpx10_distarray::DistKind;

use crate::registry::fnv1a;
use crate::toml_lite::{self, Value};

/// Which engine executes a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic cluster simulator.
    Sim,
    /// The threaded engine (one OS thread per place).
    Threads,
    /// The in-process socket mesh (one thread per place over real TCP).
    Sockets,
}

impl Backend {
    /// All backends with their plan-file names.
    pub const ALL: [(&'static str, Backend); 3] = [
        ("sim", Backend::Sim),
        ("threads", Backend::Threads),
        ("sockets", Backend::Sockets),
    ];

    /// The plan-file name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, b)| b == self)
            .map(|&(n, _)| n)
            .expect("every backend is in ALL")
    }

    fn parse(s: &str) -> Option<Backend> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, b)| b)
    }
}

/// The plan's fixed distribution knob (`Default` = the backend's
/// documented default, block-by-column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistChoice {
    /// Use the engine default.
    Default,
    /// Contiguous row blocks.
    BlockRow,
    /// Contiguous column blocks.
    BlockCol,
    /// Rows dealt round-robin.
    CyclicRow,
    /// Columns dealt round-robin.
    CyclicCol,
}

impl DistChoice {
    /// All choices with their plan-file names.
    pub const ALL: [(&'static str, DistChoice); 5] = [
        ("default", DistChoice::Default),
        ("block-row", DistChoice::BlockRow),
        ("block-col", DistChoice::BlockCol),
        ("cyclic-row", DistChoice::CyclicRow),
        ("cyclic-col", DistChoice::CyclicCol),
    ];

    /// The plan-file name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, d)| d == self)
            .map(|&(n, _)| n)
            .expect("every choice is in ALL")
    }

    fn parse(s: &str) -> Option<DistChoice> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, d)| d)
    }

    /// The engine-level kind, or `None` for the default.
    pub fn kind(self) -> Option<DistKind> {
        match self {
            DistChoice::Default => None,
            DistChoice::BlockRow => Some(DistKind::BlockRow),
            DistChoice::BlockCol => Some(DistKind::BlockCol),
            DistChoice::CyclicRow => Some(DistKind::CyclicRow),
            DistChoice::CyclicCol => Some(DistKind::CyclicCol),
        }
    }
}

/// A declarative grid sweep: every axis is a non-empty value list and
/// the plan expands to their cartesian product in canonical axis order.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationPlan {
    /// Plan identifier (registry rows and baseline files key on it).
    pub name: String,
    /// Base seed; every cell derives its own seed from it.
    pub seed: u64,
    /// Engine axis.
    pub backend: Vec<Backend>,
    /// Application axis (the plan's `pattern` key, named after the
    /// paper's DAG-pattern abstraction).
    pub pattern: Vec<AppKind>,
    /// Problem-scale axis (vertex counts).
    pub vertices: Vec<u64>,
    /// Place-count axis.
    pub places: Vec<u16>,
    /// Coalescing byte-budget axis (`None` = off).
    pub coalesce: Vec<Option<usize>>,
    /// Tile-size axis (1 = untiled; >1 needs the threads backend).
    pub tile: Vec<u32>,
    /// Remote-value cache-capacity axis.
    pub cache: Vec<usize>,
    /// Fixed distribution override.
    pub dist: DistChoice,
    /// Fixed scheduling strategy.
    pub schedule: ScheduleStrategy,
}

/// One expanded grid cell, ready to run.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// Owning plan name.
    pub plan: String,
    /// Owning plan digest.
    pub plan_digest: u64,
    /// Position in the expansion (0-based, canonical order).
    pub index: usize,
    /// Stable cell id, e.g. `sim/swlag/v10000/p2/coff/t1/k4096`.
    pub cell: String,
    /// Engine.
    pub backend: Backend,
    /// Application.
    pub app: AppKind,
    /// Problem scale.
    pub vertices: u64,
    /// Places.
    pub places: u16,
    /// Coalescing budget (`None` = off).
    pub coalesce: Option<usize>,
    /// Tile size (1 = untiled).
    pub tile: u32,
    /// Cache capacity.
    pub cache: usize,
    /// Distribution.
    pub dist: DistChoice,
    /// Scheduling strategy.
    pub schedule: ScheduleStrategy,
    /// The cell's workload seed, derived from the plan seed and the
    /// cell id (stable under plan edits that leave this cell in place).
    pub seed: u64,
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.cell)
    }
}

/// SplitMix64 — the standard seed scrambler, also used by the chaos
/// harness's scenario expansion.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn coalesce_name(c: Option<usize>) -> String {
    match c {
        None => "off".into(),
        Some(n) => n.to_string(),
    }
}

impl AblationPlan {
    /// Parses a plan from TOML text. Unknown keys and sections are
    /// errors: a typoed axis must not silently vanish from a sweep.
    pub fn parse(text: &str) -> Result<AblationPlan, String> {
        let doc = toml_lite::parse(text)?;
        for section in &doc.sections {
            match section.path.as_slice() {
                [] => {
                    for (key, (_, line)) in &section.entries {
                        if key != "name" && key != "seed" {
                            return Err(format!("line {line}: unknown top-level key `{key}`"));
                        }
                    }
                }
                [s] if s == "grid" || s == "fixed" => {}
                other => {
                    return Err(format!(
                        "line {}: unknown section [{}]",
                        section.line,
                        other.join(".")
                    ))
                }
            }
        }
        let root = doc.root();
        let name = root
            .get("name")
            .and_then(Value::as_str)
            .ok_or("plan needs a top-level `name = \"…\"`")?
            .to_string();
        let seed = match root.get("seed") {
            None => 1,
            Some(Value::Int(n)) if *n >= 0 => *n as u64,
            Some(_) => return Err("`seed` must be a non-negative integer".into()),
        };
        let grid = doc
            .section(&["grid"])
            .ok_or("plan needs a [grid] section")?;
        for (key, (_, line)) in &grid.entries {
            if !matches!(
                key.as_str(),
                "backend" | "pattern" | "vertices" | "places" | "coalesce" | "tile" | "cache"
            ) {
                return Err(format!("line {line}: unknown grid axis `{key}`"));
            }
        }
        let axis = |key: &str| -> Result<Vec<Value>, String> {
            match grid.get(key) {
                Some(Value::Array(items)) => Ok(items.clone()),
                Some(single) => Ok(vec![single.clone()]),
                None => Err(format!("grid axis `{key}` is missing")),
            }
        };
        let backend = axis("backend")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(Backend::parse)
                    .ok_or(format!("bad backend {v:?} (sim|threads|sockets)"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pattern = axis("pattern")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(AppKind::parse)
                    .ok_or(format!("bad pattern {v:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let uint_axis = |key: &str| -> Result<Vec<u64>, String> {
            axis(key)?
                .iter()
                .map(|v| match v.as_int() {
                    Some(n) if n >= 0 => Ok(n as u64),
                    _ => Err(format!("bad {key} value {v:?} (non-negative integer)")),
                })
                .collect()
        };
        let vertices = uint_axis("vertices")?;
        let places = uint_axis("places")?
            .into_iter()
            .map(|n| u16::try_from(n).map_err(|_| format!("places value {n} too large")))
            .collect::<Result<Vec<_>, _>>()?;
        let coalesce = axis("coalesce")?
            .iter()
            .map(|v| match v {
                Value::Str(s) if s == "off" => Ok(None),
                Value::Int(0) => Ok(None),
                Value::Int(n) if *n > 0 => Ok(Some(*n as usize)),
                other => Err(format!("bad coalesce value {other:?} (\"off\" or bytes)")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tile = uint_axis("tile")?
            .into_iter()
            .map(|n| u32::try_from(n).map_err(|_| format!("tile value {n} too large")))
            .collect::<Result<Vec<_>, _>>()?;
        let cache = uint_axis("cache")?
            .into_iter()
            .map(|n| n as usize)
            .collect();
        let mut dist = DistChoice::Default;
        let mut schedule = ScheduleStrategy::Local;
        if let Some(fixed) = doc.section(&["fixed"]) {
            for (key, (value, line)) in &fixed.entries {
                match key.as_str() {
                    "dist" => {
                        dist = value
                            .as_str()
                            .and_then(DistChoice::parse)
                            .ok_or(format!("line {line}: bad dist {value:?}"))?
                    }
                    "schedule" => {
                        schedule = value
                            .as_str()
                            .and_then(ScheduleStrategy::parse)
                            .ok_or(format!("line {line}: bad schedule {value:?}"))?
                    }
                    other => return Err(format!("line {line}: unknown fixed knob `{other}`")),
                }
            }
        }
        Ok(AblationPlan {
            name,
            seed,
            backend,
            pattern,
            vertices,
            places,
            coalesce,
            tile,
            cache,
            dist,
            schedule,
        })
    }

    /// The canonical serialization the digest is computed over: fixed
    /// key order and one canonical spelling per value, so any TOML
    /// field/section reordering that parses to the same plan hashes to
    /// the same digest.
    pub fn canonical(&self) -> String {
        let list = |items: &[String]| items.join(",");
        format!(
            "plan={}\nseed={}\nbackend={}\npattern={}\nvertices={}\nplaces={}\ncoalesce={}\ntile={}\ncache={}\ndist={}\nschedule={}\n",
            self.name,
            self.seed,
            list(&self.backend.iter().map(|b| b.name().to_string()).collect::<Vec<_>>()),
            list(&self.pattern.iter().map(|a| a.name().to_string()).collect::<Vec<_>>()),
            list(&self.vertices.iter().map(u64::to_string).collect::<Vec<_>>()),
            list(&self.places.iter().map(u16::to_string).collect::<Vec<_>>()),
            list(&self.coalesce.iter().map(|c| coalesce_name(*c)).collect::<Vec<_>>()),
            list(&self.tile.iter().map(u32::to_string).collect::<Vec<_>>()),
            list(&self.cache.iter().map(|c| c.to_string()).collect::<Vec<_>>()),
            self.dist.name(),
            self.schedule.name(),
        )
    }

    /// The plan's stable digest (FNV-1a over [`canonical`]).
    ///
    /// [`canonical`]: AblationPlan::canonical
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Checks the plan describes something every cell can actually run.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(format!(
                "plan name `{}` must be non-empty [A-Za-z0-9._-] (it keys files and CSV rows)",
                self.name
            ));
        }
        macro_rules! check_axis {
            ($field:ident, $render:expr) => {
                if self.$field.is_empty() {
                    return Err(concat!("axis `", stringify!($field), "` is empty").into());
                }
                for (i, a) in self.$field.iter().enumerate() {
                    if self.$field[..i].contains(a) {
                        return Err(format!(
                            "axis `{}` lists {} twice (cells must be unique)",
                            stringify!($field),
                            $render(a)
                        ));
                    }
                }
            };
        }
        check_axis!(backend, |b: &Backend| b.name());
        check_axis!(pattern, |a: &AppKind| a.name());
        check_axis!(vertices, |v: &u64| v.to_string());
        check_axis!(places, |p: &u16| p.to_string());
        check_axis!(coalesce, |c: &Option<usize>| coalesce_name(*c));
        check_axis!(tile, |t: &u32| t.to_string());
        check_axis!(cache, |c: &usize| c.to_string());
        if self.places.contains(&0) {
            return Err("places must be at least 1".into());
        }
        if self.tile.contains(&0) {
            return Err("tile must be at least 1 (1 = untiled)".into());
        }
        if self.vertices.iter().any(|&v| v < 4) {
            return Err("vertices must be at least 4".into());
        }
        if self.backend.contains(&Backend::Sockets) && self.places.iter().any(|&p| p < 2) {
            return Err("the sockets backend needs at least 2 places in the places axis".into());
        }
        if self.tile.iter().any(|&t| t > 1) && self.backend.iter().any(|&b| b != Backend::Threads) {
            return Err(
                "tile sizes above 1 run on the threads backend only; split the plan".into(),
            );
        }
        Ok(())
    }

    /// Expands the grid to its ordered experiment list. The nesting
    /// order is canonical (backend, pattern, vertices, places, coalesce,
    /// tile, cache — outermost first), so the same plan always produces
    /// the identical list.
    pub fn expand(&self) -> Vec<Experiment> {
        let digest = self.digest();
        let mut cells = Vec::new();
        for &backend in &self.backend {
            for &app in &self.pattern {
                for &vertices in &self.vertices {
                    for &places in &self.places {
                        for &coalesce in &self.coalesce {
                            for &tile in &self.tile {
                                for &cache in &self.cache {
                                    let cell = format!(
                                        "{}/{}/v{}/p{}/c{}/t{}/k{}",
                                        backend.name(),
                                        app.name(),
                                        vertices,
                                        places,
                                        coalesce_name(coalesce),
                                        tile,
                                        cache
                                    );
                                    let seed = splitmix64(self.seed ^ fnv1a(cell.as_bytes()));
                                    cells.push(Experiment {
                                        plan: self.name.clone(),
                                        plan_digest: digest,
                                        index: cells.len(),
                                        cell,
                                        backend,
                                        app,
                                        vertices,
                                        places,
                                        coalesce,
                                        tile,
                                        cache,
                                        dist: self.dist,
                                        schedule: self.schedule,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// All one-step-smaller plans: each drops a single value from an
    /// axis that has at least two. Shrinking preserves validity and
    /// only removes cells, never invents new ones — the property tests
    /// pin both.
    pub fn shrink(&self) -> Vec<AblationPlan> {
        let mut out = Vec::new();
        macro_rules! shrink_axis {
            ($field:ident) => {
                if self.$field.len() > 1 {
                    for drop in 0..self.$field.len() {
                        let mut plan = self.clone();
                        plan.$field.remove(drop);
                        out.push(plan);
                    }
                }
            };
        }
        shrink_axis!(backend);
        shrink_axis!(pattern);
        shrink_axis!(vertices);
        shrink_axis!(places);
        shrink_axis!(coalesce);
        shrink_axis!(tile);
        shrink_axis!(cache);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
name = \"demo\"
seed = 9

[grid]
backend = [\"sim\", \"threads\"]
pattern = [\"lcs\"]
vertices = [2000]
places = [2]
coalesce = [\"off\", 4096]
tile = [1]
cache = [64, 4096]

[fixed]
dist = \"cyclic-col\"
schedule = \"local\"
";

    #[test]
    fn parse_expand_and_order() {
        let plan = AblationPlan::parse(DEMO).unwrap();
        plan.validate().unwrap();
        let cells = plan.expand();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].cell, "sim/lcs/v2000/p2/coff/t1/k64");
        assert_eq!(cells[7].cell, "threads/lcs/v2000/p2/c4096/t1/k4096");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.plan_digest, plan.digest());
        }
        // Same plan, same list — byte-identical.
        let again = AblationPlan::parse(DEMO).unwrap().expand();
        assert_eq!(cells, again);
    }

    #[test]
    fn digest_invariant_under_reordering() {
        let reordered = "\
[fixed]
schedule = \"local\"
dist = \"cyclic-col\"

[grid]
cache = [64, 4096]
tile = [1]
coalesce = [\"off\", 4096]
places = [2]
vertices = [2000]
pattern = [\"lcs\"]
backend = [\"sim\", \"threads\"]
";
        // Top-level keys must precede the first section in TOML, so the
        // reordered file carries them via a prepended root.
        let reordered = format!("seed = 9\nname = \"demo\"\n{reordered}");
        let a = AblationPlan::parse(DEMO).unwrap();
        let b = AblationPlan::parse(&reordered).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sensitive_to_values() {
        let a = AblationPlan::parse(DEMO).unwrap();
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.cache = vec![4096, 64]; // value order is meaningful
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let base = AblationPlan::parse(DEMO).unwrap();
        let mut empty_axis = base.clone();
        empty_axis.vertices.clear();
        assert!(empty_axis.validate().unwrap_err().contains("vertices"));
        let mut dup = base.clone();
        dup.cache = vec![64, 64];
        assert!(dup.validate().unwrap_err().contains("twice"));
        let mut tiled_sim = base.clone();
        tiled_sim.tile = vec![1, 4];
        assert!(tiled_sim.validate().unwrap_err().contains("threads"));
        let mut sockets_one_place = base.clone();
        sockets_one_place.backend = vec![Backend::Sockets];
        sockets_one_place.places = vec![1];
        assert!(sockets_one_place
            .validate()
            .unwrap_err()
            .contains("2 places"));
        let mut bad_name = base;
        bad_name.name = "has space".into();
        assert!(bad_name.validate().is_err());
    }

    #[test]
    fn unknown_keys_are_errors() {
        for (text, needle) in [
            (
                "name = \"x\"\nsped = 1\n[grid]\nbackend = [\"sim\"]\npattern = [\"lcs\"]\nvertices = [100]\nplaces = [1]\ncoalesce = [\"off\"]\ntile = [1]\ncache = [0]\n",
                "unknown top-level key `sped`",
            ),
            (
                "name = \"x\"\n[grid]\nbakend = [\"sim\"]\n",
                "unknown grid axis `bakend`",
            ),
            ("name = \"x\"\n[grd]\n", "unknown section"),
            (
                "name = \"x\"\n[grid]\nbackend = [\"sim\"]\npattern = [\"lcs\"]\nvertices = [100]\nplaces = [1]\ncoalesce = [\"off\"]\ntile = [1]\ncache = [0]\n[fixed]\ndost = \"cyclic-col\"\n",
                "unknown fixed knob",
            ),
        ] {
            let e = AblationPlan::parse(text).unwrap_err();
            assert!(e.contains(needle), "`{needle}` not in `{e}`");
        }
    }

    #[test]
    fn shrinks_stay_valid_and_shrink() {
        let plan = AblationPlan::parse(DEMO).unwrap();
        let shrinks = plan.shrink();
        assert!(!shrinks.is_empty());
        let full: Vec<String> = plan.expand().into_iter().map(|c| c.cell).collect();
        for small in &shrinks {
            small.validate().unwrap();
            let cells = small.expand();
            assert!(cells.len() < full.len());
            for c in &cells {
                assert!(full.contains(&c.cell), "shrink invented cell {}", c.cell);
            }
        }
    }
}
