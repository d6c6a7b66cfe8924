//! The append-only experiment registry: provenance hashing, the
//! `results/registry.csv` row format, per-run JSON reports, and the
//! trend aggregation the nightly job publishes.
//!
//! Every executed cell becomes one [`RunRecord`]. A record's provenance
//! hash binds the plan digest, the cell id, the git tree (`git
//! describe`), and a host fingerprint, so any registry row can be
//! traced back to the exact plan and environment that produced it. The
//! CSV is append-only: writers verify the committed header before
//! adding rows and never rewrite history.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// The canonical FNV-1a 64-bit hash — the same digest
/// `DagResult::fingerprint` builds on, reused here so provenance and
/// result hashes share one primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The git tree identity for provenance rows: the
/// `DPX10_GIT_DESCRIBE` env override if set (tests and CI pin it),
/// else `git describe --always --dirty`, else `"unknown"`.
pub fn git_describe() -> String {
    if let Ok(v) = std::env::var("DPX10_GIT_DESCRIBE") {
        if !v.is_empty() {
            return v;
        }
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A short host fingerprint (OS, architecture, core count, hostname) so
/// registry rows from different machines are distinguishable without
/// leaking anything sensitive.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let hostname = std::env::var("HOSTNAME").unwrap_or_default();
    format!(
        "{}-{}-c{}-{:08x}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cores,
        fnv1a(hostname.as_bytes()) as u32
    )
}

/// One registry row: identity, provenance, cell coordinates, KPIs.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Plan name.
    pub plan: String,
    /// Cell id within the plan.
    pub cell: String,
    /// Provenance hash (see [`RunRecord::provenance`]).
    pub prov: u64,
    /// Workload seed the cell ran with.
    pub seed: u64,
    /// Git describe of the producing tree.
    pub git: String,
    /// Host fingerprint of the producing machine.
    pub host: String,
    /// Row origin: `run` for registry executions, `seed-import` for
    /// rows migrated from the pre-registry ablation CSVs.
    pub source: String,
    /// Backend name.
    pub backend: String,
    /// Pattern (app) name.
    pub pattern: String,
    /// Vertex count.
    pub vertices: u64,
    /// Place count.
    pub places: u16,
    /// Coalesce budget (`off` or bytes).
    pub coalesce: String,
    /// Tile size.
    pub tile: u32,
    /// Cache capacity.
    pub cache: usize,
    /// Result fingerprint as `0x…` hex, or `-` when unknown.
    pub fingerprint: String,
    /// KPI: vertices computed (includes fault recomputation).
    pub computed: u64,
    /// KPI: recovery passes performed.
    pub recoveries: u64,
    /// KPI: transport frames sent.
    pub frames: u64,
    /// KPI: payload bytes moved.
    pub bytes: u64,
    /// KPI: simulated makespan in microseconds (0 off-simulator).
    pub sim_us: u64,
    /// KPI: measured wall time in microseconds (noisy; ratcheted with
    /// a wide tolerance only).
    pub wall_us: u64,
    /// KPI: pull round-trips issued (`pulls_sent`) — the request half
    /// of the cache-miss path that push mode exists to avoid. Rows
    /// written before the column existed parse as 0.
    pub pull_roundtrips: u64,
}

/// The registry CSV header, exactly as committed in
/// `results/registry.csv`.
pub const CSV_HEADER: &str = "plan,cell,prov,seed,git,host,source,backend,pattern,vertices,\
places,coalesce,tile,cache,fingerprint,computed,recoveries,frames,bytes,sim_us,wall_us,\
pull_roundtrips";

impl RunRecord {
    /// The provenance hash for a cell produced under `git` on `host`:
    /// FNV-1a over the plan digest, cell id, git describe, and host
    /// fingerprint, field-separated so no pair of fields can collide by
    /// concatenation.
    pub fn provenance(plan_digest: u64, cell: &str, git: &str, host: &str) -> u64 {
        fnv1a(format!("{plan_digest:016x}\u{1f}{cell}\u{1f}{git}\u{1f}{host}").as_bytes())
    }

    /// Renders the row in registry CSV column order.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{:016x},{:#018x},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.plan,
            self.cell,
            self.prov,
            self.seed,
            self.git,
            self.host,
            self.source,
            self.backend,
            self.pattern,
            self.vertices,
            self.places,
            self.coalesce,
            self.tile,
            self.cache,
            self.fingerprint,
            self.computed,
            self.recoveries,
            self.frames,
            self.bytes,
            self.sim_us,
            self.wall_us,
            self.pull_roundtrips
        )
    }

    /// Parses one registry CSV row (the inverse of [`to_csv`]).
    ///
    /// [`to_csv`]: RunRecord::to_csv
    pub fn from_csv(line: &str) -> Result<RunRecord, String> {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 22 {
            return Err(format!("registry row has {} fields, expected 22", f.len()));
        }
        let uint = |i: usize, name: &str| -> Result<u64, String> {
            f[i].parse::<u64>()
                .map_err(|_| format!("registry row: bad {name} `{}`", f[i]))
        };
        let hex = |i: usize, name: &str| -> Result<u64, String> {
            u64::from_str_radix(f[i].trim_start_matches("0x"), 16)
                .map_err(|_| format!("registry row: bad {name} `{}`", f[i]))
        };
        Ok(RunRecord {
            plan: f[0].to_string(),
            cell: f[1].to_string(),
            prov: hex(2, "prov")?,
            seed: hex(3, "seed")?,
            git: f[4].to_string(),
            host: f[5].to_string(),
            source: f[6].to_string(),
            backend: f[7].to_string(),
            pattern: f[8].to_string(),
            vertices: uint(9, "vertices")?,
            places: uint(10, "places")? as u16,
            coalesce: f[11].to_string(),
            tile: uint(12, "tile")? as u32,
            cache: uint(13, "cache")? as usize,
            fingerprint: f[14].to_string(),
            computed: uint(15, "computed")?,
            recoveries: uint(16, "recoveries")?,
            frames: uint(17, "frames")?,
            bytes: uint(18, "bytes")?,
            sim_us: uint(19, "sim_us")?,
            wall_us: uint(20, "wall_us")?,
            pull_roundtrips: uint(21, "pull_roundtrips")?,
        })
    }

    /// The record's deterministic KPIs in a fixed render order —
    /// exactly the values two back-to-back runs of the same cell must
    /// reproduce byte-identically (on the simulator `frames`/`bytes`/
    /// `sim_us` are deterministic too, but the shared floor is what the
    /// differential tests pin on every backend).
    pub fn det_kpis(&self) -> [(&'static str, u64); 2] {
        [("computed", self.computed), ("recoveries", self.recoveries)]
    }

    /// All ratchetable KPIs in a fixed render order.
    pub fn kpis(&self) -> [(&'static str, u64); 7] {
        [
            ("computed", self.computed),
            ("recoveries", self.recoveries),
            ("frames", self.frames),
            ("bytes", self.bytes),
            ("sim_us", self.sim_us),
            ("wall_us", self.wall_us),
            ("pull_roundtrips", self.pull_roundtrips),
        ]
    }

    /// Looks a KPI up by its registry column name.
    pub fn kpi(&self, name: &str) -> Option<u64> {
        self.kpis()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Appends records to the registry CSV at `path`, creating it (with the
/// canonical header) if missing. An existing file must start with the
/// exact committed header — a drifted schema is an error, never a
/// silent reinterpretation.
pub fn append(path: &Path, records: &[RunRecord]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let existing = match fs::read_to_string(path) {
        Ok(text) => {
            let head = text.lines().next().unwrap_or("");
            if head != CSV_HEADER {
                return Err(format!(
                    "{}: header mismatch — found `{head}`, expected `{CSV_HEADER}`; \
                     refusing to append to a registry with a different schema",
                    path.display()
                ));
            }
            Some(text.ends_with('\n'))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut out = String::new();
    match existing {
        None => {
            out.push_str(CSV_HEADER);
            out.push('\n');
        }
        Some(true) => {}
        Some(false) => out.push('\n'),
    }
    for r in records {
        out.push_str(&r.to_csv());
        out.push('\n');
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    file.write_all(out.as_bytes())
        .map_err(|e| format!("append {}: {e}", path.display()))
}

/// Loads every row of the registry CSV (skipping the header).
pub fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    match lines.next() {
        Some(head) if head == CSV_HEADER => {}
        Some(head) => {
            return Err(format!(
                "{}: header mismatch — found `{head}`",
                path.display()
            ))
        }
        None => return Err(format!("{}: empty registry", path.display())),
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        rows.push(
            RunRecord::from_csv(line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), i + 2))?,
        );
    }
    Ok(rows)
}

/// Writes the per-run JSON report: provenance block plus one object per
/// record, in execution order.
pub fn write_run_json(
    path: &Path,
    plan_name: &str,
    plan_digest: u64,
    records: &[RunRecord],
) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"plan\": \"{plan_name}\",\n  \"plan_digest\": \"{plan_digest:016x}\",\n  \"git\": \"{}\",\n  \"host\": \"{}\",\n  \"cells\": [",
        records.first().map(|r| r.git.as_str()).unwrap_or("unknown"),
        records.first().map(|r| r.host.as_str()).unwrap_or("unknown"),
    );
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{ \"cell\": \"{}\", \"prov\": \"{:016x}\", \"seed\": \"{:#018x}\", \"fingerprint\": \"{}\", \
\"computed\": {}, \"recoveries\": {}, \"frames\": {}, \"bytes\": {}, \"sim_us\": {}, \"wall_us\": {} }}",
            if i == 0 { "" } else { "," },
            r.cell,
            r.prov,
            r.seed,
            r.fingerprint,
            r.computed,
            r.recoveries,
            r.frames,
            r.bytes,
            r.sim_us,
            r.wall_us
        );
    }
    json.push_str("\n  ]\n}\n");
    fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Aggregates the registry into per-cell trend series (latest-first is
/// not assumed — rows keep file order, which is append order) and
/// renders the JSON artifact the nightly job uploads.
pub fn trend_json(rows: &[RunRecord]) -> String {
    // Preserve first-seen cell order for a stable artifact.
    let mut cells: Vec<(String, Vec<&RunRecord>)> = Vec::new();
    for row in rows {
        let key = format!("{}/{}", row.plan, row.cell);
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(row),
            None => cells.push((key, vec![row])),
        }
    }
    let mut json = String::from("{\n  \"cells\": [");
    for (i, (key, runs)) in cells.iter().enumerate() {
        let series = |pick: fn(&RunRecord) -> u64| -> String {
            let vals: Vec<String> = runs.iter().map(|r| pick(r).to_string()).collect();
            format!("[{}]", vals.join(","))
        };
        let _ = write!(
            json,
            "{}\n    {{ \"cell\": \"{key}\", \"runs\": {}, \"git\": [{}], \
\"wall_us\": {}, \"sim_us\": {}, \"frames\": {}, \"bytes\": {}, \"computed\": {}, \"recoveries\": {} }}",
            if i == 0 { "" } else { "," },
            runs.len(),
            runs.iter()
                .map(|r| format!("\"{}\"", r.git))
                .collect::<Vec<_>>()
                .join(","),
            series(|r| r.wall_us),
            series(|r| r.sim_us),
            series(|r| r.frames),
            series(|r| r.bytes),
            series(|r| r.computed),
            series(|r| r.recoveries),
        );
    }
    json.push_str("\n  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cell: &str, wall: u64) -> RunRecord {
        RunRecord {
            plan: "demo".into(),
            cell: cell.into(),
            prov: RunRecord::provenance(7, cell, "g0", "h0"),
            seed: 0x1234,
            git: "g0".into(),
            host: "h0".into(),
            source: "run".into(),
            backend: "sim".into(),
            pattern: "lcs".into(),
            vertices: 1000,
            places: 2,
            coalesce: "off".into(),
            tile: 1,
            cache: 64,
            fingerprint: "0x00000000deadbeef".into(),
            computed: 1000,
            recoveries: 0,
            frames: 42,
            bytes: 4242,
            sim_us: 900,
            wall_us: wall,
            pull_roundtrips: 3,
        }
    }

    #[test]
    fn csv_round_trip() {
        let r = record("sim/lcs/v1000/p2/coff/t1/k64", 1234);
        let parsed = RunRecord::from_csv(&r.to_csv()).unwrap();
        assert_eq!(r, parsed);
    }

    #[test]
    fn header_field_count_matches_rows() {
        assert_eq!(CSV_HEADER.split(',').count(), 22);
        assert_eq!(record("c", 1).to_csv().split(',').count(), 22);
    }

    #[test]
    fn row_without_pull_roundtrips_is_rejected() {
        let full = record("sim/lcs/v1000/p2/coff/t1/k64", 1234).to_csv();
        let short = full.rsplit_once(',').unwrap().0;
        let err = RunRecord::from_csv(short).unwrap_err();
        assert!(err.contains("21 fields, expected 22"), "{err}");
    }

    #[test]
    fn provenance_separates_fields() {
        // Moving a character across a field boundary must change the hash.
        let a = RunRecord::provenance(1, "ab", "c", "d");
        let b = RunRecord::provenance(1, "a", "bc", "d");
        assert_ne!(a, b);
    }

    #[test]
    fn append_creates_verifies_and_accumulates() {
        let dir = std::env::temp_dir().join(format!("dpx10-registry-{}", std::process::id()));
        let path = dir.join("registry.csv");
        let _ = fs::remove_file(&path);
        append(&path, &[record("a", 1)]).unwrap();
        append(&path, &[record("b", 2)]).unwrap();
        let rows = load(&path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cell, "a");
        assert_eq!(rows[1].cell, "b");
        // A foreign header is refused.
        fs::write(&path, "not,the,header\n").unwrap();
        let err = append(&path, &[record("c", 3)]).unwrap_err();
        assert!(err.contains("header mismatch"), "{err}");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn trend_groups_by_cell_in_first_seen_order() {
        let rows = vec![record("a", 10), record("b", 20), record("a", 12)];
        let json = trend_json(&rows);
        let a_pos = json.find("demo/a").unwrap();
        let b_pos = json.find("demo/b").unwrap();
        assert!(a_pos < b_pos);
        assert!(json.contains("\"wall_us\": [10,12]"), "{json}");
        assert!(json.contains("\"runs\": 2"), "{json}");
    }
}
