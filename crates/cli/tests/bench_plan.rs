//! End-to-end tests of `dpx10 bench` and the ratchet exit codes,
//! driving the real binary. Each test works in its own temp
//! directory so registry/baseline files never collide; the committed
//! pinned plan is exercised at a reduced scale through an equivalent
//! generated plan to keep the suite fast.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn dpx10_in(dir: &PathBuf, envs: &[(&str, &str)], args: &[&str]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpx10"));
    cmd.current_dir(dir).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh working dir holding a small 3-backend plan (the pinned
/// plan's shape at test scale).
fn plan_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpx10-bench-plan-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join("plan.toml"),
        "name = \"small\"\nseed = 1\n\n[grid]\nbackend = [\"sim\", \"threads\", \"sockets\"]\n\
         pattern = [\"lcs\"]\nvertices = [900]\nplaces = [2]\ncoalesce = [\"off\", 4096]\n\
         tile = [1]\ncache = [4096]\n\n[fixed]\ndist = \"cyclic-col\"\nschedule = \"local\"\n",
    )
    .unwrap();
    dir
}

#[test]
fn plan_run_is_deterministic_and_appends_registry() {
    let dir = plan_dir("determinism");
    let args = [
        "bench",
        "--plan",
        "plan.toml",
        "--ratchet",
        "--update-baseline",
    ];
    let (code, first, stderr) = dpx10_in(&dir, &[], &args);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(first.contains("baseline created"), "{first}");
    // Second run ratchets against the freshly committed baseline; its
    // stdout (fingerprints + deterministic KPIs) must be byte-identical
    // apart from the ratchet line, which flips from "created" to PASS.
    let (code, second, stderr) =
        dpx10_in(&dir, &[], &["bench", "--plan", "plan.toml", "--ratchet"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let cells = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("  fp 0x"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(cells(&first), cells(&second));
    assert_eq!(cells(&first).len(), 6);
    assert!(
        second.contains("ratchet: PASS, 6 cells within tolerance"),
        "{second}"
    );
    // Third run, plain --ratchet again: fully identical stdout.
    let (code, third, _) = dpx10_in(&dir, &[], &["bench", "--plan", "plan.toml", "--ratchet"]);
    assert_eq!(code, 0);
    assert_eq!(
        second, third,
        "two consecutive ratchet runs print identical stdout"
    );
    // The registry accumulated one row set per run, all under the
    // committed header.
    let registry = fs::read_to_string(dir.join("results/registry.csv")).unwrap();
    let mut lines = registry.lines();
    assert!(lines.next().unwrap().starts_with("plan,cell,prov,"));
    assert_eq!(registry.lines().count(), 1 + 3 * 6);
    for row in registry.lines().skip(1) {
        assert!(row.starts_with("small,"), "{row}");
        assert!(row.contains(",run,"), "provenance source column: {row}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn injected_wall_breach_fails_the_ratchet() {
    let dir = plan_dir("breach");
    let (code, _, stderr) = dpx10_in(
        &dir,
        &[],
        &[
            "bench",
            "--plan",
            "plan.toml",
            "--ratchet",
            "--update-baseline",
        ],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    // A deliberate wall-time blowup (far past the 2x-style tolerance)
    // must make the command fail with a regression diagnostic.
    let (code, _, stderr) = dpx10_in(
        &dir,
        &[("DPX10_BENCH_WALL_SCALE", "1000")],
        &["bench", "--plan", "plan.toml", "--ratchet"],
    );
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("perf ratchet FAILED"), "{stderr}");
    assert!(stderr.contains("wall_us"), "{stderr}");
    assert!(stderr.contains("exceeds baseline"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ratchet_without_baseline_is_an_error_and_update_creates_it() {
    let dir = plan_dir("no-baseline");
    let (code, _, stderr) = dpx10_in(&dir, &[], &["bench", "--plan", "plan.toml", "--ratchet"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--update-baseline"), "{stderr}");
    let (code, stdout, _) = dpx10_in(
        &dir,
        &[],
        &[
            "bench",
            "--plan",
            "plan.toml",
            "--ratchet",
            "--update-baseline",
        ],
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains("baseline created at plans/baselines/small.toml"),
        "{stdout}"
    );
    let baseline = fs::read_to_string(dir.join("plans/baselines/small.toml")).unwrap();
    assert!(baseline.contains("plan = \"small\""));
    assert!(baseline.contains("plan_digest"));
    assert!(
        baseline.contains("[cells.\"sim/lcs/v900/p2/coff/t1/k4096\"]"),
        "{baseline}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_plan_and_baseline_diagnose() {
    let dir = plan_dir("malformed");
    fs::write(
        dir.join("bad-plan.toml"),
        "name = \"x\"\n[grid]\nbakend = [\"sim\"]\n",
    )
    .unwrap();
    let (code, _, stderr) = dpx10_in(&dir, &[], &["bench", "--plan", "bad-plan.toml"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown grid axis `bakend`"), "{stderr}");
    fs::create_dir_all(dir.join("plans/baselines")).unwrap();
    fs::write(dir.join("plans/baselines/small.toml"), "plan = 7\n").unwrap();
    let (code, _, stderr) = dpx10_in(&dir, &[], &["bench", "--plan", "plan.toml", "--ratchet"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("plans/baselines/small.toml"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bench_is_plan_only_and_the_deleted_flags_are_unknown() {
    let dir = plan_dir("plan-only");
    let (code, _, stderr) = dpx10_in(&dir, &[], &["bench"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("bench needs --plan FILE"), "{stderr}");
    let (code, _, stderr) = dpx10_in(&dir, &[], &["bench", "--comms", "push"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown bench flag --comms"), "{stderr}");
    let (code, _, stderr) = dpx10_in(&dir, &[], &["serve", "--bench-out", "x"]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("unknown serve flag --bench-out"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trend_artifact_aggregates_registry() {
    let dir = plan_dir("trend");
    let (code, _, stderr) = dpx10_in(
        &dir,
        &[],
        &["bench", "--plan", "plan.toml", "--trend", "trend.json"],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    let (code, stdout, stderr) = dpx10_in(
        &dir,
        &[],
        &["bench", "--plan", "plan.toml", "--trend", "trend.json"],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("trend: trend.json"), "{stdout}");
    let trend = fs::read_to_string(dir.join("trend.json")).unwrap();
    assert!(trend.contains("\"runs\": 2"), "{trend}");
    assert!(
        trend.contains("small/sim/lcs/v900/p2/coff/t1/k4096"),
        "{trend}"
    );
    let _ = fs::remove_dir_all(&dir);
}
