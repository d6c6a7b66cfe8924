//! End-to-end tests of the `dpx10` binary itself.

use std::process::Command;

fn dpx10(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dpx10"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero() {
    let (code, stdout, _) = dpx10(&["help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("swlag"));
}

#[test]
fn apps_and_patterns_list() {
    let (code, stdout, _) = dpx10(&["apps"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("knapsack"));

    let (code, stdout, _) = dpx10(&["patterns", "--size", "10x10"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("grid3"));
    assert!(stdout.contains("critical path"));
}

#[test]
fn run_small_sim_succeeds() {
    let (code, stdout, stderr) = dpx10(&["run", "lcs", "--vertices", "2000", "--nodes", "2"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("answer: LCS length"));
    assert!(stdout.contains("simulated makespan"));
}

#[test]
fn run_with_fault_reports_recovery() {
    let (code, stdout, stderr) = dpx10(&[
        "run",
        "mtp",
        "--vertices",
        "5000",
        "--nodes",
        "2",
        "--fault",
        "3",
    ]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("recovery #0"), "{stdout}");
    assert!(stdout.contains("2 epochs"), "{stdout}");
}

#[test]
fn bad_flags_exit_nonzero_with_usage() {
    let (code, _, stderr) = dpx10(&["run", "lcs", "--engine", "quantum"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown engine"));
    assert!(stderr.contains("USAGE"));

    let (code, _, stderr) = dpx10(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn timeline_flag_prints_timeline() {
    let (code, stdout, _) = dpx10(&[
        "run",
        "swlag",
        "--vertices",
        "4000",
        "--nodes",
        "2",
        "--timeline",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("activity timeline"));
}

#[test]
fn threaded_timeline_prints_one_row_per_place() {
    let args = "run swlag --vertices 4000 --engine threaded --places 3 --timeline";
    let (code, stdout, stderr) = dpx10(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains("activity timeline (3969 finishes"),
        "{stdout}"
    );
    let rows = stdout.lines().filter(|l| l.starts_with("place ")).count();
    assert_eq!(rows, 3, "{stdout}");
    assert!(!stdout.contains("dropped"), "{stdout}");
}

#[test]
fn sockets_timeline_is_refused() {
    let args = "run swlag --timeline --engine sockets --places 2";
    let (code, _, stderr) = dpx10(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(code, 2);
    assert!(stderr.contains("--timeline needs the sim or threads backend"));
}

#[test]
fn chaos_sweep_is_bit_for_bit_reproducible() {
    // Sockets excluded to keep this fast; determinism must hold anyway.
    let args = ["chaos", "--start", "2", "--count", "2", "--no-sockets"];
    let (code_a, out_a, _) = dpx10(&args);
    let (code_b, out_b, _) = dpx10(&args);
    assert_eq!(code_a, 0, "{out_a}");
    assert_eq!(code_b, 0);
    assert_eq!(out_a, out_b, "chaos output must not depend on timing");
    assert!(out_a.contains("chaos: 2 seed(s), 2 passed, 0 failed"));
}

#[test]
fn chaos_rejects_a_zero_count() {
    let (code, _, stderr) = dpx10(&["chaos", "--count", "0"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("count"));
}

#[test]
fn serve_over_place_processes_verifies_every_job() {
    // README's quickstart: the launcher re-executes this binary once
    // per worker place, so the job protocol crosses real process
    // boundaries (the in-process serve tests run places as threads).
    let (code, stdout, stderr) = dpx10(&[
        "serve", "--jobs", "4", "--app", "lcs", "--places", "3", "--verify",
    ]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stdout.matches("verified").count(), 4, "{stdout}");
    assert!(stdout.contains("done: 4/4 succeeded"), "{stdout}");
}

#[test]
fn elastic_chaos_sweep_passes_its_first_seeds() {
    // Joins, drains and kills against the solo fingerprint and the
    // serial oracle, through the front door.
    let (code, stdout, stderr) = dpx10(&["chaos", "--elastic", "--start", "0", "--count", "3"]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("3 passed, 0 failed"), "{stdout}");
}

#[test]
fn elastic_chaos_sweep_is_byte_for_byte_reproducible() {
    // The sweep runs on worker threads, where a kill's losses depend on
    // the schedule; its report prints only what the plan determines.
    let args = ["chaos", "--elastic", "--start", "0", "--count", "5"];
    let (code_a, out_a, _) = dpx10(&args);
    let (code_b, out_b, _) = dpx10(&args);
    assert_eq!((code_a, code_b), (0, 0), "{out_a}");
    assert_eq!(
        out_a, out_b,
        "elastic chaos output must not depend on timing"
    );
    assert!(out_a.contains("5 passed, 0 failed"), "{out_a}");
}

#[test]
fn elastic_serve_verifies_every_job_without_recompute() {
    // README's elastic quickstart: every job's mesh grows 3 -> 5 and
    // drains back, the drainers hand their cells over, nothing is
    // computed twice.
    let (code, stdout, stderr) = dpx10(&["serve", "--elastic", "--jobs", "2"]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    let jobs: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("fingerprint"))
        .collect();
    assert_eq!(jobs.len(), 2, "{stdout}");
    for job in jobs {
        assert!(job.ends_with("verified"), "{job}");
        assert!(job.contains("mesh 3 -> 4 -> 5 -> 4 -> 3"), "{job}");
        assert!(job.contains("handed over"), "{job}");
        assert!(!job.contains("handed over 0 cell"), "{job}");
    }
    assert!(stdout.contains(", 0 recomputed"), "{stdout}");
}
