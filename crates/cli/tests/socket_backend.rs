//! End-to-end tests of `dpx10 run --backend sockets`: real place
//! processes, a real TCP mesh, and a real `SIGKILL` aimed at a worker
//! mid-run.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn dpx10(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpx10"));
    cmd.args(args);
    cmd
}

/// Runs the CLI to completion and returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = dpx10(args).output().expect("spawn dpx10");
    assert!(
        out.status.success(),
        "dpx10 {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn answer_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("answer: "))
        .unwrap_or_else(|| panic!("no answer line in {stdout:?}"))
}

fn vertices_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("vertices: "))
        .unwrap_or_else(|| panic!("no vertices line in {stdout:?}"))
}

/// The four paper applications must produce the same answer on the
/// multi-process socket backend, the in-process threaded backend and
/// the deterministic simulator (the serial oracle).
#[test]
fn paper_apps_agree_across_backends() {
    for app in ["swlag", "mtp", "lps", "knapsack"] {
        let common = ["--vertices", "20000", "--seed", "7"];
        let sockets = run_ok(
            &[
                &["run", app, "--backend", "sockets", "--places", "4"],
                &common[..],
            ]
            .concat(),
        );
        let threaded = run_ok(
            &[
                &["run", app, "--backend", "threads", "--places", "4"],
                &common[..],
            ]
            .concat(),
        );
        let sim = run_ok(&[&["run", app, "--backend", "sim"], &common[..]].concat());
        assert_eq!(
            answer_line(&sockets),
            answer_line(&threaded),
            "{app}: sockets vs threads"
        );
        assert_eq!(
            answer_line(&sockets),
            answer_line(&sim),
            "{app}: sockets vs sim"
        );
        assert_eq!(
            vertices_line(&sockets),
            vertices_line(&threaded),
            "{app}: both real backends compute every vertex once"
        );
    }
}

/// `--fault P:F` on the socket backend makes the victim process abort
/// for real; the run must still finish with the fault-free answer.
#[test]
fn planned_fault_on_sockets_recovers_to_the_fault_free_answer() {
    let clean = run_ok(&[
        "run",
        "lps",
        "--backend",
        "sockets",
        "--places",
        "4",
        "--vertices",
        "20000",
    ]);
    let faulted = run_ok(&[
        "run",
        "lps",
        "--backend",
        "sockets",
        "--places",
        "4",
        "--vertices",
        "20000",
        "--fault",
        "3:0.5",
    ]);
    assert_eq!(answer_line(&clean), answer_line(&faulted));
    assert!(
        faulted.contains("recovery #0"),
        "no recovery in {faulted:?}"
    );
}

/// Whether process `pid` runs a thread whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn has_thread(pid: &str, prefix: &str) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    tasks.flatten().any(|task| {
        std::fs::read_to_string(task.path().join("comm")).is_ok_and(|name| name.starts_with(prefix))
    })
}

/// Sends `signal` to `pid`; whether the process was there to take it.
#[cfg(target_os = "linux")]
fn signal(name: &str, pid: &str) -> bool {
    let status = Command::new("kill").args([name, pid]).status();
    status.expect("run kill").success()
}

/// Kills a worker place with `SIGKILL` mid-run. The survivors must
/// detect the dead peer, recover, and finish with the same answer as a
/// fault-free run.
///
/// The kill is mid-computation by construction: the victim is stopped
/// (`SIGSTOP`) as soon as its first epoch's worker threads exist, so
/// the mesh is formed, and the run cannot finish while the victim holds
/// an uncomputed chunk. It is killed while stopped.
#[cfg(target_os = "linux")]
#[test]
fn sigkill_mid_run_recovers_and_matches_fault_free() {
    let args = [
        "run",
        "mtp",
        "--backend",
        "sockets",
        "--places",
        "4",
        "--vertices",
        "500000",
        "--seed",
        "3",
    ];
    let clean = run_ok(&args);

    let mut child = dpx10(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dpx10");

    // Hang insurance: SIGKILL the whole run if it wedges.
    let coordinator_pid = child.id();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(120));
        let _ = Command::new("kill")
            .args(["-9", &coordinator_pid.to_string()])
            .status();
    });

    // The launcher announces every worker as `dpx10: place P pid N` on
    // stderr before the computation starts.
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let victim_pid = loop {
        let mut line = String::new();
        assert_ne!(
            stderr.read_line(&mut line).expect("read stderr"),
            0,
            "stderr closed"
        );
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["dpx10:", "place", "2", "pid", pid] = words[..] {
            break pid.to_string();
        }
    };

    // Place 2's workers are threads `dpx10-p2w*`, started by its first
    // epoch once the mesh is up. Freeze it the moment they exist, let
    // the survivors run into the missing chunk, then kill it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_thread(&victim_pid, "dpx10-p2w") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stopped = signal("-STOP", &victim_pid);
    std::thread::sleep(Duration::from_millis(200));
    let killed = signal("-KILL", &victim_pid);
    assert!(
        stopped && killed,
        "place 2 was gone before its epoch started (stopped {stopped}, killed {killed})"
    );

    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    let out = child.wait_with_output().expect("wait dpx10");
    drop(watchdog); // detached; the process tree is gone before it fires
    assert!(
        out.status.success(),
        "run died after SIGKILL of place 2:\nstderr: {rest}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        answer_line(&clean),
        answer_line(&stdout),
        "recovered answer differs from fault-free"
    );
    assert!(
        stdout.contains("recovery #0"),
        "no recovery reported in {stdout:?}"
    );
}

/// `dpx10 join` end to end: a two-place socket run with room for a
/// third (`DPX10_MAX_PLACES=3`) announces its coordinator on stderr.
/// Once place 1's workers run — the mesh is formed and the run under
/// way — a probe is admitted as place 2, drains back out, and the run
/// still ends with the fault-free answer and no recovery.
#[cfg(target_os = "linux")]
#[test]
fn join_probe_enters_a_running_mesh_and_drains_cleanly() {
    let args = [
        "run",
        "swlag",
        "--backend",
        "sockets",
        "--places",
        "2",
        "--vertices",
        "4000000",
    ];
    let clean = run_ok(&args);

    let mut child = dpx10(&args)
        .env("DPX10_MAX_PLACES", "3")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dpx10");
    let coordinator_pid = child.id();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(120));
        let _ = Command::new("kill")
            .args(["-9", &coordinator_pid.to_string()])
            .status();
    });

    // `dpx10: coordinator ADDR accepting joins (capacity 3)`, then
    // `dpx10: place 1 pid N`.
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let (mut coordinator, mut worker_pid) = (None, None);
    while worker_pid.is_none() {
        let mut line = String::new();
        assert_ne!(
            stderr.read_line(&mut line).expect("read stderr"),
            0,
            "stderr closed"
        );
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["dpx10:", "coordinator", addr, "accepting", "joins", "(capacity", "3)"] => {
                coordinator = Some(addr.to_string())
            }
            ["dpx10:", "place", "1", "pid", pid] => worker_pid = Some(pid.to_string()),
            _ => {}
        }
    }
    let coordinator = coordinator.expect("no `accepting joins` line before place 1's");
    let worker_pid = worker_pid.unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_thread(&worker_pid, "dpx10-p1w") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }

    let joined = run_ok(&["join", "--coordinator", &coordinator]);
    assert!(
        joined.contains(&format!("joined mesh at {coordinator} as place 2\n")),
        "{joined}"
    );
    assert!(joined.contains("draining back out"), "{joined}");

    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    let out = child.wait_with_output().expect("wait dpx10");
    drop(watchdog); // detached; the process tree is gone before it fires
    assert!(out.status.success(), "run failed after the join:\n{rest}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(answer_line(&clean), answer_line(&stdout));
    assert!(
        !stdout.contains("recovery"),
        "a drain is not a death: {stdout}"
    );
}
