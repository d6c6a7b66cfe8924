//! Host facts recorded with every run: a number measured on two cores
//! of a shared machine means nothing without them.

use std::path::Path;
use std::process::Command;

use crate::spans::json_string;

/// `(key, JSON value)` pairs describing the host and the source tree.
pub fn facts(repo_root: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu_model".to_string(), json_string(&model)),
        ("caches".to_string(), json_string(&caches())),
        (
            "git_describe".to_string(),
            json_string(&git_describe(repo_root)),
        ),
    ]
}

/// Cache levels of cpu0 as `L1d=32K L2=4096K …`, or `unknown`.
fn caches() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            break;
        };
        let kind = match read("type").as_deref().map(str::trim) {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{}{kind}={}", level.trim(), size.trim()));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(" ")
    }
}

/// `git describe --always --dirty` of the repository, or `unknown` in a
/// checkout that is not a git repository (git may not look above it).
fn git_describe(repo_root: &Path) -> String {
    let ceiling = repo_root.parent().unwrap_or(repo_root);
    Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
