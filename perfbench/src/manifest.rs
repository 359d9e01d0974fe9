//! What every run leaves behind in the output directory: a manifest
//! describing the run, and a record of the counters that must repeat
//! exactly for a fixed seed.

use crate::json;
use std::fs;
use std::path::{Path, PathBuf};

/// Where runs write their manifests, spans and exact-counter records,
/// relative to the directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// Writes `contents` to `OUT_DIR/name`, creating the directory.
pub fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR);
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = dir.join(name);
    fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// A field of `/proc/self/status`, trimmed.
pub fn proc_status(field: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `(all, steal)` CPU ticks since boot, summed over CPUs, from
/// `/proc/stat`. Steal is time a runnable virtual CPU waited for the host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user time.
    let all = fields.iter().take(8).sum();
    Some((all, *fields.get(7)?))
}

/// Share of CPU time stolen by the host between two [`cpu_ticks`]
/// readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((a0, s0)), Some((a1, s1))) if a1 > a0 => (s1 - s0) as f64 / (a1 - a0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_status("VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit checked out in the current directory, when it is a git
/// checkout (read from `.git` directly; no subprocess).
pub fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(c) = read(reference) {
        return c.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run's manifest as JSON.
pub fn manifest(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let knobs: Vec<(&str, String)> = contrarian_runtime::env::REGISTERED
        .iter()
        .map(|(name, _)| {
            let v = std::env::var(name).ok();
            (*name, v.map_or("null".to_string(), |v| json::string(&v)))
        })
        .collect();
    json::object(&[
        ("workload", json::string(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("traced", traced.to_string()),
        ("nproc", nproc().to_string()),
        (
            "cpu_affinity",
            json::string(&proc_status("Cpus_allowed_list").unwrap_or_default()),
        ),
        ("commit", json::string(&git_commit())),
        ("build_id", json::string(&build_id())),
        ("sim_engine", json::string("calendar")),
        ("net_engine", json::string("reactor")),
        ("env", json::object(&knobs)),
    ])
}

/// A fingerprint of the running executable, so that records left by a
/// different build are never compared with this one.
pub fn build_id() -> String {
    use std::hash::Hasher;
    let mut h = std::hash::DefaultHasher::new();
    match std::env::current_exe().and_then(fs::read) {
        Ok(bytes) => h.write(&bytes),
        Err(_) => return "unknown".to_string(),
    }
    format!("{:016x}", h.finish())
}

/// Compares `counters` with the record an earlier run of the same build
/// with the same key left, or leaves the record when there is none.
/// Returns one line per counter that differs.
pub fn compare_exact(key: &str, counters: &[(String, u64)]) -> Result<Vec<String>, String> {
    let name = format!("exact-{key}-{}.txt", build_id());
    let path = Path::new(OUT_DIR).join(&name);
    let ours = counter_lines(counters);
    let Ok(theirs) = fs::read_to_string(&path) else {
        write_out(&name, &ours)?;
        return Ok(Vec::new());
    };
    Ok(diff_counters(&theirs, &ours))
}

/// `name value` lines, the form exact-counter records take.
pub fn counter_lines(counters: &[(String, u64)]) -> String {
    counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// Lines of `a` and `b` (`name value` each) that disagree.
pub fn diff_counters(a: &str, b: &str) -> Vec<String> {
    let parse = |s: &str| -> Vec<(String, String)> {
        s.lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let (a, b) = (parse(a), parse(b));
    let mut out = Vec::new();
    for (k, va) in &a {
        match b.iter().find(|(kb, _)| kb == k) {
            Some((_, vb)) if vb == va => {}
            Some((_, vb)) => out.push(format!("{k}: {va} then {vb}")),
            None => out.push(format!("{k}: {va} then missing")),
        }
    }
    for (k, vb) in &b {
        if !a.iter().any(|(ka, _)| ka == k) {
            out.push(format!("{k}: missing then {vb}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_diff_names_every_drift() {
        let a = "sim.events 10\nhistory.len 5\ngone 1\n";
        let b = "sim.events 10\nhistory.len 6\nnew 2\n";
        assert_eq!(
            diff_counters(a, b),
            vec![
                "history.len: 5 then 6".to_string(),
                "gone: 1 then missing".to_string(),
                "new: missing then 2".to_string(),
            ]
        );
        assert!(diff_counters(a, a).is_empty());
    }
}
