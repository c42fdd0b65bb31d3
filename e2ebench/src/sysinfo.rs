//! Host and build fingerprint, and process memory.

use std::path::Path;

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit the benchmarked tree was checked out at, read from the
/// repository's `.git` directory when there is one.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `{"commit", "nproc", "threads", "simd"}`: numbers from hosts with
/// different core counts, worker pools or SIMD arms are not comparable.
pub fn env_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": {}, \"nproc\": {nproc}, \"threads\": {}, \"simd\": {}}}",
        crate::outcome::json_str(&git_commit()),
        surfos::channel::par::configured_threads(),
        crate::outcome::json_str(&format!("{:?}", surfos::em::simd::backend())),
    )
}
