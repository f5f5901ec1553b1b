//! Host fingerprint printed with every run.

/// `{"nproc": …, "cpu": …, "rustc": …, "git_sha": …, "profile": …}`.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_sha\": \"{}\", \
         \"profile\": \"{profile}\"}}",
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC")),
        git_sha().unwrap_or_else(|| "none".to_string()),
    )
}

/// The checked-out commit, read from `.git` without running git (a
/// checkout without `.git` has none).
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|sha| sha.trim().to_string()))
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
