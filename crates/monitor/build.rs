//! Embeds the git revision into the monitor so the Prometheus
//! `mlam_build_info` gauge can attribute scrapes to an exact build.
//! Falls back to "unknown" outside a git checkout (e.g. a source
//! tarball) — the build must never fail over missing VCS metadata.

use std::path::Path;
use std::process::Command;

/// The trimmed stdout of a successful `git <args>`, if not empty.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let hash = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=MLAM_GIT_HASH={hash}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-run when the hash can move. A checkout rewrites HEAD, but a
    // commit on a branch rewrites only the branch's ref: a file under
    // refs/heads, or a line of packed-refs. Cargo re-runs a build
    // script on every build while a watched path is missing, so only
    // paths that exist are watched; outside a checkout that leaves
    // build.rs.
    let (Some(git_dir), Some(common_dir)) = (
        git(&["rev-parse", "--git-dir"]),
        git(&["rev-parse", "--git-common-dir"]),
    ) else {
        return;
    };
    for path in [
        Path::new(&git_dir).join("HEAD"),
        Path::new(&common_dir).join("refs/heads"),
        Path::new(&common_dir).join("packed-refs"),
    ] {
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
