//! Embeds the git revision (when available) for run manifests.

use std::path::PathBuf;
use std::process::Command;

/// The trimmed standard output of a successful `git` call.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

fn main() {
    let rev = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_default();
    println!("cargo:rustc-env=LOADSTEAL_GIT_REV={rev}");
    // Re-run when the revision can move: HEAD (a checkout), the branch it
    // names (a commit) and packed-refs, at the paths git gives for this
    // checkout, worktrees included. Cargo re-runs on every build while a
    // watched path is missing, so only existing paths are watched, and a
    // branch that lives only in packed-refs is watched through the
    // directory its loose ref will be written to.
    let path_of = |name: &str| git(&["rev-parse", "--git-path", name]).map(PathBuf::from);
    let mut watched: Vec<PathBuf> = ["HEAD", "packed-refs"]
        .into_iter()
        .filter_map(path_of)
        .collect();
    if let Some(r) = git(&["symbolic-ref", "-q", "HEAD"]).and_then(|b| path_of(&b)) {
        watched.push(match r.parent() {
            Some(dir) if !r.exists() => dir.to_path_buf(),
            _ => r,
        });
    }
    for p in watched.iter().filter(|p| p.exists()) {
        println!("cargo:rerun-if-changed={}", p.display());
    }
}
