//! Where a number came from: revision, build, host and run settings,
//! attached to every document the benchmark writes.

use orthotrees::obs::json::Json;
use std::path::Path;
use std::process::Command;

fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn git(args: &[&str]) -> Option<String> {
    let mut cmd = Command::new("git");
    cmd.args(args);
    // Outside a repository, stop at the working directory instead of
    // searching its parents.
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(Path::parent) {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    output_of(&mut cmd)
}

/// The provenance record: git revision and dirty flag (`"unknown"` and
/// `null` outside a repository), seed, rounds, ops per round, build
/// profile, available parallelism and `rustc -V`.
pub fn provenance(seed: u64, rounds: u64, ops_per_round: &str) -> Json {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = output_of(Command::new("rustc").arg("-V"));
    Json::obj([
        ("git_rev", Json::str(rev.unwrap_or_else(|| "unknown".into()))),
        ("git_dirty", dirty.map_or(Json::Null, Json::bool)),
        // A string: a u64 seed need not fit a JSON number exactly.
        ("seed", Json::str(seed.to_string())),
        ("rounds", Json::u64(rounds)),
        ("ops_per_round", Json::str(ops_per_round)),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("nproc", Json::u64(nproc)),
        ("rustc", Json::str(rustc.unwrap_or_else(|| "unknown".into()))),
    ])
}
