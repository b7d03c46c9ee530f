//! The environment a result was measured in.

use crate::workloads::{fnv1a, FNV_OFFSET};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Host, toolchain and code identity recorded with every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile and optimisation level.
    pub profile: String,
    /// Git commit of the measured tree, when it is a git checkout of its
    /// own (git is not asked about enclosing directories).
    pub commit: Option<String>,
    /// Digest of the program's sources (`crates/`, `src/`, `vendor/`,
    /// `Cargo.toml`), which names the code even where git is absent.
    pub source_digest: String,
}

impl Env {
    /// Captures the environment of the tree at `root`.
    pub fn capture(root: &Path) -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("RDBENCH_RUSTC_VERSION").to_owned(),
            profile: env!("RDBENCH_PROFILE").to_owned(),
            commit: root
                .join(".git")
                .exists()
                .then(|| {
                    Command::new("git")
                        .arg("-C")
                        .arg(root)
                        .args(["rev-parse", "HEAD"])
                        .output()
                })
                .and_then(Result::ok)
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_owned()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{:?},\"rustc\":{:?},\"profile\":{:?},\"commit\":{},\"source_digest\":\"{}\"}}",
            self.nproc,
            self.cpu,
            self.rustc,
            self.profile,
            self.commit.as_ref().map_or("null".to_owned(), |c| format!("{c:?}")),
            self.source_digest
        )
    }
}

/// FNV-1a over the sorted relative paths and contents of the program's
/// source files.
fn source_digest(root: &Path) -> u64 {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| {
        match (f.strip_prefix(root), std::fs::read(f)) {
            (Ok(rel), Ok(body)) => fnv1a(fnv1a(h, rel.to_string_lossy().as_bytes()), &body),
            _ => h,
        }
    })
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
