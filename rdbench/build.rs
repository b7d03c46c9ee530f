//! Records the toolchain and build profile in the binary, so every result
//! names the compiler and settings that produced the code it measured.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=RDBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=RDBENCH_PROFILE={profile} (opt-level {opt_level})");
    println!("cargo:rerun-if-changed=build.rs");
}
