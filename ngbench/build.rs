//! Records the compiler and the source commit the benchmark was built from,
//! for the run metadata.

use std::path::Path;
use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|line| line.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only a checkout with its own `.git` names a commit; a plain source tree
    // reports none rather than whatever repository happens to enclose it.
    let commit = if Path::new("../.git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs/heads");
        first_line("git", &["-C", "..", "rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-env=NGBENCH_RUSTC={version}");
    println!("cargo:rustc-env=NGBENCH_GIT_COMMIT={commit}");
}
