//! Records the build environment the benchmark reports with each
//! result: the compiler version and the source commit (read from the
//! repository's `.git` directory when the checkout has one).

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit());
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}

/// The commit `HEAD` names, resolved through loose or packed refs; the
/// build looks only at the checkout's own `.git`, never above it.
fn git_commit() -> String {
    let git = Path::new("../.git");
    let head = git.join("HEAD");
    if !head.is_file() {
        return "unknown".into();
    }
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let Ok(head) = std::fs::read_to_string(&head) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let loose = git.join(name);
    if loose.is_file() {
        println!("cargo:rerun-if-changed=../.git/{name}");
        if let Ok(id) = std::fs::read_to_string(loose) {
            return id.trim().to_string();
        }
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
