//! Stamps provenance into the binary: the compiler version, the commit
//! (when the checkout is a git work tree), and an FNV-1a hash of the
//! sources the benchmark measures, which identifies the code even where
//! no git metadata exists.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let root = manifest
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit(&root));

    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        for byte in rel
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(file).unwrap_or_default())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV={hash:016x}");
    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.lock").display()
    );
    // Watch only paths that exist: a missing one would rerun this
    // script, and rebuild the benchmark, on every invocation.
    for git_file in [".git/HEAD", ".git/packed-refs"] {
        watch_if_present(&root.join(git_file));
    }
}

fn watch_if_present(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// The checked-out commit, read from `.git` directly so nothing outside
/// the checkout is consulted.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    watch_if_present(&git.join(reference));
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
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
