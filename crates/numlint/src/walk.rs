//! Workspace file discovery (std-only, no walkdir).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude"];

/// Collects every workspace `.rs` file as a path relative to `root`,
/// sorted for deterministic reporting. The numlint fixture corpus is
/// excluded: those files *contain* violations by design and are linted
/// explicitly by the golden tests instead.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            entries.push(entry?.path());
        }
        // read_dir order is filesystem-dependent; sort so diagnostics
        // and JSON output are reproducible byte-for-byte.
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                if rel.starts_with("crates/numlint/tests/fixtures") {
                    continue;
                }
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`; returns `start` itself if none is found (the
/// caller will then simply lint what is visible from there).
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut cur = start.to_path_buf();
    loop {
        let manifest = cur.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return cur;
            }
        }
        if !cur.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here);
        assert!(root.join("Cargo.toml").exists());
        let files = workspace_rs_files(&root).expect("walk");
        assert!(files.iter().any(|p| p.ends_with("crates/numlint/src/walk.rs")));
        assert!(files.iter().all(|p| !p.starts_with("target")));
        assert!(files
            .iter()
            .all(|p| !p.starts_with("crates/numlint/tests/fixtures")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
