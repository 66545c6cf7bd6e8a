//! The benchmark must leave the repository's committed artefacts alone:
//! it calls library entry points, never the `tables` binary, so a run
//! never rewrites `results/BENCH_campaign.json` or `results/FORENSICS.*`
//! and never appends to `results/LEDGER.jsonl`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build grades very slowly). The `jobserver` workload is
//! included when a `server` binary sits next to the benchmark binary,
//! as it does after `python3 perfbench/run.py`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Every file under `dir` with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                todo.push(p);
            } else {
                out.insert(p.clone(), std::fs::read(&p).expect("readable artefact"));
            }
        }
    }
    out
}

#[test]
fn a_run_leaves_committed_artefacts_untouched() {
    let root = repo_root();
    let results = root.join("results");
    let before = snapshot(&results);
    assert!(
        before.contains_key(&results.join("BENCH_campaign.json")),
        "expected the committed campaign record under {}",
        results.display()
    );
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let server = exe.with_file_name("server");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-artefacts");
    let mut workloads = vec!["reproduce"];
    if server.exists() {
        workloads.push("jobserver");
    }
    for w in workloads {
        let status = Command::new(&exe)
            .current_dir(&root)
            .args([
                "--workload",
                w,
                "--seed",
                "0",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .arg("--server-bin")
            .arg(&server)
            .arg("--out")
            .arg(&out)
            .status()
            .expect("perfbench runs");
        assert!(status.success(), "workload {w} failed its output checks");
    }
    let after = snapshot(&results);
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>(),
        "a benchmark run added or removed files under results/"
    );
    for (path, bytes) in &before {
        assert!(
            after[path] == *bytes,
            "a benchmark run rewrote {}",
            path.display()
        );
    }
}
