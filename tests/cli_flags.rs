//! Every `supersim` configuration flag is shorthand for `path=type=value`
//! overrides: a run spelled with flags and the same run spelled with the
//! overrides they stand for must write byte-identical outputs.
#![cfg(unix)]

use std::path::Path;
use std::process::Command;

/// Runs `configs/quickstart.json` with `args`, writing the metrics
/// snapshot, time series and span log under `dir`; returns their bytes.
fn outputs(dir: &Path, args: &[&str]) -> [Vec<u8>; 3] {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let files = ["metrics.json", "run.timeseries", "run.spans"].map(|f| dir.join(f));
    let out = Command::new(env!("CARGO_BIN_EXE_supersim"))
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/configs/quickstart.json"
        ))
        .args(args)
        .arg("--no-log")
        .args(["--metrics", files[0].to_str().unwrap()])
        .args(["--timeseries", files[1].to_str().unwrap()])
        .args(["--span-log", files[2].to_str().unwrap()])
        .output()
        .expect("spawn supersim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    files.map(|f| std::fs::read(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display())))
}

#[test]
fn a_flag_and_its_override_spelling_give_the_same_run() {
    #[rustfmt::skip]
    let table: &[(&[&str], &[&str])] = &[
        (&["--sample-interval", "100"], &["sample.interval=uint=100"]),
        (&["--spans"], &["spans.enabled=bool=true"]),
        (&["--faults", "0.001"], &["fault.enabled=bool=true", "fault.bit_error_rate=float=0.001"]),
        (&["--watchdog-ticks", "5000"], &["watchdog.ticks=uint=5000"]),
        (&["--engine", "sharded"], &["engine.kind=string=sharded"]),
        (&["--shards", "2"], &["engine.shards=uint=2"]),
    ];
    let flags: Vec<&str> = table.iter().flat_map(|(f, _)| f.iter().copied()).collect();
    let overrides: Vec<&str> = table.iter().flat_map(|(_, o)| o.iter().copied()).collect();
    let dir = std::env::temp_dir().join(format!("supersim-cli-flags-{}", std::process::id()));
    let by_flag = outputs(&dir.join("flags"), &flags);
    let by_override = outputs(&dir.join("overrides"), &overrides);
    for (name, (a, b)) in ["metrics", "time series", "span log"]
        .iter()
        .zip(by_flag.iter().zip(&by_override))
    {
        assert!(!a.is_empty(), "empty {name}");
        assert!(
            a == b,
            "{name} differs between the flag and override spellings"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
