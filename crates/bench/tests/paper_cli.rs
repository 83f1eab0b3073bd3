//! The `paper` runner refuses what it does not know: no artifact, an
//! unknown artifact and an unknown flag each print the usage, listing
//! every artifact, and exit 2 without running anything.

use std::process::Command;

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in [
        &[][..],
        &["fig99"],
        &["fig10", "--ful"],
        &["--full"],
        &["fig05", "fig07"],
        &["--9a", "fig09"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn paper");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(
                "usage: paper <table1|fig05|fig07|fig08|fig09|fig10|fig11|fig12> [--full]"
            ),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
