//! The benchmark binaries refuse flags they do not know: a typo such
//! as `--quik` exits with status 2 before any experiment runs, instead
//! of silently running the paper-scale suite.

use std::process::Command;

#[test]
fn misspelled_flag_exits_2_with_the_accepted_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("--quik")
        .output()
        .expect("run repro_all");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--quik"), "{stderr}");
    assert!(stderr.contains(mlam_bench::CLI_FLAGS), "{stderr}");
}
