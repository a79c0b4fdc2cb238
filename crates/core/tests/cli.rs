//! Command-line surface of `cmpsim-cli`: the analytic `tables` output
//! is pinned to the committed captures, and malformed arguments are
//! refused with exit code 2 and an error naming the bad value.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmpsim-cli")).args(args).output().expect("cmpsim-cli runs")
}

/// `tables` prints Tables V, VI, VII and the §V-D hop analysis exactly
/// as captured in `reports/`.
#[test]
fn tables_output_matches_the_committed_captures() {
    let out = cli(&["tables"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let expected = [
        include_str!("../../../reports/table5.txt"),
        include_str!("../../../reports/table6.txt"),
        include_str!("../../../reports/table7.txt"),
        include_str!("../../../reports/hops.txt"),
    ]
    .concat();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

/// A bad reference budget, study name or benchmark name, or a flag the
/// command would ignore, is an error, never a silent fallback.
#[test]
fn bad_arguments_exit_2_naming_the_value() {
    for (args, bad) in [
        (&["study", "ablation", "-n", "15k"][..], "15k"),
        (&["study", "nosuch"][..], "nosuch"),
        (&["figures", "-b", "nosuch"][..], "nosuch"),
        (&["figures", "-b", "radix"][..], "-b"),
        (&["figures", "--all-benchmarks"][..], "--all-benchmarks"),
        (&["study"][..], "study needs a name"),
        (&["study", "areas", "--trace-out", "t.json"][..], "--trace-out"),
        (&["study", "areas", "--seed", "7"][..], "--seed"),
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(bad), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
