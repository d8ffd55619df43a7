//! Golden stdouts: each repro binary below must print exactly the
//! checked-in file under `tests/golden/`, byte for byte. A change that
//! moves an output edits the file in the same diff and says why.
//!
//! The binaries run in parallel; in a debug build the slowest take
//! several seconds, so `ci/tier1.sh` also runs this test in release.

use std::path::Path;
use std::process::{Command, Stdio};

/// `(binary, executable, flags)` rows, one per golden file
/// `<binary>.stdout`.
macro_rules! golden {
    ($($bin:ident $(, $flag:literal)*;)*) => {
        &[$((
            stringify!($bin),
            env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            &[$($flag),*],
        )),*]
    };
}

const GOLDEN: &[(&str, &str, &[&str])] = golden! {
    repro_fig2;
    repro_fig4;
    repro_traversal;
    repro_fig13;
    repro_fusion_ablation;
    repro_seq_fingerprint;
    repro_fig12, "--functions", "2000";
    repro_nvcore, "--trials", "64";
    repro_cfl, "--runs", "10";
    repro_geometry;
    repro_ibrs;
    repro_defenses;
    repro_mitigations;
};

/// Where `got` first departs from `want`: the 1-based line number and
/// both lines (`<none>` past either end).
fn first_difference(want: &str, got: &str) -> (usize, String, String) {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        let (w, g) = (want_lines.next(), got_lines.next());
        if w != g || w.is_none() {
            let show = |l: Option<&str>| l.map_or("<none>".to_string(), |l| format!("{l:?}"));
            return (line, show(w), show(g));
        }
    }
    unreachable!("the loop returns at the first missing line")
}

#[test]
fn repro_stdouts_match_their_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let children: Vec<_> = GOLDEN
        .iter()
        .map(|&(name, exe, args)| {
            let child = Command::new(exe)
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|err| panic!("{name}: cannot start: {err}"));
            (name, args, child)
        })
        .collect();
    let mut mismatches = Vec::new();
    for (name, args, child) in children {
        let output = child.wait_with_output().expect("collect repro stdout");
        assert!(
            output.status.success(),
            "{name} exited with {}",
            output.status
        );
        let path = golden.join(format!("{name}.stdout"));
        let want = std::fs::read(&path)
            .unwrap_or_else(|err| panic!("{name}: cannot read {}: {err}", path.display()));
        if output.stdout == want {
            continue;
        }
        let (line, want, got) = first_difference(
            &String::from_utf8_lossy(&want),
            &String::from_utf8_lossy(&output.stdout),
        );
        let flags: String = args.iter().map(|arg| format!(" {arg}")).collect();
        mismatches.push(format!(
            "{name}{flags}: stdout differs from its golden file at line {line}\n  \
             golden: {want}\n  now:    {got}\n  \
             regenerate: cargo run --release --offline -p nv-bench --bin {name} --{flags} \
             > crates/bench/tests/golden/{name}.stdout"
        ));
    }
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}
