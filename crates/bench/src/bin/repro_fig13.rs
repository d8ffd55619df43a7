//! Reproduces **Figure 13** (§7.3): robustness of the fingerprint to
//! library versions (left) and compiler optimization levels (right).
//!
//! Every matrix cell `[row][col]` is the similarity of the *NV-S-extracted
//! trace* of the GCD compiled under configuration `row` against the
//! *static reference set* of the GCD compiled under configuration `col`.
//!
//! Expected shape (the paper's three findings):
//! 1. versions 2.5–2.15 (unchanged source) are mutually high; the 2.16
//!    reimplementation splits the matrix into two blocks;
//! 2. the GCC version alone does not move the numbers;
//! 3. optimization levels split the matrix along the diagonal.
//!
//! Flags: `--axis version|opt|gcc|all` (default all), `--threads N` (one
//! NV-S extraction per matrix row fans out through the campaign engine;
//! the matrix is identical for any value).

use nightvision::campaign::Campaign;
use nightvision::fingerprint::ReferenceFunction;
use nv_bench::{nv_s_main_function_set, row, similarity_pct, Args};
use nv_isa::VirtAddr;
use nv_victims::compile::{compile_gcd, CompileOptions, GccVersion, LibraryVersion, OptLevel};

const BASE: u64 = 0x40_0000;
const A: u64 = 0xbeef_1235;
const B: u64 = 65537;

fn matrix(configs: &[(String, CompileOptions)], threads: usize) {
    let references: Vec<ReferenceFunction> = configs
        .iter()
        .map(|(name, options)| {
            let image = compile_gcd(options, VirtAddr::new(BASE), A, B).expect("compiles");
            ReferenceFunction::new(name.clone(), image.static_pc_offsets())
        })
        .collect();
    let widths: Vec<usize> = std::iter::once(12)
        .chain(configs.iter().map(|_| 8))
        .collect();
    let mut header: Vec<String> = vec!["victim\\ref".into()];
    header.extend(configs.iter().map(|(n, _)| n.clone()));
    println!("{}", row(&header, &widths));
    // One NV-S extraction per row — the expensive part — runs as one
    // campaign trial; rows print in config order regardless of threads.
    let rows = Campaign::new(configs.len()).threads(threads).run(|trial| {
        let (name, options) = &configs[trial.index];
        let image = compile_gcd(options, VirtAddr::new(BASE), A, B).expect("compiles");
        let trace = nv_s_main_function_set(image.program());
        let mut cells = vec![name.clone()];
        for reference in &references {
            cells.push(format!(
                "{:.1}",
                similarity_pct(&trace, reference.offsets())
            ));
        }
        cells
    });
    for cells in rows {
        println!("{}", row(&cells, &widths));
    }
}

fn main() {
    let mut args = Args::parse();
    let axis = args.get("--axis", "all".to_string());
    let threads = args.threads();
    args.finish();

    if axis == "version" || axis == "all" {
        println!("# Figure 13 (left): GCD similarity across mbedTLS versions (gcc 7.5, -O2)");
        let configs: Vec<(String, CompileOptions)> = LibraryVersion::all()
            .map(|version| {
                (
                    version.to_string(),
                    CompileOptions {
                        version,
                        opt: OptLevel::O2,
                        gcc: GccVersion::G7_5,
                    },
                )
            })
            .collect();
        matrix(&configs, threads);
        println!("# paper: high within 2.5-2.15, low across the 2.16 reimplementation\n");
    }
    if axis == "opt" || axis == "all" {
        println!("# Figure 13 (right): GCD similarity across optimization levels (mbedTLS 3.1)");
        let configs: Vec<(String, CompileOptions)> = OptLevel::all()
            .map(|opt| {
                (
                    opt.to_string(),
                    CompileOptions {
                        version: LibraryVersion::V3_1,
                        opt,
                        gcc: GccVersion::G7_5,
                    },
                )
            })
            .collect();
        matrix(&configs, threads);
        println!("# paper: strong diagonal; -O0 vs -O2/-O3 similarity collapses\n");
    }
    if axis == "gcc" || axis == "all" {
        println!("# §7.3 finding 2: GCC versions alone do not move the fingerprint");
        let configs: Vec<(String, CompileOptions)> = GccVersion::all()
            .map(|gcc| {
                (
                    format!("{gcc:?}"),
                    CompileOptions {
                        version: LibraryVersion::V3_1,
                        opt: OptLevel::O2,
                        gcc,
                    },
                )
            })
            .collect();
        matrix(&configs, threads);
    }
}
