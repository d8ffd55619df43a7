//! End-to-end private-code fingerprinting (§6, §7.3): NV-S extraction →
//! trace slicing → set-intersection matching, scored against corpus
//! decoys and across compiler configurations.

use std::collections::BTreeSet;

use nightvision::fingerprint::{similarity, Fingerprinter, ReferenceFunction};
use nightvision::{trace, NvSupervisor};
use nv_bench::nv_s_main_function_set;
use nv_corpus::{generate, CorpusConfig};
use nv_isa::VirtAddr;
use nv_os::Enclave;
use nv_uarch::{Core, UarchConfig};
use nv_victims::compile::{compile_gcd, CompileOptions, GccVersion, LibraryVersion, OptLevel};

fn image(options: &CompileOptions) -> nv_victims::compile::CompiledFunction {
    compile_gcd(options, VirtAddr::new(0x40_0000), 0xbeef_1235, 65537).expect("compiles")
}

#[test]
fn gcd_ranks_first_among_corpus_decoys() {
    let gcd = image(&CompileOptions::default());
    let victim_set = nv_s_main_function_set(gcd.program());

    let mut fp = Fingerprinter::new();
    fp.add_reference(ReferenceFunction::new("gcd", gcd.static_pc_offsets()));
    let corpus = generate(&CorpusConfig {
        functions: 2_000,
        ..CorpusConfig::default()
    });
    for f in corpus.functions() {
        fp.add_reference(ReferenceFunction::new(
            format!("decoy#{}", f.id()),
            f.static_offsets().iter().copied(),
        ));
    }
    let best = fp.best_match(&victim_set).expect("references exist");
    assert_eq!(best.name, "gcd");
    assert!(
        best.score > 0.7,
        "self-similarity {:.3} should be high (paper: 0.758)",
        best.score
    );
    assert!(
        best.score < 1.0 + f64::EPSILON,
        "mismeasurements keep it from perfect"
    );
}

#[test]
fn corpus_traces_score_low_against_gcd() {
    let gcd = image(&CompileOptions::default());
    let reference: BTreeSet<u64> = gcd.static_pc_offsets().into_iter().collect();
    let corpus = generate(&CorpusConfig {
        functions: 500,
        min_insts: 30,
        ..CorpusConfig::default()
    });
    let high_scores = corpus
        .functions()
        .iter()
        .filter(|f| similarity(&f.trace_set(), &reference) > 0.9)
        .count();
    assert!(
        high_scores == 0,
        "{high_scores} unrelated 30+-instruction functions scored > 0.9"
    );
}

#[test]
fn figure13_version_block_structure() {
    // Traces of 2.5/2.15 victims match legacy references strongly and the
    // 2.16/3.1 references weakly — and vice versa.
    let opt = OptLevel::O2;
    let gcc = GccVersion::G7_5;
    let legacy = image(&CompileOptions {
        version: LibraryVersion::V2_5,
        opt,
        gcc,
    });
    let modern = image(&CompileOptions {
        version: LibraryVersion::V3_1,
        opt,
        gcc,
    });
    let legacy_set = nv_s_main_function_set(legacy.program());
    let modern_set = nv_s_main_function_set(modern.program());
    let legacy_ref: BTreeSet<u64> = legacy.static_pc_offsets().into_iter().collect();
    let modern_ref: BTreeSet<u64> = modern.static_pc_offsets().into_iter().collect();

    let within_legacy = similarity(&legacy_set, &legacy_ref);
    let across = similarity(&legacy_set, &modern_ref);
    let within_modern = similarity(&modern_set, &modern_ref);
    let across_back = similarity(&modern_set, &legacy_ref);
    assert!(within_legacy > 0.8, "{within_legacy}");
    assert!(within_modern > 0.8, "{within_modern}");
    assert!(within_legacy > across + 0.2, "{within_legacy} vs {across}");
    assert!(
        within_modern > across_back + 0.2,
        "{within_modern} vs {across_back}"
    );
}

#[test]
fn figure13_optimization_diagonal() {
    let version = LibraryVersion::V3_1;
    let gcc = GccVersion::G7_5;
    let images: Vec<_> = OptLevel::all()
        .map(|opt| image(&CompileOptions { version, opt, gcc }))
        .collect();
    let sets: Vec<BTreeSet<u64>> = images
        .iter()
        .map(|img| nv_s_main_function_set(img.program()))
        .collect();
    let refs: Vec<BTreeSet<u64>> = images
        .iter()
        .map(|img| img.static_pc_offsets().into_iter().collect())
        .collect();
    for (i, set) in sets.iter().enumerate() {
        let own = similarity(set, &refs[i]);
        assert!(own > 0.8, "diagonal [{i}] = {own}");
        for (j, reference) in refs.iter().enumerate() {
            if i != j {
                let cross = similarity(set, reference);
                assert!(
                    own > cross,
                    "[{i}][{i}]={own} must exceed [{i}][{j}]={cross}"
                );
            }
        }
    }
    // -O0 is drastically different from the optimized builds.
    assert!(similarity(&sets[0], &refs[1]) < 0.6);
}

#[test]
fn gcc_version_does_not_move_the_fingerprint() {
    let sims: Vec<f64> = GccVersion::all()
        .map(|gcc| {
            let img = image(&CompileOptions {
                version: LibraryVersion::V3_1,
                opt: OptLevel::O2,
                gcc,
            });
            let set = nv_s_main_function_set(img.program());
            let reference: BTreeSet<u64> = img.static_pc_offsets().into_iter().collect();
            similarity(&set, &reference)
        })
        .collect();
    assert!(
        sims.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
        "{sims:?}"
    );
}

#[test]
fn call_ret_slicing_recovers_the_function_entry() {
    let gcd = image(&CompileOptions::default());
    let mut enclave = Enclave::new(gcd.program().clone());
    let mut core = Core::new(UarchConfig::default());
    let extracted = NvSupervisor::default()
        .extract_trace(&mut enclave, &mut core)
        .expect("extraction");
    let functions = trace::slice_extracted(&extracted);
    assert_eq!(functions.len(), 1, "one call/ret pair in the image");
    assert_eq!(functions[0].entry, gcd.entry(), "entry located exactly");
    assert_eq!(
        functions[0].offsets.first(),
        Some(&0),
        "normalized traces start at zero (§6.4)"
    );
}

#[test]
fn nv_s_follows_code_across_pages() {
    // The controlled channel must handle mid-run page crossings: code that
    // jumps between two code pages faults at each crossing, and NV-S's
    // fault handler (set the next page executable, re-prime, re-step) has
    // to keep every measurement aligned.
    use nv_isa::{Assembler, Reg};

    let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
    asm.mov_ri(Reg::R0, 1);
    asm.call("far"); // into the second page
    asm.add_ri8(Reg::R0, 2);
    asm.call("far");
    asm.halt();
    asm.org(VirtAddr::new(0x40_1000 + 0x123)).unwrap(); // next page, odd offset
    asm.label("far");
    asm.add_ri8(Reg::R0, 1);
    asm.nop();
    asm.ret();
    let program = asm.finish().unwrap();

    let truth = Enclave::ground_truth_trace(program.clone(), UarchConfig::default());

    let mut enclave = Enclave::new(program.clone());
    assert_eq!(enclave.code_pages().len(), 2, "two code pages");
    let mut core = Core::new(UarchConfig::default());
    let extracted = NvSupervisor::default()
        .extract_trace(&mut enclave, &mut core)
        .unwrap();
    assert_eq!(extracted.len(), truth.len());
    // Page numbers tracked through both crossings.
    let pages: Vec<u64> = extracted.steps().iter().map(|s| s.page).collect();
    assert!(pages.contains(&0x400) && pages.contains(&0x401));
    // The far function's instructions are located at byte granularity in
    // the second page (odd offset 0x123 exercises the final-byte pass).
    assert!(extracted.pcs().contains(&VirtAddr::new(0x40_1000 + 0x123)));
    assert!(extracted.accuracy_against(&truth) >= 0.6);
    // Two invocations of `far` slice into two function traces.
    let functions = trace::slice_extracted(&extracted);
    assert_eq!(functions.len(), 2);
    assert!(functions
        .iter()
        .all(|f| f.entry == VirtAddr::new(0x40_1123)));
}
