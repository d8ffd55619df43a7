//! Evaluates the **§8.3 future-work refinement**: fingerprinting with the
//! ordered dynamic PC trace (DNA-style sequence matching) instead of the
//! §6.4 position-independent set.
//!
//! For the GCD victim (trace extracted with the full NV-S attack) and a
//! corpus of decoys, the binary reports the *discrimination margin* —
//! true-reference score minus best-impostor score — under both methods.
//! Order information should widen the margin, since short decoys can
//! accidentally share many offsets but rarely share their ordering.

use nightvision::fingerprint::similarity;
use nightvision::seq_fingerprint::{lcs_similarity, trace_to_set};
use nv_bench::{default_gcd, nv_s_main_function_trace, reference_dynamic_trace, Args};
use nv_corpus::{generate, CorpusConfig};

fn main() {
    let mut args = Args::parse();
    let functions: usize = args.get("--functions", 5_000);
    args.finish();

    let image = default_gcd();

    // Victim: ordered NV-S extraction; references: static set (the §6.4
    // method) and attacker-generated dynamic trace (the §8.3 method).
    eprintln!("extracting victim trace via NV-S ...");
    let victim_trace = nv_s_main_function_trace(image.program());
    let victim_set = trace_to_set(&victim_trace);
    let set_reference: std::collections::BTreeSet<u64> =
        image.static_pc_offsets().into_iter().collect();
    let seq_reference = reference_dynamic_trace(image.program(), image.entry(), image.end())
        .expect("reference binary terminates within budget");

    let corpus = generate(&CorpusConfig {
        functions,
        ..CorpusConfig::default()
    });

    let set_true = similarity(&victim_set, &set_reference);
    let seq_true = lcs_similarity(&victim_trace, &seq_reference);

    let mut set_best_impostor: f64 = 0.0;
    let mut seq_best_impostor: f64 = 0.0;
    for f in corpus.functions() {
        set_best_impostor = set_best_impostor.max(similarity(&f.trace_set(), &set_reference));
        seq_best_impostor =
            seq_best_impostor.max(lcs_similarity(f.dynamic_offsets(), &seq_reference));
    }

    println!("# §8.3 — set vs sequence fingerprinting ({functions} decoys)");
    println!("method     true-ref   best-impostor   margin");
    println!(
        "set        {:>7.1}%   {:>12.1}%   {:>+6.1}pp",
        set_true * 100.0,
        set_best_impostor * 100.0,
        (set_true - set_best_impostor) * 100.0
    );
    println!(
        "sequence   {:>7.1}%   {:>12.1}%   {:>+6.1}pp",
        seq_true * 100.0,
        seq_best_impostor * 100.0,
        (seq_true - seq_best_impostor) * 100.0
    );
    println!("# paper: \"this process is similar to genomic (DNA) sequence matching\";");
    println!("# ordering information should widen the discrimination margin");
}
