//! Reproduces **Figure 12** (§7.3): similarity of the measured victim
//! functions — GCD, bn_cmp, and a large corpus of unrelated functions —
//! against the two reference functions.
//!
//! The GCD and bn_cmp victim traces are extracted with the full NV-S
//! attack (single-stepping enclaves under the controlled channel, PW
//! binary search). The corpus functions' traces come from their generated
//! dynamic control flow (see DESIGN.md for the substitution rationale).
//!
//! Expected shape: for each reference, the victim that *is* the reference
//! ranks first with high-but-below-100 % similarity (the paper reports
//! 75.8 % for GCD, 88.2 % for bn_cmp; mismeasurements at fused pairs and
//! speculated branch targets keep it below 100 %), while the best
//! unrelated corpus function scores far lower.
//!
//! Flags: `--functions N` (default 20 000), `--full` (the paper's
//! 175 168), `--top K` (default 10 printed rows), `--threads N` (fan the
//! corpus scoring out through the campaign engine; output is identical
//! for any value).

use std::collections::BTreeSet;

use nightvision::campaign::Campaign;
use nightvision::fingerprint::ReferenceFunction;
use nv_bench::{default_gcd, nv_s_main_function_set, similarity_pct, Args};
use nv_corpus::{generate, CorpusConfig};
use nv_victims::{BnCmpVictim, VictimConfig};

fn main() {
    let mut args = Args::parse();
    let full = args.switch("--full");
    let functions = args.get("--functions", 20_000);
    let functions: usize = if full { 175_168 } else { functions };
    let top: usize = args.get("--top", 10);
    let threads = args.threads();
    args.finish();

    // References: static PC sets of the two vulnerable functions (§6.4
    // step 1 — prepared offline from the known library binaries).
    let gcd_image = default_gcd();
    let gcd_reference = ReferenceFunction::new("GCD", gcd_image.static_pc_offsets());

    let bn_victim = BnCmpVictim::build(
        &[0x1234_5678, 0x9abc_def1],
        &[0x1234_5678, 0x9abc_0001],
        &VictimConfig {
            yield_each_iteration: false,
            ..VictimConfig::paper_hardened()
        },
    )
    .expect("bn_cmp builds");
    let (bn_start, bn_end) = bn_victim.func_range();
    let bn_reference = ReferenceFunction::new(
        "bn_cmp",
        bn_victim
            .program()
            .inst_starts_in(bn_start, bn_end)
            .iter()
            .map(|&pc| (pc - bn_start) as u64),
    );

    // Victim traces via the full NV-S attack.
    eprintln!("extracting GCD trace via NV-S ...");
    let gcd_trace = nv_s_main_function_set(gcd_image.program());
    eprintln!("extracting bn_cmp trace via NV-S ...");
    let bn_trace = nv_s_main_function_set(bn_victim.program());

    // Corpus victims.
    eprintln!("generating {functions}-function corpus ...");
    let corpus = generate(&CorpusConfig {
        functions,
        ..CorpusConfig::default()
    });

    for (ref_name, reference, own_trace, own_name) in [
        ("GCD", &gcd_reference, &gcd_trace, "GCD (NV-S trace)"),
        ("bn_cmp", &bn_reference, &bn_trace, "bn_cmp (NV-S trace)"),
    ] {
        let mut scored: Vec<(String, f64)> = Vec::with_capacity(functions + 2);
        scored.push((
            own_name.to_string(),
            similarity_pct(own_trace, reference.offsets()),
        ));
        let other = if ref_name == "GCD" {
            &bn_trace
        } else {
            &gcd_trace
        };
        let other_name = if ref_name == "GCD" {
            "bn_cmp (NV-S trace)"
        } else {
            "GCD (NV-S trace)"
        };
        scored.push((
            other_name.to_string(),
            similarity_pct(other, reference.offsets()),
        ));
        // Score the corpus in chunks across the worker pool; chunks merge
        // in index order, so the ranking is thread-count-invariant.
        let all = corpus.functions();
        let chunk_size = all.len().div_ceil((threads * 8).max(1)).max(1);
        let chunks = all.len().div_ceil(chunk_size);
        let chunk_scores = Campaign::new(chunks).threads(threads).run(|trial| {
            let lo = trial.index * chunk_size;
            let hi = (lo + chunk_size).min(all.len());
            all[lo..hi]
                .iter()
                .map(|f| {
                    let set: BTreeSet<u64> = f.trace_set();
                    (
                        format!("corpus#{}", f.id()),
                        similarity_pct(&set, reference.offsets()),
                    )
                })
                .collect::<Vec<_>>()
        });
        scored.extend(chunk_scores.into_iter().flatten());
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        println!(
            "\n# Figure 12 — top-{top} similarity vs reference {ref_name} ({} victims)",
            scored.len()
        );
        for (rank, (name, score)) in scored.iter().take(top).enumerate() {
            println!("{:>3}. {:<24} {:>6.1}%", rank + 1, name, score);
        }
        let self_rank = scored.iter().position(|(n, _)| n == own_name).unwrap() + 1;
        println!(
            "reference victim rank: {self_rank}  (paper: rank 1, similarity {} )",
            if ref_name == "GCD" { "75.8%" } else { "88.2%" }
        );
    }
}
