#!/bin/sh
# Tier-1 gate: the workspace must build, test and stay formatted with the
# network unplugged. `--offline` is the point, not an optimization — the
# workspace owns all of its dependencies (see DESIGN.md §6), so any
# regression that reintroduces a crates.io dependency fails here first.
set -eux

cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The wide BTB-reference sweep and the run == step and decode/bundle
# differentials gate every hot-path edit (about 12 s with the build).
cargo test -q --release --offline -p nv-uarch --features proptest
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Noise-robustness smoke: the sweep binary's own assertions gate clean
# accuracy at 100% and the paper-calibrated robust floor at 95%; on top,
# the emitted JSON must parse and pin the clean cell explicitly. The
# clean-cell check parses the JSON instead of grepping for a formatted
# float, so a harmless change in float formatting cannot break CI while
# a real accuracy regression still does.
./target/release/repro_noise_sweep --smoke
python3 -m json.tool target/BENCH_noise_smoke.json > /dev/null
python3 - <<'EOF'
import json

with open("target/BENCH_noise_smoke.json") as f:
    sweep = json.load(f)
clean = sweep["grid"][0]
assert clean["eviction_interval"] == 0 and clean["jitter"] == 0 and clean["squash_ppm"] == 0, \
    f"grid[0] is not the clean cell: {clean}"
assert clean["naive_accuracy"] == 1.0, f"clean naive accuracy {clean['naive_accuracy']} != 1.0"
assert clean["robust_accuracy"] == 1.0, f"clean robust accuracy {clean['robust_accuracy']} != 1.0"
assert sweep["paper_calibrated"]["robust_accuracy"] >= 0.95, \
    f"paper-calibrated robust accuracy {sweep['paper_calibrated']['robust_accuracy']} below 0.95"
EOF

# Observability smoke: the profile binary's own assertions gate the
# disabled-recorder overhead at 2% and metrics thread-obliviousness; on
# top, both emitted documents must be well-formed JSON and the overhead
# verdict must be recorded as passing.
./target/release/repro_obs_profile --smoke
python3 -m json.tool target/BENCH_obs_smoke.json > /dev/null
python3 -m json.tool target/obs_trace_smoke.json > /dev/null
python3 - <<'EOF'
import json

with open("target/BENCH_obs_smoke.json") as f:
    obs = json.load(f)
overhead = obs["overhead"]
assert overhead["overhead_ok"] is True, f"disabled-mode overhead check failed: {overhead}"
assert overhead["ratio"] <= overhead["limit"], \
    f"overhead ratio {overhead['ratio']} exceeds limit {overhead['limit']}"
assert obs["nv_s"]["metrics"]["events"]["lbr_record"] > 0, "NV-S profile recorded no LBR events"

with open("target/obs_trace_smoke.json") as f:
    trace = json.load(f)
assert any(e["ph"] == "X" for e in trace["traceEvents"]), "Chrome trace has no span events"
EOF

# Resilience smoke: the demo binary's own assertions gate quarantined
# completion, retry healing and kill-at-k resume identity; on top, the
# emitted JSON must parse, the outcome census must cover the campaign,
# the completion-rate floor must hold and both identity flags must be
# recorded as passing.
./target/release/repro_resilience --smoke
python3 -m json.tool target/BENCH_resilience_smoke.json > /dev/null
python3 - <<'EOF'
import json

with open("target/BENCH_resilience_smoke.json") as f:
    res = json.load(f)
q = res["quarantine"]
assert q["completed"] + q["quarantined"] == res["trials"], \
    f"quarantine census does not cover the campaign: {q}"
assert q["panicked"] + q["deadline_exceeded"] == q["quarantined"], \
    f"quarantined outcomes are not all typed: {q}"
assert q["completion_rate"] >= 0.6, \
    f"completion rate {q['completion_rate']} under injected faults below the 0.6 floor"
assert res["retry"]["all_completed"] is True, f"retry demo left trials incomplete: {res['retry']}"
assert res["resume"]["resume_identical"] is True, \
    f"kill-and-resume output diverged: {res['resume']}"
assert res["corruption"]["corrupt_record_dropped"] is True, \
    f"checkpoint corruption was not absorbed: {res['corruption']}"
assert res["corruption"]["resume_identical"] is True, \
    f"resume after corruption diverged: {res['corruption']}"
EOF

# Campaign-server smoke: the load-test binary's own assertions gate
# throughput census, typed overload rejection and SIGKILL-and-restart
# digest identity at worker counts 1/2/8; on top, the emitted JSON must
# parse, the census must cover every submitted job with zero untyped
# failures, and both headline flags must be recorded as passing.
./target/release/repro_serve --smoke
python3 -m json.tool target/BENCH_serve_smoke.json > /dev/null
python3 - <<'EOF'
import json

with open("target/BENCH_serve_smoke.json") as f:
    serve = json.load(f)
t = serve["throughput"]
assert t["completed"] == t["small_jobs"] + t["nvs_jobs"], \
    f"throughput census does not cover the load: {t}"
assert t["untyped_failures"] == 0, f"a failure escaped the typed protocol: {t}"
o = serve["overload"]
assert o["overload_rejected_typed"] is True, f"overload rejections were not typed: {o}"
assert o["accepted"] + o["rejected"] == o["attempts"], f"admission census does not balance: {o}"
assert o["peak_queue_depth"] <= o["queue_cap"], \
    f"queue depth {o['peak_queue_depth']} breached cap {o['queue_cap']}"
r = serve["resume"]
assert r["resume_identical"] is True, \
    f"SIGKILL-and-restart digests diverged from the baseline: {r}"
assert r["kill_effective"] is True, f"no jobs were in flight at the kill: {r}"
assert [leg["workers"] for leg in r["legs"]] == [1, 2, 8], \
    f"resume identity must be proven at worker counts 1/2/8: {r}"
EOF

# Chaos-transport smoke: the chaos binary's own assertions gate the
# per-intensity census (every job in exactly one typed terminal, no
# trial outcome lost or duplicated, digests byte-identical to the quiet
# baseline) and client session resume across a SIGKILL behind the proxy;
# on top, the emitted JSON must parse, the quiet control cell must have
# injected nothing, at least one cell must have injected something, and
# the drill must hold at worker counts 1/2/8.
./target/release/repro_chaos --smoke
python3 -m json.tool target/BENCH_chaos_smoke.json > /dev/null
python3 - <<'EOF'
import json

with open("target/BENCH_chaos_smoke.json") as f:
    chaos = json.load(f)
cells = chaos["cells"]
quiet = cells[0]
assert quiet["intensity"] == 0.0, f"cells[0] is not the quiet control cell: {quiet}"
def injected(c):
    f = c["faults"]
    return f["resets"] + f["cuts"] + f["corruptions"] + f["stalls"] + \
        f["partial_writes"] + f["duplicates"]
assert injected(quiet) == 0, f"the quiet control cell injected faults: {quiet}"
assert any(injected(c) > 0 for c in cells), f"no cell injected any fault: {cells}"
for c in cells:
    assert c["completed"] == c["jobs"], f"a job missed its typed terminal: {c}"
    assert c["identical"] is True, f"a digest diverged from the quiet baseline: {c}"
    assert c["census_exact"] is True, f"a trial outcome was lost or duplicated: {c}"
d = chaos["drill"]
assert d["resume_identical"] is True, \
    f"a client session crossed the SIGKILL to a wrong result: {d}"
assert d["kill_effective"] is True, f"no jobs were in flight at the kill: {d}"
assert [leg["workers"] for leg in d["legs"]] == [1, 2, 8], \
    f"chaos resume must be proven at worker counts 1/2/8: {d}"
EOF

# Determinism gate: hot-path work must not change anything the attack
# observes. A traced benchmark run prints a digest of every simulated
# statistic it tallies (core, BTB and nv-obs counters, attack outputs),
# checked identical at campaign threads 1 and 2; it must equal the value
# pinned for each workload at seed 1.
for pinned in nvs-extract:b36892547f184968 nvu-leak:7d5c6f24a0386ae1 serve-small:67f1c20a4532be6c; do
    workload=${pinned%%:*}
    out=$(cargo run --quiet --release --offline --manifest-path nvbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1)
    digest=$(printf '%s\n' "$out" | sed -n 's/^# simulated-statistics digest \([0-9a-f]*\) .*/\1/p')
    if [ "$digest" != "${pinned#*:}" ]; then
        echo "$workload simulated-statistics digest '$digest' != pinned ${pinned#*:}" >&2
        exit 1
    fi
done
