#!/usr/bin/env bash
# CI, one function per stage. `bash ci/run.sh <stage>` builds what the
# stage needs, runs its gates and writes its artifacts under
# ci-out/<stage>/ (emptied first). The workflow is one job over a matrix
# of these stages; a developer runs the same command locally:
#
#   bash ci/run.sh test | results | static | fuzz | perf | asan
#   bash ci/run.sh backend vcl|ulfm|replica
#
# `test` runs `results`, so the workflow's matrix does not list it.
set -euo pipefail
cd "$(dirname "$0")/.."

die() {
    echo "ci: $*" >&2
    exit 1
}

# Build, tier-1, every suite of every crate, clippy, the paper-scale
# results, and the metrics double run.
stage_test() {
    cargo build --release
    cargo test -q
    # The root `cargo test -q` reaches the root package only. This is the
    # one place the rest runs — no per-stage `-p` lists to forget a crate
    # in. The other stages keep what is theirs: `--ignored` suites, the
    # binaries' smoke runs, artifacts.
    cargo test --workspace --release
    cargo clippy --workspace --all-targets -- -D warnings
    stage_results
    # A same-seed double run writes byte-identical metrics. (The soak's
    # double run is the `backend vcl` stage's.)
    target/release/figure fig5 --smoke --metrics "$OUT/run-a.metrics.json" > /dev/null
    target/release/figure fig5 --smoke --metrics "$OUT/run-b.metrics.json" > /dev/null
    cmp "$OUT/run-a.metrics.json" "$OUT/run-b.metrics.json"
}

# The paper-scale outputs under results/ regenerate byte for byte.
stage_results() {
    cargo build --release -p failmpi-experiments --bin figure
    target/release/figure table1 > results/table1.txt
    for f in fig5 fig6 fig7 fig9 fig11 ablation delay_sweep lbh04; do
        target/release/figure $f --json results/$f.json > results/$f.txt
    done
    git diff --exit-code results/
}

# `failck` over scenarios, fixtures and the workspace's own sources.
stage_static() {
    cargo build --release -p failmpi-analyze --bin failck

    # Builtin scenarios & op-programs, and the scenario sources on disk.
    target/release/failck --builtin --strict
    target/release/failck --builtin --format json > "$OUT/failck-report.json"
    target/release/failck --strict crates/core/scenarios/*.fail
    # Every scenario on disk compiles (the FCI compiler step).
    for f in crates/core/scenarios/*.fail; do
        target/release/failck --compile "$f" > /dev/null
    done

    # failck must flag the seeded-defect fixture.
    if target/release/failck crates/analyze/fixtures/broken.fail; then
        die "failck passed a fixture with seeded defects"
    fi
    target/release/failck --format json crates/analyze/fixtures/broken.fail \
        > "$OUT/broken.json" || [ $? -eq 1 ]
    grep -q '"FA008"' "$OUT/broken.json"

    # ... and a breakpoint no backend raises: Fig. 10 with the injection
    # point misspelled.
    sed 's/before(localMPI_setCommand)/before(localMPI_setCommnd)/' \
        crates/core/scenarios/fig10_state_sync.fail > "$OUT/fig10-misspelled.fail"
    if target/release/failck --strict "$OUT/fig10-misspelled.fail"; then
        die "failck passed a breakpoint on no instrumentable function"
    fi
    target/release/failck --format json "$OUT/fig10-misspelled.fail" \
        > "$OUT/fig10-misspelled.json" || [ $? -eq 1 ]
    grep -q '"FA012"' "$OUT/fig10-misspelled.json"

    # The dispatcher bug: failck must predict the Fig. 10 freeze before
    # any run, with the minimal fault-schedule witness, and fail the lint.
    if target/release/failck --model-check \
        crates/core/scenarios/fig10_state_sync.fail > "$OUT/fig10-model.txt"; then
        die "failck --model-check passed the known-freezing Fig. 10"
    fi
    grep -q 'FC003' "$OUT/fig10-model.txt"
    grep -q 'minimal witness' "$OUT/fig10-model.txt"
    grep -q 'during recovery' "$OUT/fig10-model.txt"
    # Fig. 5 survives: no freeze prediction, clean exit.
    target/release/failck --model-check --format json \
        crates/core/scenarios/fig5_frequency.fail > "$OUT/fig5-model.json"
    grep -q '"verdict": "survives"' "$OUT/fig5-model.json"

    # One seeded-defect fixture per FC code (FC005 is an error: exit 1).
    for code in fc001 fc002 fc004 fc005; do
        target/release/failck --model-check --format json \
            crates/analyze/fixtures/${code}_*.fail > "$OUT/$code.json" || [ $? -eq 1 ]
        grep -qi "\"${code^^}\"" "$OUT/$code.json" || die "missing ${code^^}"
    done
    # FC003 is an error: the fixture must fail the lint and carry it.
    if target/release/failck --model-check --format json \
        crates/analyze/fixtures/fc003_recovery_refault.fail > "$OUT/fc003.json"; then
        die "failck passed the seeded freeze fixture"
    fi
    grep -q '"FC003"' "$OUT/fc003.json"
    # FC006: a starved budget must degrade to an explicit unknown.
    target/release/failck --model-check --budget 20 --format json \
        crates/core/scenarios/fig10_state_sync.fail > "$OUT/fig10-budget.json"
    grep -q '"FC006"' "$OUT/fig10-budget.json"

    # The full 25-rank Fig. 10 grid must reach a definitive verdict within
    # the default budget: exit 1 (freeze found, lint gated) with FC003 +
    # the FC007 reduction stats, and no FC006 (budget-exceeded)
    # degradation.
    local status=0
    target/release/failck --model-check --reduce --ranks 25 --threads 4 --format json \
        crates/core/scenarios/fig10_state_sync.fail > "$OUT/fig10-25.json" || status=$?
    [ "$status" -le 1 ] || die "25-rank model check exited $status"
    if grep -q '"FC006"' "$OUT/fig10-25.json"; then
        die "25-rank model check exhausted its budget"
    fi
    grep -q '"FC003"' "$OUT/fig10-25.json"
    grep -q '"FC007"' "$OUT/fig10-25.json"
    # Deterministic parallel frontier: the thread count must not change
    # one byte of the rendering.
    target/release/failck --model-check --reduce --ranks 25 --threads 1 --format json \
        crates/core/scenarios/fig10_state_sync.fail > "$OUT/fig10-25-t1.json" || [ $? -eq 1 ]
    cmp "$OUT/fig10-25.json" "$OUT/fig10-25-t1.json"
    # And byte-identical to the rendering recorded before the checker's
    # state plumbing was rebuilt: a change to how states are carried,
    # ordered or interned must not move one byte.
    cmp "$OUT/fig10-25.json" crates/analyze/fixtures/fig10-25.reduced.json

    # The workspace must be source-lint clean, warnings included.
    target/release/failck --src --strict .
    # Seeded-defect fixtures must trip every rule.
    for bad in crates/srclint/tests/fixtures/*_bad*.rs \
        crates/srclint/tests/fixtures/su003_bad/src/lib.rs \
        crates/srclint/tests/fixtures/su003_conditional/src/lib.rs; do
        if target/release/failck --src --strict "$bad" > /dev/null; then
            die "failck --src passed seeded-defect fixture $bad"
        fi
    done
    # The JSON report is byte-stable across runs.
    target/release/failck --src --format json . > "$OUT/srclint-report.json"
    target/release/failck --src --format json . > "$OUT/srclint-report-2.json"
    cmp "$OUT/srclint-report.json" "$OUT/srclint-report-2.json"

    # Release-only suites, last because they rebuild target/release. Debug
    # assertions on at release speed: the ample filter re-fires the engine
    # on every pair it decides structurally and asserts that the probe
    # agrees.
    CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo test --release -p failmpi-analyze \
        --test reduction --test model_determinism -- --include-ignored
    cargo test --release -p failmpi-experiments --test figure_matrix -- --ignored
}

# A smoke fuzz campaign, its findings gate, its double run and the
# checked-in corpus replay.
stage_fuzz() {
    cargo build --release -p failmpi-fuzz --bin failmpi-fuzz
    cargo build --release -p failmpi-analyze --bin failck

    # Fixed seed: the campaign must rediscover the paper's Fig. 10 freeze
    # family (warnings), and surface no error-severity finding.
    target/release/failmpi-fuzz --seed 1 --budget 30 \
        --corpus "$OUT/fuzz-corpus" --findings "$OUT/fuzz-findings.json" \
        --format json | tee "$OUT/fuzz-summary.json"
    grep -q '"fig10_family_rediscovered": true' "$OUT/fuzz-summary.json"
    grep -q '"errors": 0' "$OUT/fuzz-summary.json"

    # failck consumes the fuzz findings.
    target/release/failck --findings "$OUT/fuzz-findings.json" --format json

    # A same-seed double campaign is byte-identical.
    target/release/failmpi-fuzz --seed 1 --budget 30 \
        --corpus "$OUT/fuzz-corpus-b" --findings "$OUT/fuzz-findings-b.json" \
        --format json > "$OUT/fuzz-summary-b.json"
    cmp "$OUT/fuzz-summary.json" "$OUT/fuzz-summary-b.json"
    cmp "$OUT/fuzz-findings.json" "$OUT/fuzz-findings-b.json"
    diff -r "$OUT/fuzz-corpus" "$OUT/fuzz-corpus-b"

    # The checked-in corpus pins must not drift.
    target/release/failmpi-fuzz --replay tests/fixtures/fuzz
}

# Fails when the peak RSS of workload $1's end-to-end pass exceeds $2 MB.
rss_gate() {
    bash benchmark/run.sh --workload "$1" --seed 7 --seconds 2 --trace 0 \
        | tail -n 1 | python3 -c '
import json, sys
workload, limit = sys.argv[1], float(sys.argv[2])
rss = json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"]
print(f"{workload} peak_rss_mb {rss:.2f} MB (limit {limit:g})")
sys.exit(rss > limit)' "$1" "$2"
}

# The benchmark's traced budget and RSS gates, profile determinism, and
# the allocation report of an alloc-profile build.
stage_perf() {
    cargo build --release -p failmpi-experiments --bin figure --bin failmpi-trace

    # The traced pass times `programs_for`, the scenario lint and compile
    # and `Cluster::new` on their own and subtracts them from `run_one`'s
    # wall; a set-up change that moves work so that it is counted twice
    # (or leaves `run_one` doing less than the parts timed beside it)
    # makes the budget exceed the wall, which the benchmark reports as a
    # failed operation: `correct: false`, exit 1.
    bash benchmark/run.sh --workload light_backend_mix --seed 7 --seconds 3 --trace 1
    bash benchmark/run.sh --workload vcl_scale_ladder --seed 7 --seconds 3 --trace 1
    # The model checker's traced pass prints its per-state cost by shape
    # (`analyze.mc_us_per_state.*`) and its two-thread scaling
    # (`analyze.mc_thread_scaling.t2`).
    bash benchmark/run.sh --workload model_check_grid25 --seed 7 --seconds 3 --trace 1

    # No op list is expanded: a BT rank runs straight from its loop
    # description. Expanding the flat op lists again (17.6 MB at 196
    # ranks) lifts the ladder's peak RSS from about 15 MB back to about
    # 32 MB; the gate is 20 MB.
    rss_gate vcl_scale_ladder 20
    # The fuzz oracle's second thread only ever holds one 4-rank smoke run
    # (≈ 8.3 MB peak); a second model-checker exploration in flight, as a
    # pool of candidate workers would hold, is 11 MB or more.
    rss_gate fuzz_campaign 10
    # The six explorations' states hold a 4-byte handle per instance into
    # one table of distinct instance values, and the tree edges'
    # permutations sit in one arena (≈ 12.3 MB peak). One `Arc` per
    # instance per state again, even with equal values shared, reads
    # ≈ 14.0 MB and crosses the gate; an owned permutation on every tree
    # edge on top of that read ≈ 15.5 MB. `search::tests` asserts directly
    # that each distinct value has one id.
    rss_gate model_check_grid25 13.5

    # A same-seed double run writes a byte-identical profile.
    target/release/figure fig11 --smoke --profile "$OUT/run-a.profile.json" > /dev/null
    target/release/figure fig11 --smoke --profile "$OUT/run-b.profile.json" > /dev/null
    cmp "$OUT/run-a.profile.json" "$OUT/run-b.profile.json"

    # Attribution report & flamegraph from the counting-allocator build.
    cargo build --release -p failmpi-experiments --features alloc-profile --bin figure
    target/release/figure fig11 --smoke --profile "$OUT/alloc.profile.json" > /dev/null
    target/release/failmpi-trace profile report "$OUT/alloc.profile.json" \
        | tee "$OUT/profile-report.txt"
    target/release/failmpi-trace profile flame "$OUT/alloc.profile.json" \
        --out "$OUT/profile-stacks.txt"
}

# One protocol backend: soak, the static Fig. 10 verdict and a causal
# trace; the `vcl` leg also runs the release-only cross-backend rows, the
# benchmark's pin contract and the Fig. 10 / paper-scale trace gates.
stage_backend() {
    local be=${1:-}
    case $be in
        vcl | ulfm | replica) ;;
        *) die "usage: bash ci/run.sh backend vcl|ulfm|replica" ;;
    esac
    cargo build --release -p failmpi-experiments --bin soak --bin figure --bin failmpi-trace
    cargo build --release -p failmpi-analyze --bin failck

    # Determinism soak: 25 perturbation seeds, metrics byte-identity.
    target/release/soak --runs 25 --backend "$be" --json "$OUT/soak-$be.json" \
        --metrics "$OUT/soak-$be-a.metrics.json"
    target/release/soak --runs 25 --backend "$be" \
        --metrics "$OUT/soak-$be-b.metrics.json" > /dev/null
    cmp "$OUT/soak-$be-a.metrics.json" "$OUT/soak-$be-b.metrics.json"
    # Every backend reports its lifecycle through the chassis's ledger.
    for key in lifecycle.failures_detected lifecycle.recoveries_started net.traffic.app_bytes; do
        grep -q "\"$key\"" "$OUT/soak-$be-a.metrics.json" || die "soak-$be metrics lack $key"
    done

    # The same scenario file, three protocol-explainable answers: Vcl
    # freezes (stale dispatcher entry), ULFM survives (no relaunch window
    # to corrupt), replication at the default scale freezes (an
    # unprotected primary dies in one fault).
    local fig10=$OUT/fig10-$be.json status=0
    target/release/failck --model-check --backend "$be" --format json \
        crates/core/scenarios/fig10_state_sync.fail > "$fig10" || status=$?
    case $be in
        vcl)
            [ "$status" -eq 1 ] || die "exit $status, want 1"
            grep -q '"FC003"' "$fig10"
            grep -q 'stale dispatcher entry' "$fig10"
            ;;
        ulfm)
            [ "$status" -eq 0 ] || die "exit $status, want 0"
            grep -q '"verdict": "survives"' "$fig10"
            ;;
        replica)
            [ "$status" -eq 1 ] || die "exit $status, want 1"
            grep -q 'replication exhausted' "$fig10"
            ;;
    esac

    # A causal trace and a deep profile through the generic harness, the
    # trace exported for Perfetto. A same-seed re-run must write a
    # byte-identical trace and profile: every backend's event labels,
    # lanes and kinds reach the files. One thread, because `--trace-out`
    # claims the first run to start.
    target/release/figure fig5 --smoke --threads 1 --backend "$be" \
        --trace-out "$OUT/trace-$be.json" --profile "$OUT/profile-$be.json" > /dev/null
    target/release/figure fig5 --smoke --threads 1 --backend "$be" \
        --trace-out "$OUT/trace-$be-b.json" --profile "$OUT/profile-$be-b.json" > /dev/null
    cmp "$OUT/trace-$be.json" "$OUT/trace-$be-b.json"
    cmp "$OUT/profile-$be.json" "$OUT/profile-$be-b.json"
    target/release/failmpi-trace export "$OUT/trace-$be.json" \
        --out "$OUT/trace-$be.perfetto.json"

    [ "$be" = vcl ] || return 0

    # Cross-backend matrix at grid scale (release-only rows), and the
    # benchmark's pin contract (light-backend fingerprints, model-check
    # digests).
    cargo test --release -p failmpi-experiments --test backend_matrix -- --ignored
    cargo test --release --manifest-path benchmark/Cargo.toml

    # The Fig. 10 dispatcher-bug trace: explain must reproduce the paper's
    # chain, a same-seed re-run must export a byte-identical trace.
    target/release/failmpi-trace timeline crates/core/scenarios/fig10_state_sync.fail \
        --machines ADVG1 --param T=2 --param N=5 --seed 2 \
        --trace-out "$OUT/fig10-causal.json"
    target/release/failmpi-trace explain "$OUT/fig10-causal.json" | tee "$OUT/explain.txt"
    grep -q "injected fault" "$OUT/explain.txt"
    grep -q "recovery wave" "$OUT/explain.txt"
    grep -q "stale dispatcher entry" "$OUT/explain.txt"
    grep -q "frozen" "$OUT/explain.txt"
    target/release/failmpi-trace timeline crates/core/scenarios/fig10_state_sync.fail \
        --machines ADVG1 --param T=2 --param N=5 --seed 2 \
        --trace-out "$OUT/fig10-causal-b.json"
    cmp "$OUT/fig10-causal.json" "$OUT/fig10-causal-b.json"
    target/release/failmpi-trace export "$OUT/fig10-causal.json" \
        --out "$OUT/fig10-perfetto.json"
    # The one divergence finder: the same-seed pair agrees node for node
    # and digest for digest, another seed diverges.
    target/release/failmpi-trace diff "$OUT/fig10-causal.json" "$OUT/fig10-causal-b.json" \
        | tee "$OUT/fig10-diff-same.txt"
    grep -q "no causal divergence" "$OUT/fig10-diff-same.txt"
    target/release/failmpi-trace timeline crates/core/scenarios/fig10_state_sync.fail \
        --machines ADVG1 --param T=2 --param N=5 --seed 3 \
        --trace-out "$OUT/fig10-causal-seed3.json" > /dev/null
    target/release/failmpi-trace diff "$OUT/fig10-causal.json" "$OUT/fig10-causal-seed3.json" \
        > "$OUT/fig10-diff-seed3.txt"
    grep -q "first causal divergence" "$OUT/fig10-diff-seed3.txt"

    # The paper-scale trace (29 MB, streamed) is deterministic and
    # explainable; the two copies are not kept as artifacts.
    target/release/figure fig5 --runs 1 --threads 1 \
        --trace-out "$OUT/fig5-paper-a.json" > /dev/null
    target/release/figure fig5 --runs 1 --threads 1 \
        --trace-out "$OUT/fig5-paper-b.json" > /dev/null
    cmp "$OUT/fig5-paper-a.json" "$OUT/fig5-paper-b.json"
    target/release/failmpi-trace explain "$OUT/fig5-paper-a.json" | tee "$OUT/explain-paper.txt"
    grep -q "causal chain" "$OUT/explain-paper.txt"
    rm "$OUT/fig5-paper-a.json" "$OUT/fig5-paper-b.json"

    # failmpi-trace must refuse a trace that breaks the format. This one
    # parses, and used to be narrated as the dispatcher bug: its only node
    # has a dangling cause and an undeclared track, its failure mark an
    # anchor that is not in the file.
    cat > "$OUT/corrupt-trace.json" << 'JSON'
{"schema_version": 2, "name": "x", "seed": 1, "outcome": "buggy (frozen)",
 "end_micros": 90000000, "tracks": [],
 "nodes": [{"id": 0, "cause": 5, "t_us": 10, "seq": 0, "digest": 1,
            "kind": "net.closed", "label": "net.closed pid3 (PeerDied)", "track": 9}],
 "marks": [{"node": 77, "t_us": 10, "kind": "failure_detected", "label": "f",
            "rank": 0, "epoch": 1, "wave": null, "during_recovery": true}]}
JSON
    status=0
    target/release/failmpi-trace explain "$OUT/corrupt-trace.json" \
        > "$OUT/corrupt-explain.txt" 2> "$OUT/corrupt-err.txt" || status=$?
    [ "$status" -eq 2 ] || die "exit $status, want 2"
    [ ! -s "$OUT/corrupt-explain.txt" ] || die "narrated a corrupt trace"
    grep -q "not a well-formed trace" "$OUT/corrupt-err.txt"
}

# The alloc-profile test subset under AddressSanitizer (nightly, with
# rust-src for -Zbuild-std).
stage_asan() {
    RUSTFLAGS=-Zsanitizer=address ASAN_OPTIONS=detect_leaks=0 \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p failmpi-obs --features alloc-profile
}

stage=${1:-}
declare -F "stage_$stage" > /dev/null || die "usage: bash ci/run.sh <stage> (see the header)"
OUT=ci-out/$stage${2:+-$2}
rm -rf "$OUT"
mkdir -p "$OUT"
"stage_$stage" "${@:2}"
