#!/bin/sh
# The full local gate. Run from the repository root (or any
# subdirectory):
#
#   sh scripts/check.sh
#
# It runs, in order: cargo fmt --check, clippy with warnings as errors,
# rustdoc with warnings as errors (broken intra-doc links fail), the
# release build, a check that benchmark/ still builds against the
# workspace, the benchmark smoke (every workload's per-operation
# checks), cargo test, the SERVING.md protocol-verb gate, the
# documentation gates (DESIGN.md and EXPERIMENTS.md sections, metric
# keys in OBSERVABILITY.md) and the explore crate's #[ignore] hygiene
# gate. The CLI smokes (exit statuses, the --hw, lint, predict and
# capture surfaces, the help text) are run_cli cases under cargo test,
# and so is the experiment record: tests/experiments.rs fails when a
# paper expectation fails or a measured block of EXPERIMENTS.md differs
# from the harness output. Its one regenerator is
#
#   WMRD_REGOLD=1 cargo test -p wmrd-xtests --test experiments
#
# CI and reviewers run exactly this; a clean exit here means the PR is
# mergeable from the code-quality side. Everything builds with
# --offline: the workspace uses no registry crates, and one that
# creeps back in fails here.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== cargo build --release"
cargo build --offline --release

echo "== benchmark build (benchmark/ still compiles against the workspace)"
# benchmark/ is its own cargo workspace that calls into the crates
# here, so an API change can break it without failing any step above.
# Building it rewrites benchmark/Cargo.lock (cargo records the unused
# [patch.crates-io] table), so the committed lock file is put back.
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
bench_status=0
cargo check --offline --manifest-path benchmark/Cargo.toml || bench_status=$?
cp "$lock" benchmark/Cargo.lock
if [ "$bench_status" -ne 0 ]; then
    rm -f "$lock"
    echo "check.sh: benchmark/ no longer builds against the workspace" >&2
    exit "$bench_status"
fi

echo "== benchmark smoke (every workload's per-operation checks)"
# One short pass per workload. Each operation checks its outputs:
# streamed race keys equal the post-mortem keys, and observed keys lie
# within the WCP-predicted keys, which lie within the lint keys. The
# run builds the benchmark, so the lock file is put back here too.
smoke_status=0
sh benchmark/run.sh --smoke || smoke_status=$?
cp "$lock" benchmark/Cargo.lock
rm -f "$lock"
if [ "$smoke_status" -ne 0 ]; then
    echo "check.sh: sh benchmark/run.sh --smoke failed" >&2
    exit "$smoke_status"
fi

echo "== cargo test"
# Every suite: unit tests, the workspace-spanning xtests under tests/
# (properties, corrupt-trace corpus, fault injection, daemon e2e,
# stream == post-mortem, lint/predict/ooo goldens and soundness
# oracles, capture e2e) and the doctests.
cargo test --offline --workspace -q

echo "== protocol documentation gate (SERVING.md)"
# Every verb the protocol parses must be documented with a framing
# example in SERVING.md; adding a verb without documenting it fails
# here. The verb list is extracted from the parser itself.
verbs=$(sed -n 's/^ *("\([A-Z]*\)", .*$/\1/p' crates/serve/src/protocol.rs | sort -u)
if [ -z "$verbs" ]; then
    echo "check.sh: could not extract verb list from crates/serve/src/protocol.rs" >&2
    exit 1
fi
for verb in $verbs; do
    if ! grep -q "$verb" SERVING.md; then
        echo "check.sh: protocol verb $verb is not documented in SERVING.md" >&2
        exit 1
    fi
done

echo "== documentation gates"
# The design and experiment sections must exist, and every metric key
# the code defines (each `pub const NAME: &str = "key"` in metrics.rs)
# must appear in OBSERVABILITY.md.
if ! grep -q "^## 11\. Delay-set" DESIGN.md; then
    echo "check.sh: DESIGN.md is missing the §11 delay-set section" >&2
    exit 1
fi
for section in E15 E16 E17 E18; do
    if ! grep -q "^## $section" EXPERIMENTS.md; then
        echo "check.sh: EXPERIMENTS.md is missing the $section section" >&2
        exit 1
    fi
done
keys=$(sed -n 's/^ *pub const [A-Z_0-9]*: &str = "\([^"]*\)";.*$/\1/p' \
    crates/trace/src/metrics.rs | sort -u)
if [ -z "$keys" ]; then
    echo "check.sh: could not extract metric keys from crates/trace/src/metrics.rs" >&2
    exit 1
fi
# The post-mortem pipeline's phases and gauges, which the benchmark
# reads, are gated the same way.
analysis_keys=$(grep -o '"analysis\.[a-z_0-9]*"' crates/core/src/postmortem.rs | tr -d '"' | sort -u)
if [ -z "$analysis_keys" ]; then
    echo "check.sh: could not extract analysis.* keys from crates/core/src/postmortem.rs" >&2
    exit 1
fi
for key in $keys $analysis_keys; do
    if ! grep -qF "$key" OBSERVABILITY.md; then
        echo "check.sh: metric key $key is not documented in OBSERVABILITY.md" >&2
        exit 1
    fi
done

echo "== explore crate hygiene"
# An #[ignore]d test in the exploration crate must carry its reason
# inline (`#[ignore = "..."]`); a bare #[ignore] silently shrinks the
# campaign engine's coverage.
if grep -rn '#\[ignore' crates/explore --include='*.rs' | grep -v 'ignore = "'; then
    echo "check.sh: bare #[ignore] in crates/explore — add a tracking reason" >&2
    exit 1
fi

echo "check.sh: all gates passed"
