#!/bin/sh
# The full local gate: formatting, lints as errors, the test suite, the
# CLI exit-status smokes and the documentation gates. Run from the
# repository root (or any subdirectory):
#
#   sh scripts/check.sh
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

echo "== cargo build --release"
cargo build --offline --release

echo "== cargo test"
# Every suite: unit tests, the workspace-spanning xtests under tests/
# (properties, corrupt-trace corpus, fault injection, daemon e2e,
# stream == post-mortem, lint/predict/ooo goldens and soundness
# oracles, capture e2e) and the doctests.
cargo test --offline --workspace -q

cargo build --offline -q -p wmrd-cli
wmrd=target/debug/wmrd

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

echo "== lint smoke (exit status: race-free 0, findings non-zero)"
$wmrd lint examples/spinlock.wmrd counter-locked > /dev/null
if $wmrd lint fig1a > /dev/null 2>&1; then
    echo "check.sh: wmrd lint fig1a must exit non-zero (it has may-race findings)" >&2
    exit 1
fi

echo "== fence smoke (delay-set classification + verified repair)"
# The whole catalog classifies under --cycles without panicking
# (findings exit 1 — `all` includes racy entries), fig1b classifies
# weak-only with a no-op repair (the canonical false positive
# explained, not fenced), and a repaired racy entry verifies
# dynamically — race-free and Condition-3.4-clean on every backend,
# with the raw-ooo ablation still racing unrepaired.
rc=0
$wmrd lint all --cycles > /dev/null 2>&1 || rc=$?
if [ "$rc" -gt 1 ]; then
    echo "check.sh: wmrd lint all --cycles crashed (exit $rc)" >&2
    exit 1
fi
fig1b_out=$($wmrd lint examples/fig1b.wmrd --cycles 2>/dev/null || true)
if ! echo "$fig1b_out" | grep -q "weak-only (sync chain via m\[2\])"; then
    echo "check.sh: fig1b must classify weak-only via the m[2] sync chain" >&2
    exit 1
fi
if ! echo "$fig1b_out" | grep -q "no-op (nothing to fix)"; then
    echo "check.sh: fig1b's repair must be a no-op (no fences on a race-free program)" >&2
    exit 1
fi
$wmrd explore fig1a --verify-repair --seeds 0..16 --jobs 2 | grep -q "repair verified"
$wmrd explore peterson-sync --verify-repair --seeds 0..24 --jobs 2 | grep -q "repair verified"

echo "== predict smoke (exit status: race-free 0, predictions non-zero)"
$wmrd predict counter-locked --model wo > /dev/null
if $wmrd predict lazy-publish-racy --model wo --seed 2 --order wcp > /dev/null 2>&1; then
    echo "check.sh: wmrd predict lazy-publish-racy must exit non-zero (it predicts a race)" >&2
    exit 1
fi

echo "== ooo smoke (every command that takes --hw accepts ooo)"
$wmrd run fig1a --hw ooo --model wo > /dev/null
$wmrd check fig1b --hw ooo --seeds 4 > /dev/null
if $wmrd run fig1a --hw rob --model wo > /dev/null 2>&1; then
    echo "check.sh: wmrd run --hw rob must exit non-zero (unknown hardware style)" >&2
    exit 1
fi

echo "== capture smoke (a racy capture reports its races inline)"
$wmrd capture list > /dev/null
if ! $wmrd capture publish-racy --seed 0 | grep -q "race "; then
    echo "check.sh: wmrd capture publish-racy must report at least one race key" >&2
    exit 1
fi

echo "== documentation gates"
# The CLI surfaces must stay documented in the help text, their design
# and experiment sections must exist, and every metric key the code
# defines under these namespaces must appear in OBSERVABILITY.md.
help=$($wmrd help)
for needle in "--cycles" "wmrd predict" "--hw store-buffer|inval-queue|ooo" "wmrd capture"; do
    if ! echo "$help" | grep -q -- "$needle"; then
        echo "check.sh: wmrd help does not document \`$needle\`" >&2
        exit 1
    fi
done
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
keys=$(sed -n 's/^.*"\(\(lint\.cycles\|lint\.repair\|predict\|ooo\|capture\)\.[a-z_][a-z_]*\)".*$/\1/p' \
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
for key in $keys $analysis_keys serve.predictions; do
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
