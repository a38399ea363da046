#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Runs fully offline — the workspace has no external dependencies.
# Every test target runs under one fixed time limit, so a hang fails fast
# with the target named instead of wedging CI.
#
#   --quick   skip loopbench's tests, the class-S NAS run, the chaos
#             stress sweep, the bench gates and the asm check (fast
#             pre-commit loop)
#   --asm     only run the leaf-vectorization disassembly check
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
ASM_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --asm) ASM_ONLY=1 ;;
    *) echo "verify.sh: unknown flag '$arg' (supported: --quick, --asm)" >&2; exit 2 ;;
  esac
done

# Disassemble the release kernels_bench binary and check that each micro
# leaf kernel's asm anchor, and FT's pencil-block butterfly (`fft_block`,
# linked through the binary's `ft` row), contains packed SIMD arithmetic.
# Grep the *mnemonics*, not registers: on x86-64 scalar f64 also lives in
# xmm, so "uses xmm" proves nothing — addpd/vaddpd/vfmadd...pd do. On x86-64 it
# also checks EP's AVX2 tally (`ep_tally_avx2`, linked through the
# binary's `ep` row) for divides and square roots four lanes wide: both
# of its divides (the in-crate log's f/(2+f) and the tally's -2·ln(t)/t)
# and its square root, so a log that falls back to scalar calls fails too.
asm_check() {
  echo "== asm check (leaf kernels vectorize) =="
  cargo build --release --offline -p parloop-bench --bin kernels_bench
  local bin=target/release/kernels_bench
  local arch pattern
  arch=$(uname -m)
  case "$arch" in
    x86_64) pattern='(v?(add|mul|sub|fmadd[0-9]*)p[sd])|paddq|vpaddq' ;;
    aarch64|arm64) pattern='(fadd|fmul|fmla|add)[[:space:]]+v[0-9]+\.' ;;
    *) echo "verify.sh: no SIMD pattern for arch $arch; skipping asm check"; return 0 ;;
  esac
  local dis
  dis=$(objdump -d --demangle "$bin")
  # A function's body: lines from its symbol header to the next header.
  body_of() {
    printf '%s\n' "$dis" | awk -v sym="$1" '/^[0-9a-f]+ </ { infn = ($0 ~ sym) } infn'
  }
  local failed=0 body
  for sym in axpy_asm_anchor dot_asm_anchor sum_u64_asm_anchor ft::fft_block; do
    body=$(body_of "$sym")
    if [ -z "$body" ]; then
      echo "verify.sh: asm anchor $sym not found in $bin" >&2
      failed=1
      continue
    fi
    if printf '%s\n' "$body" | grep -Eq "$pattern"; then
      echo "  $sym: vectorized ($(printf '%s\n' "$body" | grep -Eco "$pattern") packed ops)"
    else
      echo "verify.sh: $sym contains no packed SIMD ops — leaf stopped vectorizing" >&2
      failed=1
    fi
  done
  if [ "$arch" = x86_64 ]; then
    body=$(body_of ep_tally_avx2)
    if [ -z "$body" ]; then
      echo "verify.sh: ep_tally_avx2 not found in $bin" >&2
      failed=1
    else
      local op want have
      for spec in vdivpd:2 vsqrtpd:1; do
        op=${spec%:*}
        want=${spec#*:}
        have=$(printf '%s\n' "$body" | grep -Ec "$op[[:space:]].*%ymm" || true)
        if [ "$have" -ge "$want" ]; then
          echo "  ep_tally_avx2: $have $op on ymm"
        else
          echo "verify.sh: ep_tally_avx2 has $have $op on ymm, needs $want — EP's tally stopped vectorizing" >&2
          failed=1
        fi
      done
    fi
  fi
  [ "$failed" -eq 0 ] || exit 1
}

if [ "$ASM_ONLY" -eq 1 ]; then
  asm_check
  echo "verify.sh: asm gate passed"
  exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline --workspace

# loopbench (the BENCHMARK.json benchmark) is a workspace of its own, so
# the workspace build above never compiles it, yet it calls the runtime's
# public latch and pool API.
echo "== loopbench build --release =="
cargo build --release --offline --manifest-path loopbench/Cargo.toml

# Dangling intra-doc links (e.g. to a deleted public item) fail here
# instead of rotting in the rendered docs.
echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Per-target time limit in seconds. The slowest target (debug
# `sim_figures`) passes in well under a minute on a 2-vCPU host.
TEST_LIMIT=300

# Run one test target under the limit: `run_limited NAME CMD...`.
# `timeout` signals its whole process group, so a hung test process under
# `cargo test` dies with it.
run_limited() {
  local name="$1"
  shift
  local rc=0
  timeout --kill-after=10 "$TEST_LIMIT" "$@" || rc=$?
  if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
    echo "verify.sh: test target '$name' did not finish within ${TEST_LIMIT}s (hang?)" >&2
    exit 1
  elif [ "$rc" -ne 0 ]; then
    echo "verify.sh: test target '$name' failed (exit $rc)" >&2
    exit "$rc"
  fi
}

# The same targets `cargo test --workspace` runs: every `tests/*.rs`
# target, each crate's lib and bin unit tests, then the doc tests. Each
# test binary runs from its package root, as under `cargo test`. The
# first build prints compile errors readably; the second, already up to
# date, lists the test binaries.
echo "== cargo test -q (each target limited to ${TEST_LIMIT}s) =="
cargo test -q --offline --workspace --no-run
tests=$(cargo test -q --offline --workspace --no-run --message-format=json \
  | sed -n 's/.*"manifest_path":"\([^"]*\)".*"profile":{[^}]*"test":true}.*"executable":"\([^"]*\)".*/\1 \2/p' \
  | sort -k2)
[ -n "$tests" ] || { echo "verify.sh: found no test targets" >&2; exit 1; }
while read -r manifest exe; do
  name=$(basename "$exe" | sed 's/-[0-9a-f]*$//')
  echo "-- $name"
  (cd "$(dirname "$manifest")" && run_limited "$name" "$exe" -q </dev/null)
done <<<"$tests"
echo "-- doc tests"
run_limited "doc tests" cargo test -q --offline --workspace --doc

if [ "$QUICK" -eq 0 ]; then
  # loopbench's CLI tests: short runs of every workload, each checking
  # that every declared metric prints with its unit.
  echo "== loopbench tests =="
  run_limited "loopbench tests" cargo test -q --offline --manifest-path loopbench/Cargo.toml

  # NAS at class S under hybrid, omp_static, omp_guided and vanilla: the
  # example exits non-zero when a kernel fails verification (EP against
  # NPB's published sums). loopbench runs the kernels under hybrid only.
  echo "== nas_runner s =="
  run_limited "nas_runner s" cargo run -q --release --offline --example nas_runner s

  # Chaos stress: a reduced seed sweep of the fault-injection layer on top
  # of the default run already included in the workspace tests above.
  echo "== chaos stress (CHAOS_SEEDS=16) =="
  CHAOS_SEEDS=16 run_limited "chaos_layer (CHAOS_SEEDS=16)" \
    cargo test -q --offline --test chaos_layer

  # The bench gates write results/*.json under their working directory.
  # Run them from a temporary directory so the committed full-mode files
  # are not overwritten with smoke values.
  bench_dir=$(mktemp -d)
  trap 'rm -rf "$bench_dir"' EXIT
  bin_dir=$PWD/target/release

  # Injection-path acceptance: the idle wake-rate bar, sized for CI
  # (--smoke); install latency and jobs/s are reported only. The binary
  # exits non-zero when the bar is missed and writes
  # results/inject_latency.json.
  echo "== inject_bench --smoke =="
  (cd "$bench_dir" && "$bin_dir/inject_bench" --smoke)
  test -s "$bench_dir/results/inject_latency.json" \
    || { echo "verify.sh: results/inject_latency.json missing or empty" >&2; exit 1; }

  # Lazy-splitter acceptance: the deque-push bound — zero pushes at P=1
  # (no thieves, no assist handle published) and pushes <= steals + loops
  # at P=4 (at most one handle per loop plus one re-publish per steal).
  # Both are counting identities over PoolStats, host-core-count
  # independent, so they are enforced even on a 1-CPU box. Exits non-zero
  # when a bound is missed and writes results/lazy_split.json.
  echo "== split_bench --smoke =="
  (cd "$bench_dir" && "$bin_dir/split_bench" --smoke)
  test -s "$bench_dir/results/lazy_split.json" \
    || { echo "verify.sh: results/lazy_split.json missing or empty" >&2; exit 1; }

  # Adaptive-grain acceptance: controller convergence on the stable-shape
  # workloads and zero lost iterations across grain regimes (checksum
  # equality — exactly-once under changing operating points). The
  # irregular-speedup and within-5%-of-best-static bars are full-mode
  # only; smoke rep counts are too shallow for stable ratios on shared
  # CI boxes. Exits non-zero when a gate is missed and writes
  # results/adapt.json.
  echo "== adapt_bench --smoke =="
  (cd "$bench_dir" && "$bin_dir/adapt_bench" --smoke)
  test -s "$bench_dir/results/adapt.json" \
    || { echo "verify.sh: results/adapt.json missing or empty" >&2; exit 1; }

  # Leaf vectorization gate: the stride-1 micro kernels must still compile
  # to packed SIMD in release (also runnable alone via `verify.sh --asm`).
  asm_check
else
  echo "== loopbench tests skipped (--quick) =="
  echo "== nas_runner s skipped (--quick) =="
  echo "== chaos stress skipped (--quick) =="
  echo "== inject_bench skipped (--quick) =="
  echo "== split_bench skipped (--quick) =="
  echo "== adapt_bench skipped (--quick) =="
fi

echo "verify.sh: all gates passed"
