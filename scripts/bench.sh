#!/usr/bin/env bash
# Perf-trajectory harness: run the lazy-splitter, locality and
# adaptive-grain benchmarks in full mode and merge their series into
# the stable top-level BENCH_parloop.json (flat {name, value, unit}
# entries — ns/iter for the micro kernel under lazy splitting, deque
# pushes and the fixed cost per loop, the locality/* series and the
# adaptive/* controller series) so results are
# comparable across commits. Each bin replaces its own entries by name
# and keeps every other entry, including record-only series whose
# engines are gone.
#
#   --smoke   reduced sizes + relaxed wall-clock bars (CI boxes)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=()
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=(--smoke) ;;
    *) echo "bench.sh: unknown flag '$arg' (supported: --smoke)" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release (bench bins) =="
cargo build --release --offline -p parloop-bench

# Run one bench bin that merges its series into BENCH_parloop.json, then
# insist every prefix it declares actually landed in the file. Preserve
# the benchmark's exit status (set -e would eat it after the `||`) — a
# crashed bench can leave a partial JSON behind that `test -s` happily
# accepts — and fail loudly on a bin that exits 0 while emitting zero
# series, which would silently hollow out the cross-commit trajectory.
run_bench() {
  local bin="$1"
  shift
  echo "== $bin ${SMOKE[*]:-} =="
  local rc=0
  "./target/release/$bin" "${SMOKE[@]:-}" --bench-json BENCH_parloop.json || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "bench.sh: $bin failed (exit $rc); BENCH_parloop.json may be partial" >&2
    exit "$rc"
  fi
  local prefix
  for prefix in "$@"; do
    if ! grep -q "\"name\": \"$prefix" BENCH_parloop.json; then
      echo "bench.sh: $bin exited 0 but emitted zero '${prefix}*' series into BENCH_parloop.json" >&2
      exit 1
    fi
  done
}

run_bench split_bench split/lazy/ floor/
run_bench locality_bench locality/
run_bench adapt_bench adaptive/

test -s BENCH_parloop.json \
  || { echo "bench.sh: BENCH_parloop.json missing or empty" >&2; exit 1; }

# Schema check on the flat {name, value, unit} entries.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_parloop.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
results = doc.get("results")
assert isinstance(results, list) and results, "results[] missing or empty"
for e in results:
    assert isinstance(e.get("name"), str) and e["name"], f"bad name in {e}"
    assert isinstance(e.get("value"), (int, float)), f"bad value in {e}"
    assert isinstance(e.get("unit"), str) and e["unit"], f"bad unit in {e}"
names = [e["name"] for e in results]
dups = sorted({n for n in names if names.count(n) > 1})
assert not dups, f"duplicate series names: {dups}"
# Every declared series prefix must be present — report ALL missing ones
# at once (a partial merge should name every hole, not just the first).
prefixes = ["split/lazy/", "floor/", "locality/", "adaptive/"]
counts = {p: sum(n.startswith(p) for n in names) for p in prefixes}
missing = [p for p, c in counts.items() if c == 0]
assert not missing, f"zero series for declared prefixes: {missing} (counts: {counts})"
summary = ", ".join(f"{p}*: {c}" for p, c in counts.items())
print(f"bench.sh: schema OK ({len(results)} entries; {summary})")
EOF
else
  # Fallback without python3: the series markers must at least be present.
  for prefix in 'split/lazy/' 'floor/' 'locality/' 'adaptive/'; do
    grep -q "\"name\": \"$prefix" BENCH_parloop.json \
      || { echo "bench.sh: BENCH_parloop.json lacks ${prefix}* series" >&2; exit 1; }
  done
fi
echo "bench.sh: wrote BENCH_parloop.json"
