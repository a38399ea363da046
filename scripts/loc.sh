#!/usr/bin/env bash
# Count non-test lines of Rust: for each tracked `.rs` file under `crates/`
# and `src/`, the lines before its first column-0 `#[cfg(test)]` (the whole
# file when it has none). Prints one row per crate, then the total.
# Reads files only; takes no flags.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -- 'crates/*.rs' 'src/*.rs' \
  | xargs awk '
      FNR == 1 { file = FILENAME; split(file, part, "/"); crate = (part[1] == "crates") ? part[2] : "parloop"; counting = 1 }
      /^#\[cfg\(test\)\]/ { counting = 0 }
      counting { lines[crate]++; total++ }
      END {
        for (c in lines) printf "%-10s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
      }'
