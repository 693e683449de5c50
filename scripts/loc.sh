#!/usr/bin/env bash
# Non-test lines of Rust source, per crate and in total.
#
# Counts every `.rs` file under each crate's `src/` (the vendored shims
# included), up to the file's first `#[cfg(test)]` line: unit-test modules
# sit at the end of their files, so what is left is the program itself.
# Blank lines and comments count. Files given as arguments are listed too.
#
#   scripts/loc.sh                                  # per crate + crates/
#   scripts/loc.sh crates/minidb/src/db.rs ...      # ... plus these files
set -euo pipefail
cd "$(dirname "$0")/.."

nontest() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
while IFS= read -r dir; do
  [ -d "$dir/src" ] || continue
  n=0
  while IFS= read -r -d '' f; do
    n=$((n + $(nontest "$f")))
  done < <(find "$dir/src" -name '*.rs' -print0)
  printf '%7d  %s\n' "$n" "$dir"
  total=$((total + n))
done < <(find crates -name Cargo.toml -not -path '*/target/*' -printf '%h\n' | sort)
printf '%7d  crates/\n' "$total"

for f in "$@"; do
  printf '%7d  %s\n' "$(nontest "$f")" "$f"
done
