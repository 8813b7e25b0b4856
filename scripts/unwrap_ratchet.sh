#!/usr/bin/env bash
# The unwrap ratchet: count each crate's non-test `.unwrap()` / `.expect(`
# lines (those before a source file's first `#[cfg(test)]`) and fail if
# any crate has more than scripts/unwrap-baseline.txt allows, or is not
# listed there. Run from anywhere: `scripts/unwrap_ratchet.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/unwrap-baseline.txt
status=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  count=0
  while IFS= read -r file; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$file" | grep -c '\.unwrap()\|\.expect(' || true)
    count=$((count + n))
  done < <(find "$dir/src" -name '*.rs' | sort)
  allowed=$(awk -v c="$crate" '$1 == c { print $2 }' "$baseline")
  if [ -z "$allowed" ]; then
    echo "  $crate: $count, but $baseline has no line for it"
    status=1
  elif [ "$count" -gt "$allowed" ]; then
    echo "  $crate: $count, up from $allowed: return an error instead, or justify and raise $baseline"
    status=1
  elif [ "$count" -lt "$allowed" ]; then
    echo "  $crate: $count, down from $allowed: lower its line in $baseline"
  else
    echo "  $crate: $count"
  fi
done
exit $status
