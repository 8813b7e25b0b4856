# The non-test lines of Rust source files, each printed as
# `file:line: text`: the one cutoff rule the unwrap ratchet and ci.sh's
# source guards share. A file's non-test lines end at its
# `#[cfg(test)] mod tests` (the attribute line directly followed by the
# module, of any visibility); an earlier `#[cfg(test)]` item, such as a
# test-only accessor or counter, does not end them.
#
#   awk -f scripts/non_test_lines.awk crates/apps/src/*.rs | grep PATTERN

FNR == 1 { done = 0; held = "" }
done { next }
held != "" {
  if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod tests[[:space:]]*\{/) {
    done = 1
    held = ""
    next
  }
  print held
  held = ""
}
/^[[:space:]]*#\[cfg\(test\)\]/ { held = FILENAME ":" FNR ": " $0; next }
{ print FILENAME ":" FNR ": " $0 }
