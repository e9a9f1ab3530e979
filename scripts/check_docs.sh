#!/usr/bin/env bash
# Documentation gate, run by scripts/check.sh and CI:
#
#  1. Markdown link check: every relative link in docs/*.md and the top-level
#     *.md files must point at a file (or directory) that exists in the repo.
#     External links (http/https/mailto) and pure #anchors are skipped.
#  2. Protocol coverage: every frame type the server can emit or accept
#     (the kFrameCodecs table in src/server/protocol.cc), every wire key of
#     the codec's field tables (its Field("...") entries) and every wire error
#     code (src/server/protocol.h) must be documented in docs/PROTOCOL.md — so
#     the spec cannot silently fall behind the code. Finding no frame names
#     or no keys fails the gate instead of checking nothing.
#  3. Named paths: every repo path that docs/*.md or a code comment under
#     src/, tools/, tests/ or bench/ names (src/..., tests/..., and the other
#     top-level directories) must exist, so a deleted or renamed file cannot
#     stay cited. A path is a file name with an extension, a directory with
#     its trailing slash, or a `{h,cc}` form, which names each expansion;
#     prose such as "scripts/CI" is none of these.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "-- markdown links --"
for doc in docs/*.md *.md; do
  [ -f "$doc" ] || continue
  dir="$(dirname "$doc")"
  # Extract the (target) of every [text](target) link, tolerating multiple
  # links per line. Fenced code blocks are stripped first — a C++ lambda
  # like [](const Frame&) is not a markdown link.
  awk '/^[[:space:]]*```/ { fenced = !fenced; next } !fenced' "$doc" |
  { grep -oE '\]\([^)#][^)]*\)' || true; } | sed -E 's/^\]\(//; s/\)$//' |
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"            # strip an anchor suffix
    [ -n "$path" ] || continue
    case "$path" in
      /*) resolved=".$path" ;;      # repo-absolute
      *)  resolved="$dir/$path" ;;  # relative to the doc
    esac
    if [ ! -e "$resolved" ]; then
      echo "BROKEN LINK in $doc: ($target) -> $resolved"
      exit 1
    fi
  done || fail=1
done

echo "-- protocol spec coverage --"
if [ -f docs/PROTOCOL.md ]; then
  # Frame types, from the codec's frame table; wire keys, from its field
  # tables.
  frames="$(grep -oE '\{"[A-Z_]+", DecodePayload<' src/server/protocol.cc |
            sed -E 's/^\{"([A-Z_]+)".*/\1/' | sort -u)"
  keys="$(grep -oE '\bField\("[a-z_]+"' src/server/protocol.cc |
          sed -E 's/^Field\("([a-z_]+)"/\1/' | sort -u)"
  if [ -z "$frames" ] || [ -z "$keys" ]; then
    echo "found no frame table or no field tables in src/server/protocol.cc"
    fail=1
  fi
  for frame in $frames; do
    if ! grep -qw "$frame" docs/PROTOCOL.md; then
      echo "FRAME TYPE $frame is not documented in docs/PROTOCOL.md"
      fail=1
    fi
  done
  for key in $keys; do
    if ! grep -qw -- "$key" docs/PROTOCOL.md; then
      echo "WIRE KEY $key is not documented in docs/PROTOCOL.md"
      fail=1
    fi
  done
  # Error codes, from the wire_error constants.
  for code in $(grep -oE '"[A-Z_]+"' src/server/protocol.h | tr -d '"' | sort -u); do
    if ! grep -q "$code" docs/PROTOCOL.md; then
      echo "ERROR CODE $code is not documented in docs/PROTOCOL.md"
      fail=1
    fi
  done
else
  echo "docs/PROTOCOL.md is missing"
  fail=1
fi

echo "-- named repo paths --"
# A path token starts at a top-level directory not preceded by a path or
# word character (so perfbench/ is not read as bench/, nor /abs/src/ as
# src/). Globs stop the token at the `*`, leaving the existing directory.
path_re='(^|[^A-Za-z0-9_./-])(src|tests|tools|bench|docs|scripts|perfbench|examples)/[A-Za-z0-9_./{},-]*'
named=0
while IFS=$'\t' read -r file token; do
  token="${token#[!a-z]}"
  while [[ "$token" == *[.,] ]]; do
    token="${token%?}"
  done
  case "$token" in
    */ | *.* | *\}*) ;;
    *) continue ;;
  esac
  paths=("$token")
  if [[ "$token" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
    paths=()
    IFS=',' read -ra alts <<<"${BASH_REMATCH[2]}"
    for alt in "${alts[@]}"; do
      paths+=("${BASH_REMATCH[1]}${alt}${BASH_REMATCH[3]}")
    done
  fi
  for path in "${paths[@]}"; do
    named=$((named + 1))
    if [ ! -e "$path" ]; then
      echo "MISSING PATH $path named in $file"
      fail=1
    fi
  done
done < <(
  {
    grep -HE "$path_re" docs/*.md
    find src tools tests bench \( -name '*.cc' -o -name '*.h' \) -print0 |
      xargs -0 grep -HoE '//.*' | grep -E "$path_re"
  } | awk -v re="$path_re" '{
    file = $0
    sub(/:.*/, "", file)
    text = substr($0, length(file) + 2)
    while (match(text, re)) {
      print file "\t" substr(text, RSTART, RLENGTH)
      text = substr(text, RSTART + RLENGTH)
    }
  }'
)
if [ "$named" -eq 0 ]; then
  echo "found no repo paths in docs or comments"
  fail=1
fi
echo "$named named paths checked"

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
