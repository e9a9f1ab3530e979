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

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
