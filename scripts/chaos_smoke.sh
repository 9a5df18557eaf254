#!/bin/sh
# Chaos smoke: SIGKILL a campaign mid-flight (no cleanup, no flush
# beyond the journal's own per-record flush), resume it, and prove the
# journal ends complete — every trial present exactly once, no loss, no
# duplication. This is the durability claim of doc/CAMPAIGNS.md run as
# a test; `make chaos-smoke` and CI both drive it.
set -eu

ROOT=_campaigns
NAME=chaos-smoke
DIR="$ROOT/$NAME"
BIN=_build/default/bin/main.exe
# grid: f in 1..2 (2) x rates 0.3,0.6 (2) = 4 cells x 10000 trials.
TOTAL=40000

. scripts/await_journal.sh
dune build bin/main.exe
rm -rf "$DIR"

# Run the binary directly (not through `dune exec`) so the kill lands on
# the campaign process itself, not a wrapper that would orphan it.
"$BIN" campaign run --name "$NAME" --protocol fig3 \
  -f 1..2 -t 1 -n 3 --rates 0.3,0.6 --trials 10000 --domains 2 --quiet &
PID=$!
# Kill once a tenth of the grid is journaled, not after a fixed sleep:
# a fast machine could otherwise finish first.
await_journal "$DIR/journal.jsonl" $((TOTAL / 10)) "$PID" chaos-smoke
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

BEFORE=$(wc -l <"$DIR/journal.jsonl" 2>/dev/null || echo 0)
if [ "$BEFORE" -ge "$TOTAL" ]; then
  echo "chaos-smoke FAILED: campaign finished before the kill ($BEFORE trials); raise --trials" >&2
  exit 1
fi
echo "killed the campaign after ~$BEFORE journaled trials"

"$BIN" campaign resume --name "$NAME" --quiet

LINES=$(grep -c '"trial":' "$DIR/journal.jsonl")
UNIQUE=$(grep -o '"trial":[0-9]*' "$DIR/journal.jsonl" | sort -u | wc -l)
if [ "$LINES" -ne "$TOTAL" ] || [ "$UNIQUE" -ne "$TOTAL" ]; then
  echo "chaos-smoke FAILED: $LINES journal lines, $UNIQUE unique trials, expected $TOTAL" >&2
  exit 1
fi

"$BIN" campaign report --name "$NAME" >/dev/null
echo "chaos-smoke OK: $TOTAL trials exactly once (killed at ~$BEFORE, resume completed the rest)"
