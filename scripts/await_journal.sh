# Sourced by the kill-and-resume smokes. await_journal blocks until a
# campaign's journal holds at least COUNT trial records, so a SIGKILL
# lands mid-campaign however fast the machine runs it.
#
#   await_journal JOURNAL COUNT PID LABEL
#
# It returns early if PID exits first; the caller's "finished before the
# kill" check then reports that. It fails as LABEL when the journal has
# not reached COUNT after 30 s.
await_journal() {
  tries=0
  while :; do
    n=$(grep -c '"trial":' "$1" 2>/dev/null) || true
    if [ "${n:-0}" -ge "$2" ] || ! kill -0 "$3" 2>/dev/null; then
      return 0
    fi
    tries=$((tries + 1))
    if [ "$tries" -gt 1500 ]; then
      echo "$4 FAILED: the journal holds fewer than $2 trials after 30 s" >&2
      kill "$3" 2>/dev/null || true
      exit 1
    fi
    sleep 0.02
  done
}
