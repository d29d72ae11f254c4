#!/bin/sh
# CLI boundary check: each bad argument value below must be a cmdliner
# usage error (exit 124, a usage hint, and a message that names the value),
# never an uncaught exception (exit 125) or a silently clamped run; a run
# that reports findings must exit 1, so it is never mistaken for either.
#
#   sh test/cli_errors.sh path/to/switchv_cli.exe
set -u
switchv=$1
err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0

expect_usage_error () {
  value=$1
  shift
  "$switchv" "$@" >/dev/null 2>"$err"
  code=$?
  if [ "$code" -ne 124 ] || ! grep -qF -- "$value" "$err" || ! grep -q '^Usage:' "$err"; then
    echo "cli_errors: 'switchv $*' exited $code; want a usage error naming $value"
    cat "$err"
    status=1
  fi
}

expect_usage_error '"NOPE"' validate -m middleblock --fault NOPE
expect_usage_error '"NOPE"' fuzz -m middleblock --fault NOPE
expect_usage_error '"NOPE"' fabric -m middleblock --fault NOPE
expect_usage_error '"NOPE"' replay -m middleblock --fault NOPE --corpus test/fixtures/corpus.jsonl
expect_usage_error '"nope"' catalogue nope
expect_usage_error "'-3'" fuzz --batches=-3
expect_usage_error "'0'" validate --jobs 0
expect_usage_error "'0'" validate --shards 0
expect_usage_error "'0'" fabric --shards 0
expect_usage_error "'-1'" validate --scale=-1
expect_usage_error "'0'" validate --scale 0
expect_usage_error '9' fabric -m middleblock --topo line --switches 3 --fault-switch 9

expect_findings () {
  "$switchv" "$@" >/dev/null 2>"$err"
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "cli_errors: 'switchv $*' exited $code; want 1 (findings reported)"
    cat "$err"
    status=1
  fi
}

expect_findings validate -m middleblock --fault PINS-019 --batches 0 --scale 0.05
expect_findings lint -f test/fixtures/broken.p4 --severity error

# --batches 0 stays valid: the directed sweep alone.
"$switchv" fuzz -m middleblock --batches 0 >/dev/null || {
  echo "cli_errors: 'switchv fuzz --batches 0' failed"
  status=1
}
exit $status
