#!/bin/sh
# CLI totality gate: run every row of a case table against hypertp-cli
# and require a clean rejection.  Each run must exit 1, 3 or 124, name
# the failure on stderr ("hypertp-cli:", or "cannot resume"/"cannot
# read" for exit 1), print nothing on stdout and raise no uncaught
# exception ("Fatal error").  A case that runs past 20 s is killed and
# fails with exit 143 (timeout keeps the signal status, so a hang is
# never mistaken for cmdliner's 124).
#
# usage: totality.sh HYPERTP_CLI CASES
set -f
cli=$1
cases=$2
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
failed=0
total=0
while IFS= read -r args; do
  case $args in '' | '#'*) continue ;; esac
  total=$((total + 1))
  # shellcheck disable=SC2086 # word-splitting the row is the point
  timeout --preserve-status 20 "$cli" $args > "$out" 2> "$err"
  code=$?
  why=
  case $code in
    1) grep -q -e 'cannot resume' -e 'cannot read' -e 'hypertp-cli:' "$err" \
         || why="exit 1 without a cannot-resume/cannot-read line" ;;
    3 | 124) grep -q 'hypertp-cli:' "$err" || why="no hypertp-cli: line" ;;
    *) why="exit $code" ;;
  esac
  [ -s "$out" ] && why="$why${why:+, }printed to stdout"
  grep -q 'Fatal error' "$err" && why="$why${why:+, }uncaught exception"
  if [ -n "$why" ]; then
    failed=$((failed + 1))
    echo "FAIL hypertp-cli $args: $why"
    sed 's/^/  | /' "$err" | head -n 3
  fi
done < "$cases"
if [ "$failed" -gt 0 ]; then
  echo "$failed of $total rejection cases failed"
  exit 1
fi
