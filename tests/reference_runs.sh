#!/usr/bin/env bash
# Run every row of tests/reference_runs.txt twice through the holobraid on
# PATH, numpy's RuntimeWarnings raised as errors.  Each run must exit with
# the row's code, peak under its RSS bound, write a non-empty report and
# match the row's passed/hybe_rejected; the two runs must write equal
# reports (cmp, or tests/report_diff.py where a report has generated_at)
# and equal dumps.  Exits 1 if any check fails.  Usage: tests/reference_runs.sh
set -u
cd "$(dirname "$0")/.."
export PYTHONWARNINGS=error::RuntimeWarning
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run='import json, os, resource, subprocess, sys
name, code, mb, counts, report, *argv = sys.argv[1:]
got = subprocess.run(argv).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{name}: exit {got}, peak RSS {peak:.0f} MB")
fails = [f"exit {got}, expected {code}"] if got != int(code) else []
if mb != "-" and peak > float(mb):
    fails.append(f"peak RSS over {mb} MB")
if not os.path.isfile(report) or not os.path.getsize(report):
    fails.append("no report")
elif counts != "-":
    s = json.load(open(report))["summary"]
    seen = "%s/%s" % (s["passed"], s.get("hybe_rejected"))
    if seen != counts:
        fails.append(f"passed/hybe_rejected {seen}, expected {counts}")
sys.exit(f"FAIL {name}: " + "; ".join(fails) if fails else 0)'
status=0
fail() { echo "FAIL $*" >&2; status=1; }
while read -r name code mb counts args <&3; do
  case $name in '' | '#'*) continue ;; esac
  for x in a b; do
    python3 -c "$run" "$name$x" "$code" "$mb" "$counts" "$tmp/$name$x.json" \
      holobraid ${args//\{dir\}/$tmp/$name$x} --report "$tmp/$name$x.json" || status=1
  done
  case $args in
    suite* | braid-map*) python3 tests/report_diff.py "$tmp/${name}a.json" "$tmp/${name}b.json" ;;
    *) cmp "$tmp/${name}a.json" "$tmp/${name}b.json" ;;
  esac || fail "$name: the two reports differ"
  [[ $args != *'{dir}'* ]] || diff -r "$tmp/${name}a" "$tmp/${name}b" || fail "$name: the two dumps differ"
done 3< tests/reference_runs.txt
exit $status
