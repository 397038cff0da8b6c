#!/bin/sh
# Reduce the paper reproduction's output (bench/main.exe) to the part that
# repeats run to run: drop the core count from the header, the CPU-time
# table and the "(... took X s)" wall-time lines.  Every table and figure
# body stays.  Reads stdin, writes stdout.  CI diffs the quick run against
# bench/repro_quick.expected, which this regenerates:
#
#   REPRO_QUICK=1 ./_build/default/bench/main.exe | tools/repro_stable.sh > bench/repro_quick.expected
sed -E \
  -e 's/, [0-9]+ cores \(/, N cores (/' \
  -e '/^CPU-time micro-benchmarks/,/^Tables$/{/^Tables$/!d;}' \
  -e '/^\(.* took [0-9.]+ s\)$/d'
