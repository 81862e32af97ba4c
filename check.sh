#!/bin/sh
# One-command verification gate: build, tests, sanitizer checks.
#
# The oracle runs with a high --latency so its retention warnings (the
# conservatism MineSweeper deliberately accepts, present on any workload
# with unlucky integers) do not fail the gate: here it referees
# soundness and the cross-layer invariants only.
set -eu
cd "$(dirname "$0")"

CLI=_build/default/bin/msweep_cli.exe
top=$(pwd)
TMPDIR="${TMPDIR:-/tmp}"
workdir=$(mktemp -d "$TMPDIR/msweep-check.XXXXXX")
trap 'rm -rf "$workdir"' EXIT INT TERM

# A figure's exit status is its own checks: on a failed check msweep
# lists the figure id and the check on stderr, after the figure's run
# log, and exits 1. On failure, show stderr without the run log.
figure_gate() {
  id=$1
  shift
  if ! "$CLI" figures --only "$id" --scale 0.02 >"$workdir/$id.txt" \
      2>"$workdir/$id.err"; then
    grep -v '^  \[' "$workdir/$id.err" >&2
    echo "FAIL: $id: $*" >&2
    exit 1
  fi
}

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== examples"
# The build compiles the examples; run them too, so a change that breaks
# one at run time fails here. trace_workflow saves its trace as a
# temporary file, which lands in the work dir.
for example in quickstart exploit_demo server_cache trace_workflow; do
  TMPDIR="$workdir" "_build/default/examples/$example.exe" \
    >"$workdir/example-$example.txt" \
    || { echo "FAIL: example $example exited nonzero" >&2; exit 1; }
done
echo "quickstart, exploit_demo, server_cache and trace_workflow ran cleanly"

echo "== sanitizer corpus self-test (lint + protocol + lockset mutants)"
# --races adds the protocol-mutant and static-lockset self-tests: every
# seeded mutation of the sweep protocol must be flagged with exactly its
# expected rules, and the unmutated protocol must come back clean.
# The report is pinned byte for byte (see require_cksum below).
"$CLI" check --corpus --races --strict >"$workdir/corpus.txt"
cat "$workdir/corpus.txt"

echo "== lint + sweep oracle over example traces"
# espresso (mimalloc-bench): well-behaved — must be fully clean, so
# --strict (any finding fails) must succeed.
"$CLI" trace-gen --suite mimalloc -b espresso --scale 0.05 \
  -o "$workdir/espresso.trace" >/dev/null
# The generator's output is pinned byte for byte: the static bounds, pool
# plans and oracle certifications all read generated traces, so a change
# to the generator must not move a single RNG draw.
require_cksum() {
  [ "$(cksum <"$workdir/$1")" = "$2" ] \
    || { echo "FAIL: generated $1 differs from its pinned bytes (cksum $2)" >&2; exit 1; }
}
require_cksum espresso.trace "964890256 298721"
# The self-test report: every lint corpus case (read through the one
# abstract interpreter, Workloads.Absheap), the control traces and the
# protocol and lockset mutants.
require_cksum corpus.txt "802472950 2272"
"$CLI" check -i "$workdir/espresso.trace" --oracle --latency 100000 --strict

# perlbench (spec2006): nonzero dangling rate — the lint must warn
# (fatal only under the shared --strict; warnings exit 0 by default),
# and the oracle must still certify MineSweeper sound on it.
"$CLI" trace-gen --suite spec2006 -b perlbench --scale 0.05 \
  -o "$workdir/perl.trace" >/dev/null
require_cksum perl.trace "642839022 616610"
if "$CLI" check -i "$workdir/perl.trace" --strict >/dev/null; then
  echo "FAIL: lint found nothing on a dangling-rate workload" >&2
  exit 1
fi
"$CLI" check -i "$workdir/perl.trace" >/dev/null \
  || { echo "FAIL: warnings must not be fatal without --strict" >&2; exit 1; }
echo "lint flags the dangling-rate workload (expected; fatal only under --strict)"
"$CLI" check -i "$workdir/perl.trace" --oracle --latency 100000 --strict >/dev/null 2>&1 \
  && { echo "FAIL: oracle run unexpectedly clean (lint should still fail it under --strict)" >&2; exit 1; }
# The exit above reflects the lint warnings; certify the oracle verdict
# separately: soundness + invariant findings must be absent.
"$CLI" check -i "$workdir/perl.trace" --oracle --latency 100000 2>&1 \
  | grep -q "oracle-unsound\|inv-" \
  && { echo "FAIL: oracle reported unsoundness on the default config" >&2; exit 1; }
echo "oracle certifies the default config sound on it"

echo "== referees on the figures' own programs"
# `check -b` lints the program Driver.run streams for a profile, the one
# every paper figure, `run` and `compare` execute, not a generated trace,
# and lays the referees over that Driver.run itself. On the five Fig. 17
# profiles the sweep oracle (with the invariant audit), the race
# recorder and the lockset pass must all come back clean, and each
# report is pinned byte for byte.
for bench in dealII gcc omnetpp perlbench xalancbmk; do
  "$CLI" check --suite spec2006 -b "$bench" --scale 0.02 --oracle --races \
    --latency 100000 >"$workdir/program-$bench.txt" \
    || { echo "FAIL: check -b $bench exited nonzero" >&2; exit 1; }
  grep -q "oracle-unsound\|inv-\|rc-\|ls-" "$workdir/program-$bench.txt" \
    && { echo "FAIL: referee finding on the $bench program" >&2; exit 1; }
  grep -q "oracle: .* 0 finding(s)" "$workdir/program-$bench.txt" \
    || { echo "FAIL: no clean oracle verdict on the $bench program" >&2; exit 1; }
done
require_cksum program-dealII.txt "558131275 1771"
require_cksum program-gcc.txt "1315822235 1995"
require_cksum program-omnetpp.txt "1994085553 1772"
require_cksum program-perlbench.txt "490237012 1520"
require_cksum program-xalancbmk.txt "3545909920 4158"
# A registry metric's value in a --metrics-out export.
metric() {
  sed -n "s/^{\"metric\":\"$1\",.*\"value\":\([0-9]*\)}$/\1/p" "$2"
}
# Every profile of every suite as the figures run it: no unsound
# recycle, no invariant finding (retention is reported, not gated), and
# a race-free, lockset-clean recorded stream under default and mostly.
# The oracle judges the run `bench` measures: its releases and sweeps
# are the ones the run's registry exports.
for suite in spec2006 spec2017 mimalloc; do
  for bench in $("$CLI" list | awk -v s="$suite:" '$0 == s { on = 1; next }
      /:$/ { on = 0 } on { print $1 }'); do
    "$CLI" check --suite "$suite" -b "$bench" --scale 0.02 --oracle --races \
      >"$workdir/program.txt" 2>&1 || true
    grep -q "oracle: " "$workdir/program.txt" \
      || { echo "FAIL: no oracle verdict on the $suite/$bench program" >&2; exit 1; }
    grep -q "lockset(mostly): " "$workdir/program.txt" \
      || { echo "FAIL: no race verdict on the $suite/$bench program" >&2; exit 1; }
    grep -q "oracle-unsound\|inv-\|rc-\|ls-" "$workdir/program.txt" \
      && { echo "FAIL: referee finding on the $suite/$bench program" >&2; exit 1; }
    "$CLI" bench --suite "$suite" -b "$bench" --scale 0.02 -s minesweeper \
      --metrics-out "$workdir/program.metrics" >/dev/null
    judged=$(sed -n 's/.* \([0-9]*\) releases, \([0-9]*\) sweeps, .*/\1 \2/p' \
      "$workdir/program.txt")
    ran="$(metric ms.releases "$workdir/program.metrics") $(metric ms.sweeps "$workdir/program.metrics")"
    [ "$judged" = "$ran" ] \
      || { echo "FAIL: the oracle judged $judged (releases, sweeps) on $suite/$bench, the run exported $ran" >&2; exit 1; }
  done
done
# Positive control on the same path: the partial preset recycles on a
# timer, and the oracle over the figures' perlbench run must catch it.
status=0
"$CLI" check --suite spec2006 -b perlbench --scale 0.02 --oracle \
  --config partial >"$workdir/program-partial.txt" 2>&1 || status=$?
[ "$status" -eq 1 ] && grep -q "oracle-unsound" "$workdir/program-partial.txt" \
  || { echo "FAIL: the oracle over the perlbench run did not flag the partial preset (exit $status)" >&2; exit 1; }
echo "referees certify the figures' programs: five pinned reports, 53 profiles sound and race-free, each judging the run bench measures; partial flagged"

echo "== generator pins at scale 0.2"
# At 0.02 the phase profiles pass only one or two teardowns. At 0.2,
# xalancbmk tears down five phases holding back pointers and
# alloc-testN frees from 8 threads: the run stdout (stats and registry)
# under baseline and minesweeper moves if a single draw of the program
# does.
for pin in "spec2006 xalancbmk baseline 1465607142 316" \
    "spec2006 xalancbmk minesweeper 666346955 1398" \
    "mimalloc alloc-testN baseline 3876676873 313" \
    "mimalloc alloc-testN minesweeper 3230295428 1401"; do
  set -- $pin
  "$CLI" run --suite "$1" -b "$2" -s "$3" --scale 0.2 >"$workdir/gen-$2-$3.txt"
  require_cksum "gen-$2-$3.txt" "$4 $5"
done
echo "xalancbmk and alloc-testN runs at 0.2 match their pinned bytes"

echo "== sweep-mode equivalence (full vs incremental)"
# The dedicated equivalence suite: identical mark sets and decisions.
_build/default/test/test_main.exe test minesweeper.sweep-equivalence \
  >/dev/null
echo "equivalence suite passed"

# The oracle must certify the incremental configuration too: zero
# unsound recycles, zero invariant findings (inv-summary included), on
# both the clean and the dangling-rate workload.
for trace in espresso perl; do
  "$CLI" check -i "$workdir/$trace.trace" --oracle --config incremental \
    --latency 100000 2>&1 \
    | grep -q "oracle-unsound\|inv-" \
    && { echo "FAIL: oracle flagged the incremental config on $trace" >&2; exit 1; }
done
echo "oracle certifies the incremental config sound"

echo "== race checker: recorded streams clean, bounded exploration sound"
# The happens-before analysis over live recorded synchronization events
# must certify both seeded workloads race-free under the default and
# mostly-concurrent presets (the generator never republishes a freed
# address, so no write can hide a locked-in pointer from the mark).
for trace in espresso perl; do
  "$CLI" check -i "$workdir/$trace.trace" --races >"$workdir/races-$trace.txt" 2>&1 || true
  grep -q "races(default):.* 0 finding(s)" "$workdir/races-$trace.txt" \
    || { echo "FAIL: race findings under default on $trace" >&2; exit 1; }
  grep -q "races(mostly):.* 0 finding(s)" "$workdir/races-$trace.txt" \
    || { echo "FAIL: race findings under mostly on $trace" >&2; exit 1; }
  grep -q "rc-" "$workdir/races-$trace.txt" \
    && { echo "FAIL: race diagnostics on $trace" >&2; exit 1; }
  # The static lockset pass reads the same recorded streams and must
  # agree: a correct sweep protocol has no ls-* findings.
  grep -q "lockset(default): 0 finding(s)" "$workdir/races-$trace.txt" \
    || { echo "FAIL: lockset findings under default on $trace" >&2; exit 1; }
  grep -q "lockset(mostly): 0 finding(s)" "$workdir/races-$trace.txt" \
    || { echo "FAIL: lockset findings under mostly on $trace" >&2; exit 1; }
done
echo "recorded event streams race-free and lockset-clean under default and mostly"

# The sweep oracle and the race recorder replay through the one trace
# interpreter: pin their whole report, not just the verdict lines. Run
# inside $workdir so the trace names in the report carry no path.
for trace in espresso perl; do
  (cd "$workdir" && "$top/$CLI" check -i "$trace.trace" --oracle --races \
    --latency 100000 >"referees-$trace.txt") \
    || { echo "FAIL: check --oracle --races exited nonzero on $trace" >&2; exit 1; }
done
require_cksum referees-espresso.txt "3280338235 428"
require_cksum referees-perl.txt "2273817921 4939"
echo "oracle and race-recorder reports match their pinned bytes"

# Bounded schedule exploration: the sweep oracle judges every schedule
# (no quarantined chunk released while a ground-truth pointer to it
# exists, no invariant finding), no schedule may race, and two identical
# explorations must render byte-identically. The report and its metrics
# export are pinned byte for byte.
"$CLI" explore --schedules 64 >"$workdir/explore1.txt" \
  || { echo "FAIL: explorer found violations or races" >&2; exit 1; }
"$CLI" explore --schedules 64 --metrics-out "$workdir/explore.metrics" \
  >"$workdir/explore2.txt"
grep -v '^metrics written to ' "$workdir/explore2.txt" \
  | cmp "$workdir/explore1.txt" - \
  || { echo "FAIL: explorer output differs across identical runs" >&2; exit 1; }
grep -q "violations=0 races=0" "$workdir/explore1.txt" \
  || { echo "FAIL: explorer summary reports findings" >&2; exit 1; }
require_cksum explore1.txt "3478448023 4930"
require_cksum explore.metrics "1624163522 605"
# Positive control: quarantine without sweeping recycles a's extent while
# root 0 still points at it, in exactly 228 schedules of the full space.
if "$CLI" explore --config partial --schedules 100000 \
    >"$workdir/explore-partial.txt"; then
  echo "FAIL: explorer certified the unsound partial preset" >&2
  exit 1
fi
grep -q "violations=228 " "$workdir/explore-partial.txt" \
  || { echo "FAIL: explorer no longer finds partial's 228 violations" >&2; exit 1; }
echo "explored 64 schedules: sound, race-free, deterministic; partial flagged"

echo "== static dataflow analyzer (flowcheck)"
# Dedicated suite: abstract-domain semantics, witness chains, bounds
# math, the corpus known-bads statically flagged, lockset mutants, and
# the zero-false-negative certification against the dynamic oracle.
_build/default/test/test_main.exe test flowcheck >/dev/null
echo "flowcheck suite passed"

# The siteflow pooling pass and the pooled backend it drives: exposure
# lattice, pool-merge optimality, bound math, plan determinism, and the
# differential Pool_oracle certification (zero unsound recycles under
# every analyzed plan, including the whole mimalloc-bench suite).
_build/default/test/test_main.exe test siteflow >/dev/null
echo "siteflow suite passed"
_build/default/test/test_main.exe test poolalloc >/dev/null
echo "poolalloc suite passed"

# `msweep analyze` must be deterministic: two runs over both seeded
# traces (with the pooling pass enabled) render and export
# byte-identically — this doubles as the pool-plan double-run gate.
"$CLI" analyze -i "$workdir/espresso.trace" -i "$workdir/perl.trace" \
  --json "$workdir/flow1.json" --lockset --pools >"$workdir/flow1.txt"
"$CLI" analyze -i "$workdir/espresso.trace" -i "$workdir/perl.trace" \
  --json "$workdir/flow2.json" --lockset --pools >"$workdir/flow2.txt"
cmp "$workdir/flow1.json" "$workdir/flow2.json" \
  || { echo "FAIL: analyze JSON differs across identical runs" >&2; exit 1; }
# The rendered report embeds the --json path in its status line; strip
# it before comparing the rest byte-for-byte.
grep -v '^json ' "$workdir/flow1.txt" >"$workdir/flow1.stripped"
grep -v '^json ' "$workdir/flow2.txt" >"$workdir/flow2.stripped"
cmp "$workdir/flow1.stripped" "$workdir/flow2.stripped" \
  || { echo "FAIL: analyze report differs across identical runs" >&2; exit 1; }
# Pinned too: the dangling report and the siteflow plan are folds over
# the same abstract interpreter as the lint, and must not drift from it.
require_cksum flow1.json "139427039 17197"
require_cksum flow1.stripped "1993164388 11344"
# Streaming holds one chunk of ops: the chunk size must not move a byte.
for chunk in 1 257 4096; do
  "$CLI" analyze -i "$workdir/perl.trace" --chunk "$chunk" \
    --json "$workdir/perl-chunk$chunk.json" >/dev/null
done
cmp "$workdir/perl-chunk1.json" "$workdir/perl-chunk4096.json" \
  && cmp "$workdir/perl-chunk257.json" "$workdir/perl-chunk4096.json" \
  || { echo "FAIL: analyze --json depends on --chunk" >&2; exit 1; }
head -1 "$workdir/flow1.json" | grep -q '"schema":"msweep-flowcheck-v2"' \
  || { echo "FAIL: missing flowcheck JSON schema header" >&2; exit 1; }
# --pools must land the site/pool records in the JSON and a rendered
# plan in the report.
head -1 "$workdir/flow1.json" | grep -q '"pools":\[' \
  || { echo "FAIL: --pools exported no pool records" >&2; exit 1; }
grep -q "pool plan for" "$workdir/flow1.txt" \
  || { echo "FAIL: --pools rendered no pool plan" >&2; exit 1; }
# perlbench's dangling rate must be statically visible, with a witness
# chain, without replaying anything.
grep -q "flow-dangling" "$workdir/flow1.txt" \
  || { echo "FAIL: analyzer missed the dangling-rate workload" >&2; exit 1; }
grep -q "witness:" "$workdir/flow1.txt" \
  || { echo "FAIL: dangling findings carry no witness chain" >&2; exit 1; }
# Exit-code parity with `check`: warnings are fatal only under --strict.
"$CLI" analyze -i "$workdir/perl.trace" >/dev/null \
  || { echo "FAIL: analyze warnings must not be fatal without --strict" >&2; exit 1; }
"$CLI" analyze -i "$workdir/perl.trace" --strict >/dev/null 2>&1 \
  && { echo "FAIL: analyze --strict must fail on findings" >&2; exit 1; }
echo "analyze: deterministic output, static dangling coverage, shared --strict"

echo "== figures: unknown ids are rejected"
# Every figure gate below reads a figure's exit status; an id the CLI
# silently ignored would run nothing and pass vacuously.
if "$CLI" figures --only no-such-figure --scale 0.02 >"$workdir/nofig.txt" 2>&1; then
  echo "FAIL: figures --only accepted an unknown figure id" >&2
  exit 1
fi
grep -q "valid ids: .*parallel-mark" "$workdir/nofig.txt" \
  || { echo "FAIL: the unknown-id error does not list the valid ids" >&2; exit 1; }
echo "figures --only rejects an unknown id and lists the valid ones"

echo "== bad names: a usage error that lists the valid names"
# Every name argument resolves when the command line is parsed: a typo
# must exit nonzero (not 125, cmdliner's uncaught-exception status)
# before anything runs, naming what it would have accepted.
bad_name() {
  expected=$1
  shift
  status=0
  "$CLI" "$@" >"$workdir/badname.txt" 2>&1 || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 125 ]; then
    echo "FAIL: msweep $* exited $status" >&2
    exit 1
  fi
  tr -s ' \n' ' ' <"$workdir/badname.txt" | grep -q "$expected" \
    || { echo "FAIL: msweep $* does not list the valid names" >&2; exit 1; }
}
bad_name "minesweeper-mostly" run --suite mimalloc -b espresso -s bogus
bad_name "incremental-mostly" check --corpus --config bogus
bad_name "xalancbmk" check --suite spec2006 -b bogus
echo "run -s bogus, check --config bogus and check -b bogus exit with a usage error listing the valid names"

echo "== bad numbers: a usage error that names the valid range"
# Numeric arguments are range-checked the same way, before anything
# runs: no value may be clamped, wrapped or silently replaced.
bad_name "finite number > 0" run --suite mimalloc -b espresso --scale nan
bad_name "finite number > 0" run --suite spec2006 -b perlbench --scale 1e300
bad_name "finite number > 0" serve --scale 0
bad_name "finite number > 0" check --suite spec2006 -b gcc --scale=-1
bad_name "integer >= 1" explore --schedules=-5
bad_name "integer >= 1" explore --schedules 0
bad_name "integer >= 1" run --suite mimalloc -b espresso --domains=-4
bad_name "integer >= 1" bench --suite mimalloc -b espresso --repeat 0
bad_name "integer >= 1" serve --repeat=-2
bad_name "integer >= 0" fleet --quarantine-budget=-1
bad_name "integer >= 1" analyze -i "$workdir/espresso.trace" --chunk 0
bad_name "integer >= 1" analyze -i "$workdir/espresso.trace" --chunk=-3
bad_name "integer >= 1" fleet --scale 0.05 --budget 0
bad_name "integer >= 1" fleet --scale 0.05 --budget=-5
bad_name "<= 4398046511103" fleet --scale 0.05 --budget 4398046511104
bad_name "<= 4398046511103" fleet --scale 0.05 --quarantine-budget 4398046511104
bad_name "count 0 is out of range: expected an integer >= 1" fleet --scale 0.05 \
  --tenants "steady:minesweeper*0"
bad_name "count -2 is out of range: expected an integer >= 1" fleet --scale 0.05 \
  --tenants "steady:minesweeper*-2"
bad_name "weight 0 is out of range: expected an integer >= 1" fleet --scale 0.05 \
  --tenants "steady:minesweeper@0"
echo "--scale, --schedules, --domains, --repeat, --chunk, --budget, --quarantine-budget and --tenants counts and weights reject out-of-range values"

echo "== bad trace input: a located error, not an internal one"
# Every command that reads a trace file must turn an unreadable file or
# a line that does not parse (an unknown op, a zero thread count, a size
# outside the heap window) into the file, line and reason on stderr and
# a nonzero status other than 125.
printf 'q 1 2\n' >"$workdir/bad-op.trace"
printf '# msweep-trace v1 bad\n# threads 0\na 0 64\n' >"$workdir/bad-threads.trace"
printf 'a 0 -5\n' >"$workdir/bad-negative.trace"
printf 'a 0 4611686018427387903\n' >"$workdir/bad-huge.trace"
printf 'a 0 300000000000\n' >"$workdir/bad-beyond-heap.trace"
bad_trace() {
  file=$1
  expected=$2
  for cmd in check analyze trace-replay; do
    status=0
    "$CLI" "$cmd" -i "$workdir/$file" >/dev/null 2>"$workdir/badtrace.txt" \
      || status=$?
    if [ "$status" -eq 0 ] || [ "$status" -eq 125 ]; then
      echo "FAIL: msweep $cmd -i $file exited $status" >&2
      exit 1
    fi
    grep -q "$file: $expected" "$workdir/badtrace.txt" \
      || { echo "FAIL: msweep $cmd -i $file does not report \"$expected\"" >&2; exit 1; }
  done
}
bad_trace bad-op.trace "line 1: unrecognised op: q 1 2"
bad_trace bad-threads.trace "line 2: threads must be >= 1"
bad_trace bad-negative.trace "line 1: size -5 outside"
bad_trace bad-huge.trace "line 1: size 4611686018427387903 outside"
bad_trace bad-beyond-heap.trace "line 1: size 300000000000 outside"
bad_trace missing.trace "No such file or directory"
echo "check, analyze and trace-replay report bad or missing trace files with their line"

# The scanner reads every integer spelling int_of_string takes (hex,
# octal, binary, '_', '+', an explicit 0 site or thread column) and any
# run of spaces as the canonical text does: a hand-spelled trace and its
# canonical twin must lint, replay and analyze to identical bytes. Each
# runs in its own directory under the same file name, since check's
# report prints the path.
mkdir "$workdir/spelled" "$workdir/canonical"
printf '#   msweep-trace   v1   spelled  \n# threads 0x2\n#  sites  +2\na 0x0 64 0\na  1  0x40  +1\na 2 1_024 0\np r 0x10 0\np f 0x1 -0 0\np  f  0  0b111  +1\np g 5 2  \nd r 17 -0x3\ni g 0o3 2 0x1\nz f 0 7\nx 0x1 0\nc  r  16  0\nx 2 0x1\nx 0 +1\nw 1_000\n' \
  >"$workdir/spelled/twin.trace"
printf '# msweep-trace v1 spelled\n# threads 2\n# sites 2\na 0 64\na 1 64 1\na 2 1024\np r 16 0\np f 1 0 0\np f 0 7 1\np g 5 2\nd r 17 -3\ni g 3 2 1\nz f 0 7\nx 1\nc r 16 0\nx 2 1\nx 0 1\nw 1000\n' \
  >"$workdir/canonical/twin.trace"
for form in spelled canonical; do
  (cd "$workdir/$form" \
    && "$top/$CLI" check -i twin.trace >check.txt \
    && "$top/$CLI" analyze -i twin.trace --json twin.json >/dev/null) \
    || { echo "FAIL: check or analyze exited nonzero on the $form twin" >&2; exit 1; }
done
cmp "$workdir/spelled/check.txt" "$workdir/canonical/check.txt" \
  || { echo "FAIL: check reads the spelled trace unlike its canonical twin" >&2; exit 1; }
cmp "$workdir/spelled/twin.json" "$workdir/canonical/twin.json" \
  || { echo "FAIL: analyze reads the spelled trace unlike its canonical twin" >&2; exit 1; }
grep -q "unclear-before-free" "$workdir/canonical/check.txt" \
  || { echo "FAIL: the twin traces lost their dangling free" >&2; exit 1; }
# Line 10 with two bad fields: the word is read before the id.
sed '10s/.*/p f 0x 0b2 1/' "$workdir/spelled/twin.trace" >"$workdir/spelled-bad.trace"
bad_trace spelled-bad.trace "line 10: word"
echo "a hand-spelled trace reads as its canonical twin; its bad line is named"

echo "== bench smoke: static bounds vs dynamic telemetry"
# Every mimalloc-bench profile: the static quarantine-occupancy and
# sweep bounds must dominate the measured ms.* values, and every
# dynamic oracle finding must have been statically predicted.
figure_gate static-bounds \
  "a measured ms.* value exceeded its static bound or an oracle finding was unpredicted"
require_cksum static-bounds.txt "4072751655 2605"
echo "static bounds dominate measured ms.* telemetry on every mimalloc profile"

echo "== bench smoke: pooled backend landscape (siteflow certification)"
# Every mimalloc-bench profile replayed under its own siteflow-derived
# pool plan with the differential UAF oracle attached: zero unsound
# recycles and every static occupancy/footprint/retired bound must
# dominate the backend's pool telemetry.
figure_gate pooled-landscape \
  "an unsound recycle survived the siteflow plan or a bound under-shot telemetry"
require_cksum pooled-landscape.txt "1675219626 3099"
echo "pooled backend certified UAF-free with dominating bounds on every mimalloc profile"

echo "== bench smoke: incremental sweeps fewer bytes than full"
figure_gate incremental-sweep "incremental mode did not sweep strictly fewer bytes"
require_cksum incremental-sweep.txt "2125297217 1614"
echo "incremental swept strictly fewer bytes on every sweeping profile"

echo "== incremental sweeps: pinned exports"
# The summary cache's rescan/replay split shows in the ms.* counters,
# the stage reports and the mark spans: pin them under both incremental
# presets, and at four modeled domains, where the rescanned pages alone
# are sharded across the markers.
for scheme in incremental incremental-mostly; do
  "$CLI" bench --suite spec2006 -b perlbench -s "$scheme" --scale 0.02 \
    --metrics-out "$workdir/$scheme.jsonl" \
    --spans-out "$workdir/$scheme-spans.jsonl" >/dev/null
done
"$CLI" bench --suite spec2006 -b omnetpp -s incremental --scale 0.05 \
  --domains 4 --metrics-out "$workdir/omnetpp-d4.jsonl" \
  --spans-out "$workdir/omnetpp-d4-spans.jsonl" >/dev/null
require_cksum incremental.jsonl "2686403715 2831"
require_cksum incremental-spans.jsonl "3359670927 288117"
require_cksum incremental-mostly.jsonl "4277989090 2853"
require_cksum incremental-mostly-spans.jsonl "4127595238 289093"
require_cksum omnetpp-d4.jsonl "1505542806 3120"
require_cksum omnetpp-d4-spans.jsonl "179341719 1073671"
echo "incremental metrics and spans match their pinned bytes at 1 and 4 domains"

echo "== parallel marking: equivalence suite + determinism across domains"
# The dedicated equivalence suite: for every preset and modeled domain
# count the mark's shadow set, stats and simulated clock equal the
# one-domain run's, certified by the sweep oracle.
_build/default/test/test_main.exe test minesweeper.parsweep >/dev/null
echo "parallel equivalence suite passed"

# The pipeline suite extends the same discipline to the whole sweep
# cycle: stage API outcomes, batched quarantine flushes, and export
# equivalence across presets × marking modes × domain counts.
_build/default/test/test_main.exe test minesweeper.pipeline >/dev/null
echo "sweep pipeline suite passed"

# Metrics exports at 1 vs 4 domains must be byte-identical once the
# schema header (it advertises the metric count, which grows with the
# par.* family) and the par.* / sweep.stage.* lines themselves are
# stripped: the modeled domain count may add telemetry about itself but
# must not perturb a single other exported value.
"$CLI" bench --suite spec2006 -b perlbench -s minesweeper --scale 0.02 \
  --domains 1 --metrics-out "$workdir/d1.jsonl" >/dev/null
"$CLI" bench --suite spec2006 -b perlbench -s minesweeper --scale 0.02 \
  --domains 4 --metrics-out "$workdir/d4.jsonl" >/dev/null
grep -v '"schema"' "$workdir/d1.jsonl" | grep -v '"metric":"par\.' \
  | grep -v '"metric":"sweep\.stage\.' >"$workdir/d1.stripped"
grep -v '"schema"' "$workdir/d4.jsonl" | grep -v '"metric":"par\.' \
  | grep -v '"metric":"sweep\.stage\.' >"$workdir/d4.stripped"
cmp "$workdir/d1.stripped" "$workdir/d4.stripped" \
  || { echo "FAIL: 4-domain export differs from 1-domain beyond par.*/sweep.stage.*" >&2; exit 1; }
grep -q '"metric":"par\.chunks"' "$workdir/d4.jsonl" \
  || { echo "FAIL: 4-domain run exported no par.* telemetry" >&2; exit 1; }
grep -q '"metric":"par\.' "$workdir/d1.jsonl" \
  && { echo "FAIL: 1-domain run exported par.* telemetry" >&2; exit 1; }
echo "1- and 4-domain exports identical modulo par.*/sweep.stage.* telemetry"

# The race checker must stay clean at any modeled domain count: the
# Mark/Merge stages emit every synchronization event in canonical page
# order, so both seeded workloads must come back clean at 4 domains too.
for trace in espresso perl; do
  "$CLI" check -i "$workdir/$trace.trace" --races --domains 4 \
    >"$workdir/races4-$trace.txt" 2>&1 || true
  grep -q "races(default):.* 0 finding(s)" "$workdir/races4-$trace.txt" \
    || { echo "FAIL: race findings under default at 4 domains on $trace" >&2; exit 1; }
  grep -q "races(mostly):.* 0 finding(s)" "$workdir/races4-$trace.txt" \
    || { echo "FAIL: race findings under mostly at 4 domains on $trace" >&2; exit 1; }
done
echo "recorded event streams race-free at 4 domains"

# Median-of-N reporting: repeats of a deterministic simulation must agree
# on the simulated clock (the CLI exits nonzero if they diverge).
"$CLI" bench --suite mimalloc -b espresso -s minesweeper --scale 0.02 \
  --domains 4 --repeat 3 >"$workdir/repeat.txt" \
  || { echo "FAIL: repeats diverged on the simulated clock" >&2; exit 1; }
grep -q "host wall .* median of 3" "$workdir/repeat.txt" \
  || { echo "FAIL: --repeat 3 did not report a median" >&2; exit 1; }
grep -q "^host cpu .* median of 3" "$workdir/repeat.txt" \
  || { echo "FAIL: --repeat 3 did not report the host CPU time" >&2; exit 1; }
echo "bench --repeat reports the wall and CPU medians over agreeing repeats"

echo "== bench smoke: parallel mark speedup figure"
figure_gate parallel-mark "parallel mark diverged or lost its modeled speedup"
echo "parallel mark identical across domains with modeled speedup >= 1.5x"

echo "== bench smoke: sweep pipeline speedup figure"
# The staged pipeline's modeled end-to-end speedup: swept bytes must be
# identical at every domain count and the best modeled sweep-cycle
# speedup at 4 domains must stay >= 2x.
figure_gate sweep-pipeline "sweep pipeline diverged or lost its modeled speedup"
echo "sweep pipeline identical across domains with modeled speedup >= 2x"

echo "== telemetry: metrics export determinism + schema"
# Two identical runs must export byte-identical JSONL (every value is an
# integer off the simulated clock — nothing host-dependent may leak in).
"$CLI" bench --suite spec2006 -b perlbench -s minesweeper --scale 0.02 \
  --metrics-out "$workdir/m1.jsonl" --spans-out "$workdir/s1.jsonl" >/dev/null
"$CLI" bench --suite spec2006 -b perlbench -s minesweeper --scale 0.02 \
  --metrics-out "$workdir/m2.jsonl" >/dev/null
cmp "$workdir/m1.jsonl" "$workdir/m2.jsonl" \
  || { echo "FAIL: metrics exports differ across identical runs" >&2; exit 1; }
echo "metrics export byte-identical across identical runs"
# The simulated exports are pinned byte for byte too (here and for the
# other stacks, serve and fleet below): a change to how the host runs
# the simulation (page tables, shadow map, scan loops) must not move a
# single simulated value.
require_cksum m1.jsonl "112860682 2834"
require_cksum s1.jsonl "3720498763 288011"
# The span dump of the mostly-concurrent preset, the path serve runs:
# its ring wraps (8,807 spans emitted, 8,192 retained) and it carries
# free, unmap, stw, stw-rescan, release and purge spans.
"$CLI" trace -b perlbench -s mostly --scale 0.05 \
  -o "$workdir/mostly-spans.jsonl" >/dev/null
require_cksum mostly-spans.jsonl "4029401698 1070941"

# Schema: header line advertises the exact number of metric lines.
awk '
  NR == 1 {
    if ($0 !~ /"schema":"msweep-metrics-v1"/) {
      print "FAIL: missing metrics schema header" > "/dev/stderr"; exit 1
    }
    n = $0; sub(/.*"metrics":/, "", n); sub(/[^0-9].*/, "", n)
    advertised = n + 0; next
  }
  /"metric":/ { lines++ }
  END {
    if (lines != advertised) {
      printf "FAIL: header advertises %d metrics, found %d lines\n", \
        advertised, lines > "/dev/stderr"
      exit 1
    }
  }' "$workdir/m1.jsonl"
echo "metrics header count matches exported lines"

# Every instance counter registered under the ms. prefix must appear in
# the export — a registration that silently falls out of the snapshot
# path is exactly the drift this gate exists to catch.
for name in frees_intercepted double_frees sweeps swept_bytes \
    stw_rescanned_bytes sweep_pages_skipped sweep_pages_rescanned \
    summary_cache_bytes releases released_bytes failed_frees \
    unmapped_allocations unmapped_bytes stw_pauses stw_cycles \
    alloc_pauses alloc_pause_cycles peak_quarantine_bytes uaf_prevented; do
  grep -q "\"metric\":\"ms\.$name\"" "$workdir/m1.jsonl" \
    || { echo "FAIL: registered counter ms.$name absent from export" >&2; exit 1; }
done
# The layered registries must have joined the same export.
for name in vmem.committed_bytes alloc.mallocs ms.sweep_scan_bytes; do
  grep -q "\"metric\":\"$name\"" "$workdir/m1.jsonl" \
    || { echo "FAIL: $name absent from export" >&2; exit 1; }
done
# ...on every backend MineSweeper layers over: the three protected
# stacks share one builder, so they must export the same layers.
for scheme in minesweeper scudo-ms dl-ms; do
  "$CLI" bench --suite spec2006 -b perlbench -s "$scheme" --scale 0.02 \
    --metrics-out "$workdir/layers-$scheme.jsonl" >/dev/null
  for name in vmem.committed_bytes alloc.live_bytes ms.sweep_scan_bytes \
      sweep.stage.seq_cycles_est; do
    grep -q "\"metric\":\"$name\"" "$workdir/layers-$scheme.jsonl" \
      || { echo "FAIL: $name absent from the $scheme export" >&2; exit 1; }
  done
done
require_cksum layers-scudo-ms.jsonl "2615021423 2834"
require_cksum layers-dl-ms.jsonl "3816147516 2643"
echo "all registered counters present in the export, on every protected stack"

head -1 "$workdir/s1.jsonl" | grep -q '"schema":"msweep-spans-v1"' \
  || { echo "FAIL: missing spans schema header" >&2; exit 1; }
grep -q '"phase":"mark"' "$workdir/s1.jsonl" \
  || { echo "FAIL: no mark-phase spans in a sweeping profile" >&2; exit 1; }
echo "span export carries the sweep-phase profile"

echo "== server traffic: open-loop determinism, srv.* export, repeats"
# Two identical serve runs must export byte-identical metrics: the whole
# pipeline (arrival generation, Lindley decomposition, histogram fills)
# runs off the simulated clock and the profile seed.
"$CLI" serve -p steady -s minesweeper --scale 0.02 \
  --metrics-out "$workdir/srv1.jsonl" >"$workdir/srv1.txt"
"$CLI" serve -p steady -s minesweeper --scale 0.02 \
  --metrics-out "$workdir/srv2.jsonl" >/dev/null
cmp "$workdir/srv1.jsonl" "$workdir/srv2.jsonl" \
  || { echo "FAIL: server metric exports differ across identical runs" >&2; exit 1; }
require_cksum srv1.jsonl "325684908 3654"
# srv.* and ms.* must share one export (the server registers its metrics
# into the stack's own registry).
for name in srv.latency srv.stall_latency srv.queue_wait srv.service \
    srv.requests srv.completed srv.queue_depth_max; do
  grep -q "\"metric\":\"$name\"" "$workdir/srv1.jsonl" \
    || { echo "FAIL: $name absent from the serve export" >&2; exit 1; }
done
grep -q '"metric":"ms\.sweeps"' "$workdir/srv1.jsonl" \
  || { echo "FAIL: ms.* telemetry missing from the serve export" >&2; exit 1; }
# --repeat derives independent streams per repeat (split seeds) and
# reports a median-of-N row.
"$CLI" serve -p steady -s baseline --scale 0.02 --repeat 3 \
  >"$workdir/srv-repeat.txt" \
  || { echo "FAIL: serve --repeat exited nonzero" >&2; exit 1; }
grep -q "median of 3" "$workdir/srv-repeat.txt" \
  || { echo "FAIL: serve --repeat 3 did not report a median" >&2; exit 1; }
r0=$(grep "^repeat 0" "$workdir/srv-repeat.txt")
r1=$(grep "^repeat 1" "$workdir/srv-repeat.txt")
[ "${r0#repeat 0}" != "${r1#repeat 1}" ] \
  || { echo "FAIL: repeat 1 replayed repeat 0's stream (split seed lost)" >&2; exit 1; }
echo "serve: byte-identical exports, srv.* beside ms.*, independent repeats"

echo "== attack under live traffic"
# The vtable hijack mounted mid-traffic: the baseline must be exploited,
# MineSweeper must not — while both keep serving the offered load.
"$CLI" serve -p steady -s baseline --scale 0.05 --attack \
  >"$workdir/atk-base.txt" \
  || { echo "FAIL: serve --attack (baseline) exited nonzero" >&2; exit 1; }
grep -q "EXPLOITED" "$workdir/atk-base.txt" \
  || { echo "FAIL: baseline not exploited under live traffic" >&2; exit 1; }
"$CLI" serve -p steady -s minesweeper --scale 0.05 --attack \
  >"$workdir/atk-ms.txt" \
  || { echo "FAIL: serve --attack (minesweeper) exited nonzero" >&2; exit 1; }
grep -q "EXPLOITED" "$workdir/atk-ms.txt" \
  && { echo "FAIL: minesweeper exploited under live traffic" >&2; exit 1; }
echo "baseline exploited, minesweeper clean, traffic served throughout"

echo "== bench smoke: tail-latency figure"
# All five server profiles x all backends: quantile families monotone,
# stall latency below total latency, arrivals identical across backends
# (the open-loop property), attack outcomes as expected — and the whole
# figure byte-identical across runs.
figure_gate tail-latency "tail-latency figure failed a check"
mv "$workdir/tail-latency.txt" "$workdir/tail1.txt"
figure_gate tail-latency "tail-latency figure failed a check on its second run"
cmp "$workdir/tail1.txt" "$workdir/tail-latency.txt" \
  || { echo "FAIL: tail-latency figure differs across identical runs" >&2; exit 1; }
echo "tail-latency figure deterministic, monotone, open-loop, attack-clean"

echo "== fleet: shared-budget determinism, aggregation, noisy neighbour"
# Two identical 5-tenant fleet runs (the default noisy-neighbour spec on
# the default 192 MiB budget) must export byte-identical merged
# registries: split-seed tenant streams, integer interference arithmetic
# and sorted merge order leave no room for drift.
"$CLI" fleet --scale 0.05 --metrics-out "$workdir/fleet1.jsonl" \
  >"$workdir/fleet1.txt" \
  || { echo "FAIL: fleet smoke run exited nonzero" >&2; exit 1; }
"$CLI" fleet --scale 0.05 --metrics-out "$workdir/fleet2.jsonl" \
  >/dev/null
cmp "$workdir/fleet1.jsonl" "$workdir/fleet2.jsonl" \
  || { echo "FAIL: fleet metric exports differ across identical runs" >&2; exit 1; }
require_cksum fleet1.jsonl "2216665580 26741"
# The default budget must hold without pressure, and the export must
# carry the per-tenant namespaces beside the machine-wide aggregation.
grep -q "pressure       0 events, 0 reclaims, 0 oom kills" "$workdir/fleet1.txt" \
  || { echo "FAIL: 5-tenant fleet under default budget hit pressure" >&2; exit 1; }
for name in fleet.agg.srv.latency fleet.agg.srv.stall_latency \
    fleet.t0.srv.requests fleet.t4.srv.requests fleet.committed_peak \
    fleet.t0.vmem.committed_bytes; do
  grep -q "\"metric\":\"$name\"" "$workdir/fleet1.jsonl" \
    || { echo "FAIL: $name absent from the fleet export" >&2; exit 1; }
done
echo "fleet: byte-identical exports, aggregation present, budget held"

echo "== bench smoke: fleet-pressure figure"
# Noisy-neighbour across backends and both purge orders: committed peak
# within budget, arrivals identical to isolation (open loop preserved
# across the fleet), neighbour p99 stall strictly above isolation where
# interference was injected.
figure_gate fleet-pressure "fleet-pressure figure failed a check"
echo "fleet-pressure figure: budget held, open loop, neighbour stall visible"

echo "== all checks passed"
