#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself?
#
#   benchmark/aa.sh                 # two sets of 5 runs per workload
#   RUNS=10 benchmark/aa.sh         # the acceptance protocol: two sets of 10
#   WORKLOADS="multi_tune tpcc_supervised" benchmark/aa.sh
#
# The two sets alternate (set A run 1, set B run 1, set A run 2, ...), every
# run of a set with another --seed, on one and the same build. For each
# workload x end-to-end metric it prints both set medians, the spread of
# each set (distance between the quartiles as a share of the median, as
# Python's statistics.quantiles(values, n=4) gives them), the range of the
# single runs, and the bound from BENCHMARK.json. It exits non-zero when,
# on a workload BENCHMARK.json lists,
#   - a spread exceeds its bound (setup_s excepted),
#   - the second set's median is worse than the first's by more than the bound,
#   - a single work_per_s is further than the bound from its set's median, or
#   - any run reports a failed check.
# Workloads BENCHMARK.json does not list (tpcc_supervised) are run when
# named in WORKLOADS and printed with `ungated` for a bound.
set -euo pipefail

here=$(dirname "$0")
runs=${RUNS:-5}
mkdir -p "$here/out"
log=$here/out/aa.log # one line per run, kept for a closer look
: >"$log"

workloads=${WORKLOADS:-$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/../BENCHMARK.json")}

for workload in $workloads; do
    for ((i = 1; i <= runs; i++)); do
        for set in A B; do
            # A run with failed checks exits 1 and still prints its result.
            result=$("$here/run.sh" --workload "$workload" --seed "$i" | tail -n 1) || true
            printf '%s %s %s\n' "$workload" "$set" "$result" >>"$log"
            printf '.' >&2
        done
    done
done
printf '\n' >&2

python3 - "$here/../BENCHMARK.json" "$log" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
gated = {w["name"] for w in spec["workloads"]}
runs = {}
failed_checks = 0
for line in open(sys.argv[2]):
    workload, which, result = line.split(" ", 2)
    result = json.loads(result)
    failed_checks += result["failed"]
    for name, metric in result["metrics"].items():
        runs.setdefault(workload, {}).setdefault(name, {}).setdefault(which, []).append(metric["value"])

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

bad = []
print(f"{'workload':16} {'metric':12} {'median A':>12} {'median B':>12} {'B vs A':>8} "
      f"{'spread A':>9} {'spread B':>9} {'min':>12} {'max':>12} {'bound':>7}")
for workload, metrics in runs.items():
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = metrics[name]["A"], metrics[name]["B"]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
        spreads = [spread(v) for v in (a, b)]
        shown = f"{bound:.0%}" if workload in gated else "ungated"
        print(f"{workload:16} {name:12} {med_a:12.4f} {med_b:12.4f} {worse:+8.1%} "
              f"{spreads[0]:9.1%} {spreads[1]:9.1%} {min(a + b):12.4f} {max(a + b):12.4f} {shown:>7}")
        if workload not in gated:
            continue
        if name != "setup_s" and max(spreads) > bound:
            bad.append(f"{workload} {name}: spread {max(spreads):.1%} exceeds the bound {bound:.0%}")
        if worse > bound:
            bad.append(f"{workload} {name}: set B's median is {worse:.1%} worse than set A's")
        if name == "work_per_s":
            for values, med in ((a, med_a), (b, med_b)):
                off = max(abs(v - med) / med for v in values)
                if off > bound:
                    bad.append(f"{workload} {name}: a single run is {off:.1%} off its set's median")
if failed_checks:
    bad.append(f"{failed_checks} failed checks")
for line in bad:
    print("FAIL", line)
sys.exit(1 if bad else 0)
EOF
