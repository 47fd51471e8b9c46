#!/usr/bin/env bash
# A/A check: two sets of runs of the same code must agree within the
# bounds BENCHMARK.json fixes. Each set runs every workload N times
# (default 10), each time with another seed, and the two sets alternate
# run by run, as the two sides of a before/after comparison must: the
# host's speed shifts for minutes at a time. For every (workload,
# end-to-end metric) it prints the two medians, how much worse the
# second is than the first, and each set's spread (distance between the
# quartiles over the median, as statistics.quantiles(values, n=4) gives
# them), against the metric's bound. Exits 1 if any pair misses.
#
#   benchmark/aa.sh [N] > benchmark/AA.md
set -euo pipefail

n="${1:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
lines="$here/out/aa.jsonl"
mkdir -p "$here/out"
: > "$lines"

workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

for w in $workloads; do
    for i in $(seq 1 "$n"); do
        for set in A B; do
            seed="$i"
            [ "$set" = B ] && seed=$(( i + n ))
            echo "$w set $set seed $seed" >&2
            out="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" || true
            echo "{\"set\":\"$set\",\"workload\":\"$w\",\"seed\":$seed,\"result\":$out}" >> "$lines"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$lines" "$n" <<'PY'
import json, platform, os, statistics, subprocess, sys

bench = json.load(open(sys.argv[1]))
rows = [json.loads(l) for l in open(sys.argv[2])]
n = int(sys.argv[3])

def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
print("# A/A: two sets of runs of the same code\n")
print(f"Host: {platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}, {go}.")
print(f"Each set: {n} runs per workload, seeds 1..{n} (A) and {n+1}..{2*n} (B), alternating A, B, A, B, ..., "
      f"`--seconds {bench['run_seconds']} --trace 0`.\n")
print("`worse` is how much worse B's median is than A's (negative: better). A pair passes when `worse` "
      "and both spreads are within the bound; `setup_s` has no spread requirement.\n")
print("| workload | metric | median A | median B | worse | spread A | spread B | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
missed = 0
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        name = m["name"]
        sets = {}
        for s in "AB":
            rs = [r["result"] for r in rows if r["set"] == s and r["workload"] == w["name"]]
            if not all(r["correct"] for r in rs):
                print(f"| {w['name']} | {name} | incorrect run in set {s} | | | | | | MISS |")
                missed += 1
            sets[s] = [r["metrics"][name]["value"] for r in rs]
        a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        sa, sb = spread(sets["A"]), spread(sets["B"])
        ok = worse <= m["bound"] and (name == "setup_s" or max(sa, sb) <= m["bound"])
        missed += not ok
        print(f"| {w['name']} | {name} | {a:.6g} | {b:.6g} | {worse:+.1%} | {sa:.1%} | {sb:.1%} | "
              f"{m['bound']:.0%} | {'ok' if ok else 'MISS'} |")
print(f"\n{'All pairs within their bounds.' if not missed else str(missed) + ' pairs missed.'}")
sys.exit(1 if missed else 0)
PY
