#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   formatting   gofmt -l (fails on any unformatted file)
#   analysis     go vet ./...
#   invariants   cmd/admvet — the engine-invariant analyzers (pinpair,
#                batchrelease, latchorder, poisoncheck, morselguard)
#                over the whole module; fails on any diagnostic,
#                including a stale //admvet:allow directive. The
#                per-analyzer negative fixtures must keep producing
#                diagnostics (exit != 0) so a silently broken analyzer
#                cannot green-light the build.
#   build        go build ./... plus an explicit go build of every
#                cmd/* binary (a main package go build ./... only
#                type-checks; this links them)
#   tests        go test -race ./... (the root package's TestLineBudgets
#                holds the non-test line budgets of internal/query +
#                internal/operators and of internal/storage)
#   race matrix  go test -count=1 -race on the parallel-executor
#                packages at GOMAXPROCS=2 and 4 (scheduling diversity
#                beyond the default run); the storage package's run
#                carries the latch-free commit table's stress test
#                (TestSnapshotStress: invariant sums under concurrent
#                writers, committing and rolling back) and the page
#                read DML picks its victims through
#                (TestPageRowsReadOneImage), the query package's the
#                sessions whose keyed claims run beside a sequential
#                UPDATE (TestKeyedClaimsBesideSequentialUpdate)
#   crash matrix the deterministic fault-injection recovery suite
#                (internal/fault) at GOMAXPROCS=2 and 4 under two
#                ADM_FAULT_SEED schedules: crash at every WAL write
#                and sync barrier — including the group-commit
#                barriers, where the leader dies between appending a
#                batch's commit records and the fsync — seeded
#                torn-write tails, injected I/O errors; recovery must
#                come back byte-identical every time with every
#                transaction all-or-nothing
#   conn matrix  the wire-level connection-fault matrix against a live
#                admsqld (internal/server) at GOMAXPROCS=2 and 4 under
#                two ADM_FAULT_SEED schedules: torn frames, mid-result
#                disconnects, stalled readers, deaths in-transaction
#                and mid-group-commit; the leak oracles (open txns,
#                pooled batches, tracked conns, goroutines) must read
#                zero after every schedule
#   wire bench   go vet + go test in benchmark/, the nested module of
#                the admsqld wire benchmark (see its README), which
#                go build ./... and go test ./... at the root do not
#                compile: an engine API change that breaks it fails
#                here, not in the perf pipeline.
#   lint         admlint over every checked-in ADL model, rule file and
#                assembly listing; the negative fixtures must keep
#                producing diagnostics (exit != 0), the clean ones none.
#   bench smoke  cmd/admbench -bench on a small fixed workload: ratios
#                against a same-run witness, and exact counts; see
#                internal/experiments/gates.go. Throughput itself is
#                the wire benchmark's, paired against the parent commit.
#   alloc gate   go test -benchmem allocs/op and B/op (counts: they
#                repeat on any host) against the *_BUDGET constants.
#
# Every step prints its elapsed time when the next one starts; on any
# failure the last line on stderr is "FAILED: <step>" so the culprit
# is readable without scrolling.
#
# ADM_CI_QUICK=1 skips the race, crash and connection-fault matrices
# (the three multi-schedule re-runs) for fast local iteration. CI runs
# the full script.
set -eu

# Allocations per full batched heap-file scan (steady state is 0: the
# page-list snapshot aliases the file's own list; it was 1 while it was
# copied; headroom for pool warm-up noise). The snapshot scan opens per
# op and adds the transaction, its view, the scan and its release
# closure: per scan, never per row version. 5 → 4 once the view holds
# its transaction instead of a visibility closure.
SCAN_ALLOC_BUDGET=8
# Budgets for ORDER BY ... LIMIT 10 over 100k rows at 4 workers.
# Measured ~30 allocs / ~3.4 KB per op: per-worker heaps, batch pool
# noise and the final k-row merge. The byte budget is the real
# non-materialisation gate — 100k tuples would be megabytes.
TOPK_ALLOC_BUDGET=64
TOPK_BYTE_BUDGET=16384
# Budgets for a 12k x 1k join grouped into 10 rows at 2 workers.
# Measured 149,064 B and 340 allocs per op with the flat build table
# (rows stored once, chained by hash), 66,700-67,800 B and 147 with the
# build's scatter buffers pooled across statements and the groups in
# flat slot arrays instead of a map of per-group slices; 68,600 B and
# 153 once the fixture's catalog is a DB (the statement's transaction,
# and a snapshot view and its closure per scanned table); 151-154 →
# 149-152 over a dozen runs each once the view holds its transaction
# and the closure is gone. Earlier: the
# per-key map build table was ~350,582 B and 1,414 allocs; the 12k
# joined rows the probe no longer materialises were ~21 MB.
JOINAGG_BYTE_BUDGET=83968
JOINAGG_ALLOC_BUDGET=184
# Steady-state vectorized filtering of a 1024-row batch (measured 0:
# the selection vector lives on the batch and is reused; headroom for
# the occasional conjunct-reorder copy).
FILTER_ALLOC_BUDGET=2
# Appending 64-byte records to one MemDisk, as the WAL does (measured
# 209 B/op at 20000 appends; doubling capacity bounds it at 4x the
# record). A device that re-allocates itself per append reads its own
# size here: ~640,000.
MEMDISK_APPEND_BYTE_BUDGET=512
# Greedy planning of a 5-table chain, parse excluded (measured 74, every
# run, over a volatile catalog; 84 over a DB, where each of the 5 scans
# binds a snapshot view and its visibility closure; 84 → 79 once the
# view holds its transaction and the closure is gone): a candidate loop
# gone cubic or re-deriving statistics multiplies it.
PLAN_ALLOC_BUDGET=96
# Budgets for one point read through the whole server path — query
# frame, admission, parse, plan, index fetch, encode, flush and the
# client's decode, both ends in one process, at 2 workers. Measured
# 6,488 B and 100 allocs per op before the fixed-cost cuts (a trace
# event per worker per statement, a 2-worker fan-out over a serialised
# index cursor, a token slice grown by doubling, a fresh buffer per
# frame, a timer per statement); 3,170-3,250 B and 47 allocs after, at
# GOMAXPROCS 1, 2 and 4; 47 → 46 (3,140-3,230 B) once the statement's
# view holds its transaction instead of a visibility closure.
POINT_BYTE_BUDGET=3584
POINT_ALLOC_BUDGET=52
# The same for the join-aggregate (the wire benchmark's join_agg at a
# sixth of its size): 48,800-48,900 B and 377-383 allocs per op while
# every build regrew its scatter buffers and groups lived in a map;
# 29,400-30,300 B and 204-205 allocs at GOMAXPROCS 1, 2 and 4 after;
# 204 → 202-203 (29,300-30,500 B) with no visibility closure per view.
JOINAGG_SERVER_BYTE_BUDGET=36864
JOINAGG_SERVER_ALLOC_BUDGET=250

cd "$(dirname "$0")"

CI_STEP="setup"
CI_T0=$(date +%s)
CI_STEP_T0=$CI_T0

# step <name>: close the previous step (printing its elapsed seconds)
# and open the next. The trap below names the in-flight step on any
# non-zero exit.
step() {
    now=$(date +%s)
    echo "   (${CI_STEP}: $((now - CI_STEP_T0))s)"
    CI_STEP="$1"
    CI_STEP_T0=$now
    echo "== $1"
}

trap 'code=$?; if [ "$code" -ne 0 ]; then echo "FAILED: $CI_STEP" >&2; fi' EXIT

echo "== gofmt"
CI_STEP="gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "admvet (engine invariants)"
go run ./cmd/admvet ./...

step "admvet (negative fixtures must fail)"
for a in pinpair batchrelease latchorder poisoncheck morselguard; do
    if go run ./cmd/admvet -analyzers "$a" \
        -dir "internal/analysis/testdata/src/$a" >/dev/null 2>&1; then
        echo "admvet $a produced no diagnostics on its positive fixture" >&2
        exit 1
    fi
done

step "go build"
go build ./...

step "go build (link all cmd binaries)"
bindir=$(mktemp -d)
go build -o "$bindir/" ./cmd/...
rm -rf "$bindir"

step "go test -race"
go test -race ./...

if [ "${ADM_CI_QUICK:-0}" = "1" ]; then
    step "race matrix (skipped: ADM_CI_QUICK=1)"
    step "crash matrix (skipped: ADM_CI_QUICK=1)"
else
    step "race matrix (parallel packages)"
    for gmp in 2 4; do
        echo "   GOMAXPROCS=$gmp"
        GOMAXPROCS=$gmp go test -count=1 -race \
            ./internal/operators/... ./internal/query/... ./internal/storage/...
    done

    step "crash matrix (seeded fault schedules)"
    # The fault-injection recovery suite under two GOMAXPROCS values and
    # two WAL-crash seeds: the default schedule plus one alternate, so a
    # recovery bug that hides behind one torn-write pattern still fails
    # the build. ADM_FAULT_SEED reseeds the torn-write/crash-point
    # schedules in internal/fault's tests (see faultSeed).
    for gmp in 2 4; do
        for seed in 0xADC0FFEE 0x5EED0001; do
            echo "   GOMAXPROCS=$gmp ADM_FAULT_SEED=$seed"
            GOMAXPROCS=$gmp ADM_FAULT_SEED=$seed go test -count=1 -race \
                ./internal/fault/...
        done
    done

    step "connection-fault matrix (server lifecycle)"
    # The wire-level fault matrix against a live admsqld: torn frames,
    # mid-result disconnects, stalled readers hitting the write
    # deadline, sessions dying inside transactions and mid-group-commit.
    # Reseeded like the crash matrix; after every schedule the leak
    # oracles must read zero (open transactions, pooled batches,
    # tracked connections, goroutines).
    for gmp in 2 4; do
        for seed in 0xADC0FFEE 0x5EED0001; do
            echo "   GOMAXPROCS=$gmp ADM_FAULT_SEED=$seed"
            GOMAXPROCS=$gmp ADM_FAULT_SEED=$seed go test -count=1 -race \
                -run 'TestConnectionFaultMatrix' ./internal/server/
        done
    done
fi

step "wire benchmark module (vet + smoke test)"
(cd benchmark && go vet . && go test .)

step "admlint (clean inputs)"
go run ./cmd/admlint \
    cmd/adlc/testdata \
    cmd/admlint/testdata/clean.rules \
    cmd/admlint/testdata/clean.s \
    examples

step "admlint (negative fixtures must fail)"
for f in cmd/admlint/testdata/dangling_bind.adl \
         cmd/admlint/testdata/unsat.rules \
         cmd/admlint/testdata/out_of_segment.s; do
    if go run ./cmd/admlint "$f" >/dev/null 2>&1; then
        echo "admlint passed $f but must reject it" >&2
        exit 1
    fi
done

step "bench smoke (same-run ratio and exact-count gates)"
go run ./cmd/admbench -bench -rows 20000 -workers 1,2,4 -repeats 5

# alloc_gate <bench> <pkg> <benchtime> <allocs|bytes> <budget>...: fail when
# a count on the -benchmem line ("<n> B/op <n> allocs/op") exceeds its budget.
alloc_gate() {
    bench=$1
    step "alloc gate ($bench)"
    out=$(go test -run '^$' -bench "^$bench\$" -benchmem -benchtime "$3" "$2")
    shift 3
    while [ $# -ge 2 ]; do
        col=1
        [ "$1" = bytes ] && col=3
        got=$(echo "$out" | awk -v b="$bench" -v c="$col" '$1 ~ "^"b"(-[0-9]+)?$" { print $(NF-c) }')
        echo "   $bench: ${got:-?} $1/op (budget $2)"
        if [ -z "$got" ] || [ "$got" -gt "$2" ]; then
            printf '%s\n' "ALLOC REGRESSION: $bench over its $1/op budget (or unparsed):" "$out" >&2
            exit 1
        fi
        shift 2
    done
}
alloc_gate BenchmarkBatchHeapScan . 20x allocs "$SCAN_ALLOC_BUDGET"
alloc_gate BenchmarkSnapshotHeapScan . 20x allocs "$SCAN_ALLOC_BUDGET"
alloc_gate BenchmarkTopK . 20x allocs "$TOPK_ALLOC_BUDGET" bytes "$TOPK_BYTE_BUDGET"
alloc_gate BenchmarkJoinAggregate . 20x allocs "$JOINAGG_ALLOC_BUDGET" bytes "$JOINAGG_BYTE_BUDGET"
alloc_gate BenchmarkFilterBatch ./internal/operators 100x allocs "$FILTER_ALLOC_BUDGET"
alloc_gate BenchmarkPlanMultiJoin ./internal/query 1000x allocs "$PLAN_ALLOC_BUDGET"
alloc_gate BenchmarkMemDiskAppend ./internal/storage 20000x bytes "$MEMDISK_APPEND_BYTE_BUDGET"
alloc_gate BenchmarkServerStatement/point ./internal/server 2000x allocs "$POINT_ALLOC_BUDGET" bytes "$POINT_BYTE_BUDGET"
alloc_gate BenchmarkServerStatement/join_agg ./internal/server 2000x allocs "$JOINAGG_SERVER_ALLOC_BUDGET" bytes "$JOINAGG_SERVER_BYTE_BUDGET"

step "done"
echo "ok (total $(( $(date +%s) - CI_T0 ))s)"
