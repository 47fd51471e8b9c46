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
#                UPDATE (TestKeyedClaimsBesideSequentialUpdate); the
#                server package's, since a streamed scan's morsel
#                workers write the connection's reply themselves; then
#                the aggregate invariance tests (MIN/MAX over NaN and
#                -0 at every worker count, batch size and insert
#                order) five more times at GOMAXPROCS=4, and the page
#                image stress and the zone-summary prune races (writers
#                against vetoing readers) ten more times at GOMAXPROCS=4
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
#   alloc budgets go test -run TestAllocBudgets without -race: each
#                package's benchmark bodies counted (allocs/op, B/op:
#                they repeat on any host) against its budget constants.
#                go test ./... runs them too; the -race runs skip them.
#
# Every step prints its elapsed time when the next one starts; on any
# failure the last line on stderr is "FAILED: <step>" so the culprit
# is readable without scrolling.
#
# ADM_CI_QUICK=1 skips the race, crash and connection-fault matrices
# (the three multi-schedule re-runs) for fast local iteration. CI runs
# the full script.
set -eu

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

step "alloc budgets (go test, no -race)"
go test -count=1 -run '^TestAllocBudgets$' ./...

if [ "${ADM_CI_QUICK:-0}" = "1" ]; then
    step "race matrix (skipped: ADM_CI_QUICK=1)"
    step "crash matrix (skipped: ADM_CI_QUICK=1)"
else
    step "race matrix (parallel packages)"
    for gmp in 2 4; do
        echo "   GOMAXPROCS=$gmp"
        GOMAXPROCS=$gmp go test -count=1 -race \
            ./internal/operators/... ./internal/query/... ./internal/storage/... \
            ./internal/server/...
    done
    # MIN/MAX over NaN once answered by schedule (a NaN that started a
    # worker's partial swallowed the values after it), in about one run
    # in four: repeat the invariance tests where scheduling varies most.
    echo "   GOMAXPROCS=4 -count=5 aggregate invariance"
    GOMAXPROCS=4 go test -count=5 -race \
        -run '^(TestAggregatesInvariantUnderNaN|TestMinMaxAgreeWithOrderBy)$' ./internal/query/
    # A page's zone summary is a field of its decode image, built by the
    # first veto that asks and carried by a writer's derived images:
    # repeat the image stress and the writers-against-vetoing-readers
    # race where scheduling varies most.
    echo "   GOMAXPROCS=4 -count=10 page image and zone summary races"
    GOMAXPROCS=4 go test -count=10 -race \
        -run '^(TestPageImageStress|TestZoneBuildConcurrentWriterNeverStale|TestZoneSummaryPruneSoundnessRandom)$' ./internal/storage/

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

step "done"
echo "ok (total $(( $(date +%s) - CI_T0 ))s)"
