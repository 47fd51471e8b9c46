package query

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/adm-project/adm/internal/adapt"
	"github.com/adm-project/adm/internal/component"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// replicaEngines builds two engines with identical table contents
// (the replicated data components of §1) and one with divergent
// contents.
func replicaEngines(t *testing.T, rows int) (a, b, diverged *Engine) {
	if t != nil {
		t.Helper()
	}
	mk := func(tweak bool) *Engine {
		e := NewEngine(NewCatalog(), trace.New(), nil)
		e.MustExec("CREATE TABLE m (k INT, v FLOAT)")
		for i := 0; i < rows; i++ {
			v := float64(i % 50)
			if tweak && i == rows/3 {
				v = 999 // the divergent replica disagrees on one row
			}
			e.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %g)", i, v))
		}
		return e
	}
	return mk(false), mk(false), mk(true)
}

func TestResumableAggCompletesLikeSQL(t *testing.T) {
	e, _, _ := replicaEngines(t, 500)
	q, err := NewResumableAgg(e.Catalog(), "m", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	for !q.Done() {
		q.Step(37)
	}
	res := q.Result()
	want := e.MustExec("SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM m").Rows[0]
	if res.Count != want[0].Int || res.Sum != want[1].Float ||
		res.Avg != want[2].Float || res.Min != want[3].Float || res.Max != want[4].Float {
		t.Fatalf("resumable %+v vs sql %v", res, want)
	}
}

func TestResumableAggWithPredicate(t *testing.T) {
	e, _, _ := replicaEngines(t, 300)
	where := []Pred{{Col: ColRef{Col: "k"}, Op: OpLT, Lit: storage.IntValue(100)}}
	q, err := NewResumableAgg(e.Catalog(), "m", "v", where)
	if err != nil {
		t.Fatal(err)
	}
	q.Step(1 << 30)
	want := e.MustExec("SELECT COUNT(*), SUM(v) FROM m WHERE k < 100").Rows[0]
	res := q.Result()
	if res.Count != want[0].Int || res.Sum != want[1].Float {
		t.Fatalf("res %+v vs %v", res, want)
	}
}

func TestResumableAggErrors(t *testing.T) {
	e, _, _ := replicaEngines(t, 10)
	if _, err := NewResumableAgg(e.Catalog(), "nope", "v", nil); err == nil {
		t.Fatal("unknown table")
	}
	if _, err := NewResumableAgg(e.Catalog(), "m", "zz", nil); err == nil {
		t.Fatal("unknown column")
	}
}

func TestQueryJumpsToAnotherDevice(t *testing.T) {
	// The §1 story: device A dies at 40% of the scan; the State
	// Manager's last safe-point snapshot restores onto device B's
	// replica and the query finishes with the exact answer.
	devA, devB, _ := replicaEngines(t, 1000)
	qa, err := NewResumableAgg(devA.Catalog(), "m", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sm := adapt.NewStateManager(nil, nil)
	checkpointEvery := 64
	for qa.Position() < 400 {
		qa.Step(checkpointEvery)
		if err := sm.Capture("query-42", qa); err != nil {
			t.Fatal(err)
		}
	}
	// Device A dies here. Resume on B from the last snapshot.
	qb, err := NewResumableAgg(devB.Catalog(), "m", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Restore("query-42", qb); err != nil {
		t.Fatal(err)
	}
	if qb.Position() != qa.Position() {
		t.Fatalf("resume position %d != %d", qb.Position(), qa.Position())
	}
	for !qb.Done() {
		qb.Step(128)
	}
	want := devB.MustExec("SELECT COUNT(*), SUM(v) FROM m").Rows[0]
	res := qb.Result()
	if res.Count != want[0].Int || res.Sum != want[1].Float {
		t.Fatalf("migrated result %+v vs %v", res, want)
	}
}

func TestRestoreRejectsDivergentReplica(t *testing.T) {
	devA, _, devBad := replicaEngines(t, 900)
	qa, _ := NewResumableAgg(devA.Catalog(), "m", "v", nil)
	qa.Step(600) // past the divergent row at 300
	snap, err := qa.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	qb, _ := NewResumableAgg(devBad.Catalog(), "m", "v", nil)
	err = qb.RestoreState(snap)
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("divergent replica accepted: %v", err)
	}
}

func TestRestoreRejectsWrongShape(t *testing.T) {
	devA, devB, _ := replicaEngines(t, 50)
	qa, _ := NewResumableAgg(devA.Catalog(), "m", "v", nil)
	qa.Step(10)
	snap, _ := qa.CaptureState()

	// Wrong table.
	devB.MustExec("CREATE TABLE other (k INT, v FLOAT)")
	devB.MustExec("INSERT INTO other VALUES (1, 1.0)")
	qOther, _ := NewResumableAgg(devB.Catalog(), "other", "v", nil)
	if err := qOther.RestoreState(snap); err == nil {
		t.Fatal("wrong table accepted")
	}
	// Wrong column.
	qK, _ := NewResumableAgg(devB.Catalog(), "m", "k", nil)
	if err := qK.RestoreState(snap); err == nil {
		t.Fatal("wrong column accepted")
	}
	// Garbage bytes.
	qb, _ := NewResumableAgg(devB.Catalog(), "m", "v", nil)
	if err := qb.RestoreState([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Snapshot beyond replica size.
	small := NewEngine(NewCatalog(), nil, nil)
	small.MustExec("CREATE TABLE m (k INT, v FLOAT)")
	small.MustExec("INSERT INTO m VALUES (0, 0.0)")
	qs, _ := NewResumableAgg(small.Catalog(), "m", "v", nil)
	if err := qs.RestoreState(snap); err == nil {
		t.Fatal("oversized snapshot accepted")
	}
}

func TestResumableAggIsStateful(t *testing.T) {
	// It must satisfy the component.Stateful contract so the State
	// Manager and Migrate can move it.
	var _ component.Stateful = (*ResumableAgg)(nil)
}

// Property: for any split point, capture-at-k + restore + finish
// equals the uninterrupted run.
func TestResumeAnywhereProperty(t *testing.T) {
	devA, devB, _ := replicaEngines(nil, 400)
	f := func(cutRaw uint16) bool {
		cut := int(cutRaw) % 401
		qa, err := NewResumableAgg(devA.Catalog(), "m", "v", nil)
		if err != nil {
			return false
		}
		qa.Step(cut)
		snap, err := qa.CaptureState()
		if err != nil {
			return false
		}
		qb, err := NewResumableAgg(devB.Catalog(), "m", "v", nil)
		if err != nil {
			return false
		}
		if err := qb.RestoreState(snap); err != nil {
			return false
		}
		for !qb.Done() {
			qb.Step(97)
		}
		whole, err := NewResumableAgg(devA.Catalog(), "m", "v", nil)
		if err != nil {
			return false
		}
		whole.Step(1 << 30)
		return qb.Result() == whole.Result()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResumeOverNaNAndInfinities: over a FLOAT column holding NaN (the
// first row, and one mid-page), ±Inf and -0, an aggregation captured
// at any of three cut points, restored on a replica and finished there
// equals the uninterrupted run bit for bit, and both equal SQL's
// COUNT(v), SUM(v), MIN(v) and MAX(v). A checkpoint that carried its
// sums as JSON numbers could not be taken once a NaN had been folded.
func TestResumeOverNaNAndInfinities(t *testing.T) {
	special := map[int]float64{0: math.NaN(), 57: math.NaN(), 200: math.Inf(1), 400: math.Inf(-1), 600: math.Copysign(0, -1)}
	replica := func() *Engine {
		e := NewEngine(NewCatalog(), trace.New(), nil)
		e.MustExec("CREATE TABLE m (k INT, v FLOAT)")
		var rows []storage.Tuple
		for i := 0; i < 1000; i++ {
			v, ok := special[i]
			if !ok {
				v = float64(i%50) + 0.5
			}
			rows = append(rows, storage.Tuple{storage.IntValue(int64(i)), storage.FloatValue(v)})
		}
		loadRows(t, e.cat, "m", rows...)
		return e
	}
	devA, devB := replica(), replica()
	bits := func(r AggResult) string {
		return fmt.Sprintf("count %d valid %v sum %x avg %x min %x max %x", r.Count, r.Valid, math.Float64bits(r.Sum),
			math.Float64bits(r.Avg), math.Float64bits(r.Min), math.Float64bits(r.Max))
	}
	whole, err := NewResumableAgg(devA.Catalog(), "m", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	whole.Step(1 << 30)
	want := whole.Result()
	sql := devA.MustExec("SELECT COUNT(v), SUM(v), MIN(v), MAX(v) FROM m").Rows[0]
	if want.Count != sql[0].Int || math.Float64bits(want.Sum) != math.Float64bits(sql[1].Float) ||
		math.Float64bits(want.Min) != math.Float64bits(sql[2].Float) || math.Float64bits(want.Max) != math.Float64bits(sql[3].Float) {
		t.Fatalf("resumable %s vs sql %v", bits(want), sql)
	}
	if !math.IsInf(want.Min, -1) || !math.IsNaN(want.Max) {
		t.Fatalf("MIN %v MAX %v, want -Inf and NaN", want.Min, want.Max)
	}
	for _, cut := range []int{1, 300, 700} {
		qa, err := NewResumableAgg(devA.Catalog(), "m", "v", nil)
		if err != nil {
			t.Fatal(err)
		}
		qa.Step(cut)
		snap, err := qa.CaptureState()
		if err != nil {
			t.Fatalf("cut %d: capture: %v", cut, err)
		}
		qb, err := NewResumableAgg(devB.Catalog(), "m", "v", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := qb.RestoreState(snap); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for !qb.Done() {
			qb.Step(97)
		}
		if got := qb.Result(); bits(got) != bits(want) {
			t.Fatalf("cut %d: resumed %s, uninterrupted %s", cut, bits(got), bits(want))
		}
		// A replica with fewer pages than the checkpoint consumed is
		// refused before any page is read.
		small := NewEngine(NewCatalog(), nil, nil)
		small.MustExec("CREATE TABLE m (k INT, v FLOAT)")
		small.MustExec("INSERT INTO m VALUES (0, 0.5)")
		qs, _ := NewResumableAgg(small.Catalog(), "m", "v", nil)
		if err := qs.RestoreState(snap); cut > 1 && (err == nil || !strings.Contains(err.Error(), "beyond")) {
			t.Fatalf("cut %d: a one-page replica took the checkpoint: %v", cut, err)
		}
	}
}
