package dbmachine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/trace"
)

func seeded(t *testing.T) *Machine {
	t.Helper()
	m, err := New(trace.New())
	if err != nil {
		t.Fatal(err)
	}
	m.MustExec("CREATE TABLE big (k INT, pad STRING)")
	m.MustExec("CREATE TABLE small (k INT, v INT)")
	for i := 0; i < 1500; i++ {
		m.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d, 'x')", i%50))
	}
	for i := 0; i < 50; i++ {
		m.MustExec(fmt.Sprintf("INSERT INTO small VALUES (%d, %d)", i, i*2))
	}
	m.MustExec("ANALYZE small")
	// Stale statistics on big, as in Scenario 3.
	if err := m.Engine.Catalog().SetStats("big", query.TableStats{
		Rows: 10, Distinct: map[string]int{"k": 10},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

const joinSQL = "SELECT big.k, small.v FROM big JOIN small ON big.k = small.k"

func TestPipelineMatchesDirectEngine(t *testing.T) {
	m := seeded(t)
	viaComponents, _, err := m.Exec("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	direct := m.Engine.MustExec("SELECT COUNT(*) FROM big")
	if viaComponents.Rows[0][0].Int != direct.Rows[0][0].Int {
		t.Fatalf("component path %v vs direct %v", viaComponents.Rows, direct.Rows)
	}
	if m.BoundaryCrossings() == 0 {
		t.Fatal("no component boundaries crossed")
	}
}

func TestEveryStageIsARealComponent(t *testing.T) {
	m := seeded(t)
	if _, _, err := m.Exec("SELECT COUNT(*) FROM small"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{CompParser, CompExecutor, optimiserName("cost")} {
		c, ok := m.Asm.Component(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if c.Calls() == 0 {
			t.Errorf("%s never invoked — not a concrete boundary", name)
		}
	}
	if errs := m.Asm.Validate(); len(errs) != 0 {
		t.Fatalf("invalid machine: %v", errs)
	}
}

func TestOptimiserSwapChangesBehaviourNotResults(t *testing.T) {
	m := seeded(t)
	if m.Optimiser() != "optimiser-cost" {
		t.Fatalf("initial optimiser = %s", m.Optimiser())
	}
	// Under the cost optimiser: no adaptation, stale stats trusted.
	res1, rep1, err := m.Exec(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != nil && rep1.Replanned {
		t.Fatal("cost optimiser must not replan")
	}
	// Swap in the conservative (wireless) optimiser mid-session.
	if err := m.SwapOptimiser("conservative"); err != nil {
		t.Fatal(err)
	}
	if m.Optimiser() != "optimiser-conservative" {
		t.Fatalf("optimiser = %s", m.Optimiser())
	}
	res2, rep2, err := m.Exec(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 == nil || !rep2.Replanned {
		t.Fatalf("conservative optimiser should replan the misestimated join: %+v", rep2)
	}
	// Same answer either way.
	a := canonical(res1)
	b := canonical(res2)
	if len(a) != len(b) {
		t.Fatalf("row counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Swap back.
	if err := m.SwapOptimiser("cost"); err != nil {
		t.Fatal(err)
	}
	_, rep3, err := m.Exec(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if rep3 != nil && rep3.Replanned {
		t.Fatal("cost optimiser replanned after swap-back")
	}
}

func canonical(r *query.Result) []string {
	var out []string
	for _, row := range r.Rows {
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestSwapUnknownOptimiser(t *testing.T) {
	m := seeded(t)
	if err := m.SwapOptimiser("quantum"); err == nil {
		t.Fatal("want error")
	}
	if m.Optimiser() != "optimiser-cost" {
		t.Fatal("binding disturbed by failed swap")
	}
}

func TestQuiesceWindowRejectsCallsCleanly(t *testing.T) {
	m := seeded(t)
	exec, _ := m.Asm.Component(CompExecutor)
	if err := exec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Exec("SELECT COUNT(*) FROM small")
	if err == nil || !strings.Contains(err.Error(), "quiesced") {
		t.Fatalf("mid-quiesce call: %v", err)
	}
	_ = exec.Resume()
	if _, _, err := m.Exec("SELECT COUNT(*) FROM small"); err != nil {
		t.Fatalf("post-resume call: %v", err)
	}
}

func TestExecSyntaxErrorsSurface(t *testing.T) {
	m := seeded(t)
	if _, _, err := m.Exec("SELEKT porkchops"); err == nil {
		t.Fatal("want parse error through the component boundary")
	}
}
