package experiments

import (
	"fmt"

	"github.com/adm-project/adm/internal/adapt"
	"github.com/adm-project/adm/internal/constraint"
	"github.com/adm-project/adm/internal/dbmachine"
	"github.com/adm-project/adm/internal/goos"
	"github.com/adm-project/adm/internal/learn"
	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/trace"
)

// DBMachine regenerates the §6 claim in miniature: the DB function's
// getpage, tailored "down to the metal" through the ORB, against the
// same operation crossing a monolithic kernel's syscall boundary.
func DBMachine() (*Report, error) {
	g, err := goos.MeasureGetPage(100)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "dbmachine", Title: "The Database Machine: getpage via ORB vs syscall (100-page scan)"}
	rep.Add("Go! (ORB RPC)", "73 cycles/getpage", fmt.Sprintf("%d cycles total", g.GoCycles),
		fmt.Sprintf("%d cycles each", g.GoCycles/uint64(g.PagesScanned)))
	rep.Add("monolithic (trap)", "-", fmt.Sprintf("%d cycles total", g.SyscallCycles),
		fmt.Sprintf("%d cycles each", g.SyscallCycles/uint64(g.PagesScanned)))
	rep.Add("overhead ratio", ">1", fmt.Sprintf("%.1fx", g.Ratio()),
		"control transfer only; page processing identical")

	// And the upper half of the claim: the DBMS itself as components,
	// the optimiser swapped mid-session without changing answers.
	m, err := dbmachine.New(trace.New())
	if err != nil {
		return nil, err
	}
	m.MustExec("CREATE TABLE big (k INT)")
	m.MustExec("CREATE TABLE small (k INT)")
	for i := 0; i < 800; i++ {
		m.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d)", i%40))
	}
	for i := 0; i < 40; i++ {
		m.MustExec(fmt.Sprintf("INSERT INTO small VALUES (%d)", i))
	}
	m.MustExec("ANALYZE small")
	if err := m.Engine.Catalog().SetStats("big", query.TableStats{Rows: 8, Distinct: map[string]int{"k": 8}}); err != nil {
		return nil, err
	}
	const sql = "SELECT big.k FROM big JOIN small ON big.k = small.k"
	r1, _, err := m.Exec(sql)
	if err != nil {
		return nil, err
	}
	if err := m.SwapOptimiser("conservative"); err != nil {
		return nil, err
	}
	r2, rep2, err := m.Exec(sql)
	if err != nil {
		return nil, err
	}
	rep.Add("optimiser swap mid-session", "plan amended", fmt.Sprintf("replanned=%v", rep2 != nil && rep2.Replanned),
		"cost -> conservative optimiser component rebound")
	rep.Add("results across swap", "identical", fmt.Sprintf("%v (%d rows)", len(r1.Rows) == len(r2.Rows), len(r2.Rows)),
		fmt.Sprintf("%d component-boundary crossings total", m.BoundaryCrossings()))
	return rep, nil
}

// Failover regenerates §1's "units failing mid way through answering
// a query": an aggregation checkpointed by the State Manager jumps
// from a failed device to a replica and finishes exactly. Device A
// steps one page at a time and captures every captureEvery-th step; it
// dies at the first step past half the table, before that step's
// capture, so the rows since its last capture are lost and B re-reads
// them.
func Failover() (*Report, error) {
	mk := func() (*query.Engine, error) {
		e := query.NewEngine(query.NewCatalog(), trace.New(), nil)
		if _, err := e.Exec("CREATE TABLE m (k INT, v FLOAT)"); err != nil {
			return nil, err
		}
		for i := 0; i < 2000; i++ {
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO m VALUES (%d, %d.5)", i, i%50)); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	devA, err := mk()
	if err != nil {
		return nil, err
	}
	devB, err := mk()
	if err != nil {
		return nil, err
	}
	qa, err := query.NewResumableAgg(devA.Catalog(), "m", "v", nil)
	if err != nil {
		return nil, err
	}
	sm := adapt.NewStateManager(nil, nil)
	const captureEvery = 4
	pageRows := 0
	for step := 1; ; step++ {
		pageRows = max(pageRows, qa.Step(1)) // a step is one whole page
		if qa.Position() >= 1000 {
			break // device A dies
		}
		if step%captureEvery == 0 {
			if err := sm.Capture("q", qa); err != nil {
				return nil, err
			}
		}
	}
	qb, err := query.NewResumableAgg(devB.Catalog(), "m", "v", nil)
	if err != nil {
		return nil, err
	}
	if err := sm.Restore("q", qb); err != nil {
		return nil, err
	}
	failedAt, resumedFrom := qa.Position(), qb.Position()
	for !qb.Done() {
		qb.Step(500)
	}
	exact := devB.MustExec("SELECT SUM(v) FROM m").Rows[0][0].Float
	res := qb.Result()
	rep := &Report{ID: "failover", Title: "Query jumps to another device after mid-query failure (§1)"}
	rep.Add("failure point", "mid-query", fmt.Sprintf("row %d of 2000", failedAt), "")
	rep.Add("resumed from", "last safe point", fmt.Sprintf("row %d", resumedFrom), "")
	rep.Add("checkpoint interval", "-", fmt.Sprintf("%d rows", captureEvery*pageRows),
		fmt.Sprintf("every %d pages, at most", captureEvery))
	rep.Add("work lost", "≤ one interval", fmt.Sprintf("%d rows", failedAt-resumedFrom),
		"re-read by the replica")
	rep.Add("answer exact", "yes", fmt.Sprintf("%v (SUM=%.1f)", res.Sum == exact, res.Sum),
		"replica checksum verified")
	if res.Sum != exact {
		return nil, fmt.Errorf("failover: sum %v != %v", res.Sum, exact)
	}
	return rep, nil
}

// Learning regenerates the §6 extension: the self-tuning threshold
// cuts adaptation thrash on a flapping signal without missing a
// genuine overload.
func Learning() (*Report, error) {
	run := func(learning bool) (switches int, finalThreshold float64, caught bool, err error) {
		rule := constraint.MustParse("If processor-util > 90 then SWITCH(node1.a, node2.a)")
		var tn *learn.Tuner
		finalThreshold = 90
		if learning {
			tn, err = learn.NewTuner(rule, learn.Config{
				Base: 90, Max: 97, Step: 3, OscillationWindowMS: 600, CalmWindowMS: 3000,
			})
			if err != nil {
				return 0, 0, false, err
			}
		}
		reg := monitor.NewRegistry()
		for _, n := range []string{"node1", "node2"} {
			reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricCapacity, Source: n}, Value: 100})
			reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricLoad, Source: n}, Value: 10})
		}
		now := 0.0
		sm := session.New("learning", reg,
			constraint.NewRuleSet(constraint.PrioritisedRule{ID: 1, Rule: rule}),
			nil, func() float64 { return now },
			func(constraint.Decision, *constraint.PrioritisedRule) error {
				switches++
				if tn != nil {
					tn.ObserveSwitch(now)
				}
				return nil
			})
		sm.SetSelf("node1")
		for ; now < 30_000; now += 200 { // flapping phase
			v := 89.0
			if int(now/200)%2 == 0 {
				v = 93
			}
			reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricProcessorUtil, Source: "node1"}, Value: v, TimeMS: now})
			sm.SetCurrent(nil)
			fired, _ := sm.CheckNow()
			if tn != nil && !fired {
				tn.ObserveQuiet(now)
			}
		}
		before := switches
		for ; now < 31_000; now += 200 { // genuine overload
			reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricProcessorUtil, Source: "node1"}, Value: 99, TimeMS: now})
			sm.SetCurrent(nil)
			_, _ = sm.CheckNow()
		}
		caught = switches > before
		if tn != nil {
			finalThreshold = tn.Threshold()
		}
		return switches, finalThreshold, caught, nil
	}
	staticN, _, staticCaught, err := run(false)
	if err != nil {
		return nil, err
	}
	learnedN, thr, learnedCaught, err := run(true)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "learning", Title: "Self-tuning threshold (learning from previous adaptations, §6)"}
	rep.Add("switches on flapping signal", "fewer when learning",
		fmt.Sprintf("%d -> %d", staticN, learnedN), "static -> learned")
	rep.Add("learned threshold", "rises under thrash", fmt.Sprintf("%.0f%%", thr), "base 90%")
	rep.Add("genuine overload caught", "both", fmt.Sprintf("%v / %v", staticCaught, learnedCaught), "")
	if !learnedCaught || learnedN >= staticN {
		return nil, fmt.Errorf("learning experiment inverted: %d vs %d, caught %v", learnedN, staticN, learnedCaught)
	}
	return rep, nil
}
