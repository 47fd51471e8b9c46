package adm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/constraint"
	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/trace"
)

// The facade test: a downstream user's whole workflow through the
// public API only — components, ADL, rules, monitors, the declarative
// System, the Go! model, the SQL engine and the experiment runners.

func TestFacadeComponentWorkflow(t *testing.T) {
	asm := NewAssembly(NewTraceLog(), nil)
	cache := NewComponent("cache").Provide("get", "cache",
		func(req Request) (any, error) { return "hit:" + req.Op, nil })
	app := NewComponent("app").Require("cache", "cache")
	if err := asm.Add(cache); err != nil {
		t.Fatal(err)
	}
	if err := asm.Add(app); err != nil {
		t.Fatal(err)
	}
	if err := asm.Bind("app", "cache", "cache", "get"); err != nil {
		t.Fatal(err)
	}
	if err := asm.StartAll(); err != nil {
		t.Fatal(err)
	}
	out, err := asm.Call("app", "cache", Request{Op: "k1"})
	if err != nil || out != "hit:k1" {
		t.Fatalf("%v %v", out, err)
	}
}

func TestFacadeADLAndConstraints(t *testing.T) {
	model, err := ParseADL(Figure4ADL)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.ModeNames()) != 2 {
		t.Fatalf("modes = %v", model.ModeNames())
	}
	rule, err := ParseConstraint("If processor-util > 90% then SWITCH(a.x, b.x)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rule.String(), "SWITCH") {
		t.Fatalf("rule = %s", rule)
	}
	reg := NewRegistry()
	reg.Publish(Sample{Key: monitor.Key{Metric: "processor-util"}, Value: 95})
	reg.Publish(Sample{Key: monitor.Key{Metric: "capacity", Source: "a"}, Value: 10})
	reg.Publish(Sample{Key: monitor.Key{Metric: "load", Source: "a"}, Value: 1})
	reg.Publish(Sample{Key: monitor.Key{Metric: "capacity", Source: "b"}, Value: 10})
	reg.Publish(Sample{Key: monitor.Key{Metric: "load", Source: "b"}, Value: 9})
	d, err := rule.Eval(&ConstraintContext{Env: reg})
	if err != nil {
		t.Fatal(err)
	}
	if d.Target.Node() != "a" {
		t.Fatalf("decision = %v", d)
	}
}

func TestFacadeDeclarativeSystem(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		ADL:         Figure4ADL,
		InitialMode: "docked",
		Rules: []SystemRule{
			{ID: 1, Source: "If bandwidth < 1000 then wireless.mode", Action: ActionSwitchMode},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.PublishMetric("bandwidth", "", 200)
	if sys.Mode() != "wireless" {
		t.Fatalf("mode = %s", sys.Mode())
	}
}

func TestFacadeGoSystemAndTable1(t *testing.T) {
	sys := NewGoSystem(32)
	if sys == nil {
		t.Fatal("nil system")
	}
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[3].Cycles != 73 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestFacadeEngineAndResumable(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a INT)")
	e.MustExec("INSERT INTO t VALUES (1), (2), (3)")
	res := e.MustExec("SELECT SUM(a) FROM t")
	if res.Rows[0][0].Float != 6 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
	q, err := NewResumableAgg(e.Catalog(), "t", "a")
	if err != nil {
		t.Fatal(err)
	}
	q.Step(100)
	if got := q.Result().Sum; got != 6 {
		t.Fatalf("resumable sum = %v", got)
	}
}

func TestFacadeTunerAndTestbed(t *testing.T) {
	rule, _ := ParseConstraint("If processor-util > 90 then SWITCH(a.x, b.x)")
	tn, err := NewThresholdTuner(rule, TunerConfig{Base: 90, Max: 95, Step: 2, OscillationWindowMS: 100, CalmWindowMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	tn.ObserveSwitch(0)
	tn.ObserveSwitch(50)
	if tn.Threshold() != 92 {
		t.Fatalf("threshold = %v", tn.Threshold())
	}
	tb := NewTestbed(1)
	if len(tb.Devices) != 3 {
		t.Fatalf("devices = %d", len(tb.Devices))
	}
}

func TestFacadeApplicationsAndExperiments(t *testing.T) {
	crowd, err := RunFlashCrowd(DefaultCrowdConfig(true))
	if err != nil || crowd.Switches < 1 {
		t.Fatalf("%+v %v", crowd, err)
	}
	audio, err := KendraStream(DefaultKendraConfig(true), KendraDropTrace())
	if err != nil || audio.StallRate() > 0.01 {
		t.Fatalf("%+v %v", audio, err)
	}
	ids := ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("experiments = %v", ids)
	}
	rep, err := RunExperiment("mem")
	if err != nil || rep.ID != "mem" {
		t.Fatalf("%v %v", rep, err)
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var ue *UnknownExperimentError
	if _, err := RunExperiment("nope"); !errors.As(err, &ue) || ue.ID != "nope" {
		t.Fatalf("error type: %v", err)
	}
}

func TestFacadeConstraintRuleSetTypes(t *testing.T) {
	// The facade's aliased types interoperate with the internal ones.
	var rs *RuleSet = constraint.NewRuleSet()
	if rs.Len() != 0 {
		t.Fatal("rule set")
	}
	var g Gauge = &EWMA{Alpha: 0.5}
	g.Observe(Sample{Value: 4})
	if g.Value() != 4 {
		t.Fatal("gauge")
	}
}

// TestFacadeDurableEngine drives the crash-safe path end to end
// through the public API: durable DDL/DML, a simulated crash, full
// recovery, and checksum quarantine surfaced via stats and the trace
// log.
func TestFacadeDurableEngine(t *testing.T) {
	wal, data := NewMemDisk(), NewMemDisk()
	db, err := OpenDB(wal, data, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewDurableEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec("CREATE TABLE kv (k INT, v STRING)")
	for i := 0; i < 50; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d')", i, i))
	}
	e.MustExec("CREATE INDEX ON kv (k)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.MustExec("DELETE FROM kv WHERE k = 3")
	if st := db.Stats(); st.WALAppends == 0 || st.Checkpoints != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Crash and recover from disk snapshots.
	db2, err := OpenDB(NewMemDiskFrom(wal.Bytes()), NewMemDiskFrom(data.Bytes()), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewDurableEngine(db2)
	if err != nil {
		t.Fatal(err)
	}
	r := e2.MustExec("SELECT k FROM kv WHERE k = 3")
	if len(r.Rows) != 0 {
		t.Fatal("deleted row resurrected")
	}
	r = e2.MustExec("SELECT k, v FROM kv")
	if len(r.Rows) != 49 {
		t.Fatalf("%d rows after recovery, want 49", len(r.Rows))
	}

	// Corrupt one checkpointed frame: recovery must quarantine it,
	// count it, and surface it in the trace log — never serve it.
	raw := data.Bytes()
	raw[len(raw)-100] ^= 0xFF
	db3, err := OpenDB(NewMemDiskFrom(wal.Bytes()), NewMemDiskFrom(raw), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e3, err := NewDurableEngine(db3)
	if err != nil {
		t.Fatal(err)
	}
	st := db3.Stats()
	if st.Recovery.PagesQuarantined != 1 || st.Buffer.ChecksumFailures != 1 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if n := e3.Trace().Count(trace.KindCorruption); n != 1 {
		t.Fatalf("trace corruption events = %d, want 1", n)
	}
	if _, err := e3.Exec("SELECT k, v FROM kv"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("scan over quarantined page: %v", err)
	}
}
