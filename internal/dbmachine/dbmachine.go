// Package dbmachine is the paper's thesis made executable: "there is
// no DBMS or OS in this architecture just components and hardware and
// some 'intelligence'". The query-processing path itself — parser,
// optimiser, executor — runs as fine-grained components with concrete
// boundaries in an Assembly, so the optimiser can be unbound and a
// different one rebound *between queries of the same session*, which
// is exactly the wireless-optimiser swap of Scenario 2 ("the wireless
// optimisor must activate and amend the query plan accordingly").
package dbmachine

import (
	"errors"
	"fmt"

	"github.com/adm-project/adm/internal/component"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/trace"
)

// Strategy is what an optimiser component hands the executor: the
// knobs of the execution engine rather than a full plan tree (the
// engine's planner applies them; the component boundary is what the
// architecture cares about).
type Strategy struct {
	Name string
	// Adaptive enables mid-query re-optimisation.
	Adaptive bool
	// PreferIndex lets a replan link in an index nested-loop join.
	PreferIndex bool
	// Theta is the misestimate trigger ratio.
	Theta float64
	// CheckEvery is the safe-point cadence.
	CheckEvery int
}

// Standard strategies.
var (
	// CostStrategy is the docked optimiser: trust the statistics.
	CostStrategy = Strategy{Name: "cost", Adaptive: false}
	// ConservativeStrategy is the wireless optimiser: bound memory by
	// replanning aggressively and preferring index paths.
	ConservativeStrategy = Strategy{Name: "conservative", Adaptive: true, PreferIndex: true, Theta: 2, CheckEvery: 32}
)

// Machine is a componentised query processor.
type Machine struct {
	Asm    *component.Assembly
	Engine *query.Engine
	log    *trace.Log
}

// Component and port names (public so tests and ADL descriptions can
// refer to them).
const (
	CompFrontend = "frontend"
	CompParser   = "parser"
	CompExecutor = "executor"
	PortParse    = "parse"
	PortExec     = "exec"
	PortPlan     = "plan"
	SvcParse     = component.Service("sql-parse")
	SvcExec      = component.Service("sql-exec")
	SvcPlan      = component.Service("sql-plan")
)

// ErrNotSelect is returned when Query is given DML (use Exec).
var ErrNotSelect = errors.New("dbmachine: not a SELECT")

// New assembles the machine: frontend → parser, frontend → executor,
// executor → optimiser(initial).
func New(log *trace.Log) (*Machine, error) {
	if log == nil {
		log = trace.New()
	}
	eng := query.NewEngine(query.NewCatalog(), log, nil)
	asm := component.NewAssembly(log, nil)
	m := &Machine{Asm: asm, Engine: eng, log: log}

	parser := component.New(CompParser).Provide(PortParse, SvcParse,
		func(req component.Request) (any, error) {
			return query.Parse(req.Op)
		})

	executor := component.New(CompExecutor).
		Require(PortPlan, SvcPlan).
		Provide(PortExec, SvcExec, func(req component.Request) (any, error) {
			stmt := req.Payload.(query.Stmt)
			out, err := asm.Call(CompExecutor, PortPlan, component.Request{Op: "strategy"})
			if err != nil {
				return nil, fmt.Errorf("dbmachine: optimiser unavailable: %w", err)
			}
			strat := out.(Strategy)
			res, rep, err := eng.ExecuteStmt(stmt, query.ExecOptions{Workers: 1, Adaptive: &query.AdaptiveConfig{
				Disabled: !strat.Adaptive, Theta: strat.Theta, CheckEvery: strat.CheckEvery, PreferIndex: strat.PreferIndex,
			}})
			if err != nil {
				return nil, err
			}
			return execOutcome{res: res, rep: &rep.Adaptive, strat: strat}, nil
		})

	frontend := component.New(CompFrontend).
		Require(PortParse, SvcParse).
		Require(PortExec, SvcExec)

	for _, c := range []*component.Component{parser, executor, frontend} {
		if err := asm.Add(c); err != nil {
			return nil, err
		}
	}
	if err := asm.Bind(CompFrontend, PortParse, CompParser, PortParse); err != nil {
		return nil, err
	}
	if err := asm.Bind(CompFrontend, PortExec, CompExecutor, PortExec); err != nil {
		return nil, err
	}
	// Install both optimiser components; bind the cost one initially.
	for _, s := range []Strategy{CostStrategy, ConservativeStrategy} {
		if err := asm.Add(newOptimiser(s)); err != nil {
			return nil, err
		}
	}
	if err := asm.Bind(CompExecutor, PortPlan, optimiserName(CostStrategy.Name), PortPlan); err != nil {
		return nil, err
	}
	if err := asm.StartAll(); err != nil {
		return nil, err
	}
	return m, nil
}

type execOutcome struct {
	res   *query.Result
	rep   *query.AdaptiveReport
	strat Strategy
}

func optimiserName(strategy string) string { return "optimiser-" + strategy }

func newOptimiser(s Strategy) *component.Component {
	strat := s
	return component.New(optimiserName(s.Name)).
		Provide(PortPlan, SvcPlan, func(component.Request) (any, error) {
			return strat, nil
		})
}

// Optimiser reports which optimiser component is currently bound.
func (m *Machine) Optimiser() string {
	if b, ok := m.Asm.BoundTo(CompExecutor, PortPlan); ok {
		return b.ToComp
	}
	return ""
}

// SwapOptimiser rebinds the executor's plan port to another strategy
// component, with the quiesce→rebind→resume discipline: in-flight
// callers see a clean boundary, never a half-switched one.
func (m *Machine) SwapOptimiser(strategy string) error {
	target := optimiserName(strategy)
	if _, ok := m.Asm.Component(target); !ok {
		return fmt.Errorf("dbmachine: unknown optimiser %q", strategy)
	}
	exec, _ := m.Asm.Component(CompExecutor)
	if err := exec.Quiesce(); err != nil {
		return err
	}
	defer func() { _ = exec.Resume() }()
	if err := m.Asm.Unbind(CompExecutor, PortPlan); err != nil {
		return err
	}
	if err := m.Asm.Bind(CompExecutor, PortPlan, target, PortPlan); err != nil {
		return err
	}
	m.log.Emit(0, trace.KindSwitch, "dbmachine", "optimiser -> %s", target)
	return nil
}

// Exec runs one statement through the component pipeline: frontend →
// parser → executor → (bound) optimiser.
func (m *Machine) Exec(sql string) (*query.Result, *query.AdaptiveReport, error) {
	parsed, err := m.Asm.Call(CompFrontend, PortParse, component.Request{Op: sql})
	if err != nil {
		return nil, nil, err
	}
	out, err := m.Asm.Call(CompFrontend, PortExec, component.Request{Op: sql, Payload: parsed})
	if err != nil {
		return nil, nil, err
	}
	oc := out.(execOutcome)
	return oc.res, oc.rep, nil
}

// MustExec panics on error (fixtures).
func (m *Machine) MustExec(sql string) *query.Result {
	res, _, err := m.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", sql, err))
	}
	return res
}

// BoundaryCrossings reports total inter-component calls served — the
// concrete boundaries the paper insists are "present in a running
// system".
func (m *Machine) BoundaryCrossings() uint64 { return m.Asm.CallHops() }
