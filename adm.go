// Package adm is an adaptive data management toolkit: a full working
// realisation of the architecture sketched in Julie A. McCann's CIDR
// 2003 paper "The Database Machine: Old Story, New Slant?".
//
// The paper argues that for ubiquitous computing the DBMS and the OS
// must dissolve into one open set of fine-grained components —
// schedulers, buffer managers, optimisers, device drivers — glued by
// monitors, constraint rules and adaptivity managers, so that "at
// that instant the system becomes effectively a Database Machine".
// This module builds that whole stack in pure-stdlib Go:
//
//   - adm.Component / adm.Assembly — the fine-grained component model
//     with concrete runtime boundaries, typed ports and rebinding;
//   - adm.ParseADL — a Darwin-style ADL with `when` modes, validation,
//     and Diff for computing unbind/rebind plans (Figures 4–5);
//   - adm.ParseConstraint — the Table 2 rule language (`Select
//     BEST(...)`, `If processor-util > 90% then SWITCH(...)`, banded
//     bandwidth rules) evaluated against live gauges;
//   - adm.NewRegistry — monitors and gauges (EWMA, windows, trend);
//   - adm.NewSessionManager / adm.NewAdaptivityManager — the Figure 1
//     loop: constraint checking, alternative-plan design, transactional
//     unbind/rebind with rollback, and State-Manager-backed migration;
//   - adm.NewGoSystem — the Go! zero-kernel OS model: SISR load-time
//     code scanning, segment-protected components, and the ORB whose
//     null RPC costs 73 simulated cycles (Table 1);
//   - adm.NewEngine — a SQL engine (storage, B-trees, optimiser) with
//     mid-query re-optimisation at safe points (Scenario 3), plus the
//     adaptive operators the paper calls for: symmetric pipelined hash
//     join, XJoin, ripple join and eddies;
//   - adm.RunExperiment — regenerates every table and figure.
//
// See examples/ for runnable walk-throughs and DESIGN.md for the
// system inventory.
package adm

import (
	"github.com/adm-project/adm/internal/adapt"
	"github.com/adm-project/adm/internal/adl"
	"github.com/adm-project/adm/internal/component"
	"github.com/adm-project/adm/internal/constraint"
	"github.com/adm-project/adm/internal/core"
	"github.com/adm-project/adm/internal/datacomp"
	"github.com/adm-project/adm/internal/device"
	"github.com/adm-project/adm/internal/experiments"
	"github.com/adm-project/adm/internal/fault"
	"github.com/adm-project/adm/internal/goos"
	"github.com/adm-project/adm/internal/kendra"
	"github.com/adm-project/adm/internal/learn"
	"github.com/adm-project/adm/internal/lint"
	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/patia"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/simnet"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
	"github.com/adm-project/adm/internal/xmlstream"
)

// Component model.
type (
	// Component is a fine-grained runtime component with provided and
	// required ports.
	Component = component.Component
	// Assembly is a running configuration of components and bindings.
	Assembly = component.Assembly
	// Request is one inter-component invocation.
	Request = component.Request
	// Service is a port's service type.
	Service = component.Service
	// Stateful is implemented by components with migratable state.
	Stateful = component.Stateful
)

// NewComponent constructs a component in the Loaded state.
func NewComponent(name string) *Component { return component.New(name) }

// NewAssembly constructs an empty assembly; log and clock may be nil.
func NewAssembly(log *TraceLog, clock func() float64) *Assembly {
	return component.NewAssembly(log, clock)
}

// Architecture description language.
type (
	// ADLModel is a parsed Darwin-style architecture description.
	ADLModel = adl.Model
	// ADLPlan is a reconfiguration plan produced by ADLModel.Diff.
	ADLPlan = adl.Plan
)

// ParseADL compiles ADL source (see adl.Figure4 for the grammar by
// example).
func ParseADL(src string) (*ADLModel, error) { return adl.Parse(src) }

// Figure4ADL is the paper's Figure 4/5 mobile-CBMS description.
const Figure4ADL = adl.Figure4

// Constraint language.
type (
	// Rule is a parsed adaptability constraint.
	Rule = constraint.Rule
	// RuleSet is a prioritised collection of rules.
	RuleSet = constraint.RuleSet
	// Decision is a rule evaluation outcome.
	Decision = constraint.Decision
	// ConstraintContext is the evaluation context for rules.
	ConstraintContext = constraint.Context
)

// ParseConstraint compiles one Table 2-style rule.
func ParseConstraint(src string) (*Rule, error) { return constraint.Parse(src) }

// Monitors and gauges.
type (
	// Registry routes monitor samples to gauges and answers metric
	// queries (it is the constraint-evaluation environment).
	Registry = monitor.Registry
	// Sample is one raw monitor reading.
	Sample = monitor.Sample
	// Gauge aggregates raw samples.
	Gauge = monitor.Gauge
	// EWMA is an exponentially weighted moving-average gauge.
	EWMA = monitor.EWMA
	// Trend is a least-squares slope gauge (flash-crowd detection).
	Trend = monitor.Trend
)

// NewRegistry returns an empty monitor registry.
func NewRegistry() *Registry { return monitor.NewRegistry() }

// Adaptivity machinery.
type (
	// AdaptivityManager applies reconfiguration plans transactionally.
	AdaptivityManager = adapt.Manager
	// StateManager captures and restores component execution state.
	StateManager = adapt.StateManager
	// SessionManager watches gauges, checks constraints and triggers
	// adaptations.
	SessionManager = session.Manager
	// ModeController switches an assembly between ADL modes.
	ModeController = session.ModeController
	// Factory builds components for plan-started instances.
	Factory = adapt.Factory
)

// NewAdaptivityManager builds an adaptivity manager over an assembly.
func NewAdaptivityManager(asm *Assembly, log *TraceLog, clock func() float64) *AdaptivityManager {
	return adapt.NewManager(asm, log, clock)
}

// NewSessionManager builds a session manager over a registry and rule
// set; handler executes fired decisions.
func NewSessionManager(name string, reg *Registry, rules *RuleSet,
	log *TraceLog, clock func() float64, handler session.DecisionHandler) *SessionManager {
	return session.New(name, reg, rules, log, clock, handler)
}

// NewModeController builds a controller applying ADL mode switches.
func NewModeController(model *ADLModel, am *AdaptivityManager, f Factory,
	mode string, log *TraceLog, clock func() float64) *ModeController {
	return session.NewModeController(model, am, f, mode, log, clock)
}

// TypeFactory derives a component factory from an ADL model.
func TypeFactory(model *ADLModel, impl func(typeName, port string) component.Handler) Factory {
	return adapt.TypeFactory(model, impl)
}

// Instantiate boots an assembly into an ADL mode's configuration.
func Instantiate(asm *Assembly, model *ADLModel, mode string, f Factory) error {
	return adapt.Instantiate(asm, model, mode, f)
}

// Static verification (internal/lint): the load-time analyzer
// families behind cmd/admlint, re-exported so embedders can validate
// architectures, rule sets and component images before Instantiate
// or LoadType — the paper's "evaluated before it runs" contract.
type (
	// Diagnostic is one positioned static-analysis finding.
	Diagnostic = lint.Diagnostic
	// DiagnosticSeverity grades a Diagnostic.
	DiagnosticSeverity = lint.Severity
	// MetricVocabulary declares the monitor metrics (units, ranges)
	// constraint rules are type-checked against.
	MetricVocabulary = lint.Vocabulary
	// MetricInfo is one MetricVocabulary entry.
	MetricInfo = lint.MetricInfo
)

// Diagnostic severities.
const (
	SeverityError   = lint.SeverityError
	SeverityWarning = lint.SeverityWarning
	SeverityInfo    = lint.SeverityInfo
)

// LintADL runs the configuration-graph checks over a parsed model:
// dangling bind endpoints, never-bound instances, duplicate modes,
// per-mode interface compatibility. file names the source in the
// diagnostics ("" is fine for in-memory models).
func LintADL(file string, m *ADLModel) []Diagnostic { return lint.AnalyzeADL(file, m) }

// LintRuleSet runs the constraint-rule static analysis (vocabulary
// type-check, interval folding, shadowing) over a rule set. A nil
// vocabulary means DefaultMetricVocabulary.
func LintRuleSet(name string, rs *RuleSet, vocab MetricVocabulary) []Diagnostic {
	return lint.AnalyzeRuleSet(name, rs.Rules(), vocab)
}

// LintListing parses an assembly listing and runs the SISR
// control-flow analysis: privileged opcodes, branch/call targets in
// segment, indirect branches, unreachable code.
func LintListing(file, src string) []Diagnostic {
	l, diags := goos.ParseListing(file, src)
	return append(diags, goos.AnalyzeListing(l)...)
}

// DefaultMetricVocabulary returns the well-known monitor metrics with
// their units and ranges.
func DefaultMetricVocabulary() MetricVocabulary { return lint.DefaultVocabulary() }

// Go! operating system model.
type (
	// GoSystem is a Go! zero-kernel image (SISR + ORB).
	GoSystem = goos.System
	// ORB is the privileged broker performing protected RPC.
	ORB = goos.ORB
)

// NewGoSystem boots a Go! image with the given GDT capacity.
func NewGoSystem(gdtSlots int) *GoSystem { return goos.NewSystem(gdtSlots) }

// Table1 reruns the paper's Table 1 RPC comparison.
func Table1() ([]goos.Table1Row, error) { return goos.Table1() }

// Query engine.
type (
	// Engine executes SQL over the storage substrate.
	Engine = query.Engine
	// QueryCatalog owns tables, indexes and statistics.
	QueryCatalog = query.Catalog
	// QueryResult is a statement outcome.
	QueryResult = query.Result
	// AdaptiveConfig tunes mid-query re-optimisation.
	AdaptiveConfig = query.AdaptiveConfig
	// ExecOptions tunes Engine.ExecuteStmt: workers, batch size,
	// adaptation, transaction, cancel hook, memory budget.
	ExecOptions = query.ExecOptions
	// ExecReport describes how a statement ran.
	ExecReport = query.ExecReport
	// Tuple is a row of typed values.
	Tuple = storage.Tuple
	// Value is one typed field.
	Value = storage.Value
)

// NewEngine builds a SQL engine over a fresh in-memory DB (WAL and
// page file on MemDisks, SyncManual): the storage NewDurableEngine runs
// over, minus the caller's disks. Every statement runs in a
// transaction — Exec autocommits.
func NewEngine() *Engine {
	return query.NewEngine(query.NewCatalog(), trace.New(), nil)
}

// Crash-safe storage: WAL + redo recovery + checksummed page file,
// with deterministic fault injection for recovery testing.
type (
	// DB is a crash-safe storage instance (WAL + checksummed page
	// file); reopening its disks after any crash rebuilds
	// byte-identical state.
	DB = storage.DB
	// DBOptions configures OpenDB.
	DBOptions = storage.DBOptions
	// DBStats is the durability layer's counter snapshot (WAL
	// barriers, checkpoints, recovery work, checksum failures and
	// quarantined pages).
	DBStats = storage.DBStats
	// RecoveryStats describes what a redo pass did.
	RecoveryStats = storage.RecoveryStats
	// DiskFile is the pluggable byte-addressed disk abstraction the
	// WAL and page file run over.
	DiskFile = storage.DiskFile
	// MemDisk is an in-memory DiskFile (tests, crash simulation).
	MemDisk = storage.MemDisk
	// FaultDisk wraps a DiskFile with seeded crash points, torn
	// writes and injected I/O errors.
	FaultDisk = fault.Disk
	// FaultRand is the deterministic generator used to derive fault
	// schedules from a seed.
	FaultRand = fault.Rand
	// Txn is one snapshot-isolation transaction: lock-free snapshot
	// reads, first-committer-wins writes, commit through the
	// group-commit WAL path.
	Txn = storage.Txn
	// TxnManager issues transactions over one DB; its timestamp clock
	// is the WAL LSN sequence.
	TxnManager = storage.TxnManager
	// TxnStats counts group-commit activity (groups, batched commits,
	// aborts).
	TxnStats = storage.TxnStats
	// DBSession is a client's transactional connection: BEGIN / COMMIT
	// / ROLLBACK as SQL, the engine's autocommit otherwise.
	DBSession = session.DBSession
	// SyncPolicy controls where the WAL places fsync barriers.
	SyncPolicy = storage.SyncPolicy
)

// WAL sync policies for DBOptions.Sync.
const (
	// SyncEveryRecord makes every WAL append its own fsync barrier.
	SyncEveryRecord = storage.SyncEveryRecord
	// SyncManual batches: commits place one barrier per group-commit
	// batch, checkpoints place their own.
	SyncManual = storage.SyncManual
)

// Storage-integrity sentinel errors, re-exported for errors.Is.
var (
	// ErrChecksum reports a page frame whose CRC does not match.
	ErrChecksum = storage.ErrChecksum
	// ErrQuarantined reports access to a page quarantined after a
	// checksum failure.
	ErrQuarantined = storage.ErrQuarantined
	// ErrDBFailed reports the sticky failure state after a WAL append
	// error; the DB refuses writes it could not make durable.
	ErrDBFailed = storage.ErrDBFailed
	// ErrDiskCrashed reports I/O against a FaultDisk past its crash
	// point.
	ErrDiskCrashed = fault.ErrCrashed
	// ErrFaultInjected reports a one-shot injected I/O error.
	ErrFaultInjected = fault.ErrInjected
	// ErrWriteConflict reports a first-committer-wins write-write
	// conflict; the losing transaction must roll back.
	ErrWriteConflict = storage.ErrWriteConflict
	// ErrTxnDone reports use of a committed or rolled-back transaction.
	ErrTxnDone = storage.ErrTxnDone
)

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return storage.NewMemDisk() }

// NewMemDiskFrom returns an in-memory disk seeded with a snapshot
// (crash simulation: pair it with another disk's Bytes()).
func NewMemDiskFrom(data []byte) *MemDisk { return storage.NewMemDiskFrom(data) }

// WrapFaulty wraps a disk with the deterministic fault injector.
func WrapFaulty(inner DiskFile) *FaultDisk { return fault.Wrap(inner) }

// NewFaultRand returns the seeded generator fault schedules derive
// from (splitmix64; identical seeds yield identical schedules).
func NewFaultRand(seed uint64) *FaultRand { return fault.NewRand(seed) }

// OpenDB opens (or recovers) a crash-safe DB over a WAL disk and a
// page-file disk.
func OpenDB(walDisk, dataDisk DiskFile, opts DBOptions) (*DB, error) {
	return storage.Open(walDisk, dataDisk, opts)
}

// NewDBSession opens a transactional session over an engine and the
// DB backing it (pass the same db given to NewDurableEngine). Each
// session is an independent transaction stream; any number can run
// concurrently, and their commits batch through the group-commit WAL
// path.
func NewDBSession(eng *Engine, db *DB) *DBSession {
	return session.NewDBSession(eng, db)
}

// NewDurableEngine builds a SQL engine whose catalog rides db's redo
// log: tables, rows and index definitions survive crashes, and
// NewDurableEngine over the reopened disks restores them. Quarantined
// pages are reported into the engine's trace log as corruption
// events.
func NewDurableEngine(db *DB) (*Engine, error) {
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return nil, err
	}
	log := trace.New()
	corrupt := log.Span("storage.db")
	db.SetCorruptionHook(func(id storage.PageID, err error) {
		corrupt.Emit(0, trace.KindCorruption, "page %d quarantined: %v", id, err)
	})
	// Recovery ran before the hook existed; surface its quarantines too.
	for _, id := range db.Buffer().Quarantined() {
		corrupt.Emit(0, trace.KindCorruption, "page %d quarantined during recovery", id)
	}
	return query.NewEngine(cat, log, nil), nil
}

// Data components, devices, network, streams, applications.
type (
	// DataComponent is the Figure 2 structure: data + metadata +
	// rules + version list.
	DataComponent = datacomp.Component
	// Device models a sensor/PDA/laptop/server unit.
	Device = device.Device
	// Testbed is the Figure 3 sensor–Laptop–PDA system.
	Testbed = device.Testbed
	// Network is the discrete-event network simulator.
	Network = simnet.Network
	// Clock is the shared discrete-event clock.
	Clock = simnet.Clock
	// Streamer cuts sensor readings into safe-pointed XML chunks.
	Streamer = xmlstream.Streamer
	// PatiaSystem is the adaptive webserver deployment.
	PatiaSystem = patia.System
	// KendraConfig parameterises an adaptive audio session.
	KendraConfig = kendra.Config
	// TraceLog is the structured adaptation-event log.
	TraceLog = trace.Log
)

// NewTestbed builds the Figure 3 topology with a fixed RNG seed.
func NewTestbed(seed int64) *Testbed { return device.NewTestbed(seed) }

// NewClock returns a discrete-event clock at time zero.
func NewClock() *Clock { return simnet.NewClock() }

// NewTraceLog returns an empty adaptation-event log.
func NewTraceLog() *TraceLog { return trace.New() }

// Declarative whole-system assembly (internal/core) and the
// self-learning extension (internal/learn).

type (
	// System is the §3 architecture as one object: assembly + ADL
	// modes + gauges + rules + session + adaptivity managers.
	System = core.System
	// SystemConfig declares a System.
	SystemConfig = core.Config
	// SystemRule declares one switching rule and its action.
	SystemRule = core.RuleSpec
	// ThresholdTuner learns a switching rule's threshold from
	// adaptation outcomes (§6 extension).
	ThresholdTuner = learn.Tuner
	// TunerConfig calibrates a ThresholdTuner.
	TunerConfig = learn.Config
	// ResumableAgg is a checkpointable aggregation query that can
	// jump to another device's replica after a failure (§1). A Step
	// is page-granular: it consumes whole pages until it has consumed
	// at least the rows asked for, so Position may pass them.
	ResumableAgg = query.ResumableAgg
)

// Rule action kinds for SystemRule.
const (
	ActionSwitchMode = core.ActionSwitchMode
	ActionRebind     = core.ActionRebind
	ActionCustom     = core.ActionCustom
)

// NewSystem builds a declarative adaptive system.
func NewSystem(cfg SystemConfig) (*System, error) { return core.New(cfg) }

// NewThresholdTuner attaches a tuner to a threshold rule.
func NewThresholdTuner(rule *Rule, cfg TunerConfig) (*ThresholdTuner, error) {
	return learn.NewTuner(rule, cfg)
}

// NewResumableAgg starts a checkpointable aggregation over cat's
// table/column.
func NewResumableAgg(cat *QueryCatalog, table, col string) (*ResumableAgg, error) {
	return query.NewResumableAgg(cat, table, col, nil)
}

// Application runners.

type (
	// CrowdConfig parameterises a Patia flash-crowd run.
	CrowdConfig = patia.CrowdConfig
	// CrowdResult summarises one.
	CrowdResult = patia.CrowdResult
	// KendraResult summarises an audio session.
	KendraResult = kendra.Result
	// BandwidthPoint is one step of a bandwidth trace.
	BandwidthPoint = kendra.BandwidthPoint
)

// DefaultCrowdConfig returns the Table 2 flash-crowd schedule.
func DefaultCrowdConfig(adaptive bool) CrowdConfig { return patia.DefaultCrowdConfig(adaptive) }

// RunFlashCrowd executes the Patia flash-crowd experiment.
func RunFlashCrowd(cfg CrowdConfig) (*CrowdResult, error) { return patia.RunFlashCrowd(cfg) }

// DefaultKendraConfig returns a 30s audio session configuration.
func DefaultKendraConfig(adaptive bool) KendraConfig { return kendra.DefaultConfig(adaptive) }

// KendraStream runs one audio session against a bandwidth trace.
func KendraStream(cfg KendraConfig, bw []BandwidthPoint) (*KendraResult, error) {
	return kendra.Stream(cfg, bw)
}

// KendraDropTrace is the standard drop-and-recover bandwidth trace.
func KendraDropTrace() []BandwidthPoint { return kendra.DropTrace() }

// Experiments.

// ExperimentReport is one regenerated table/figure.
type ExperimentReport = experiments.Report

// RunExperiment regenerates a paper table/figure by id (table1, mem,
// figure1, figure5, figure6, scenario1..3, table2, joins, ripple,
// kendra, ablation-*).
func RunExperiment(id string) (*ExperimentReport, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return r.Run()
}

// ExperimentIDs lists the available experiment ids in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, r := range experiments.All() {
		out = append(out, r.ID)
	}
	return out
}

// UnknownExperimentError names a bad experiment id.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "adm: unknown experiment " + e.ID
}
