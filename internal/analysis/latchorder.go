package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Latchorder checks lock acquisitions against the engine's declared
// latch hierarchy — catalog → table → heap file → buffer → page →
// db → WAL — flagging (a) acquisitions that violate the order (the
// classic deadlock recipe), (b) classified latches held across
// channel operations or fsync-class calls (both can block
// indefinitely, serialising the engine behind a latch), (c) latches
// held across calls to opaque function values (a callback must never
// run under an engine latch), and (d) paths that return without
// releasing a latch at all.
//
// Only latches in the declared hierarchy are tracked; incidental
// mutexes (trace sinks, session registries, worker fail flags) are
// deliberately out of scope so the analyzer stays quiet where the
// ordering argument does not apply.
var Latchorder = &Analyzer{
	Name: "latchorder",
	Doc:  "latch acquisitions respect the catalog→table→page→WAL hierarchy and never span blocking ops",
	Run:  runLatchorder,
}

// latchClass places one (owner type, field) mutex in the hierarchy.
type latchClass struct {
	level int
	label string
}

// latchLevels is the declared hierarchy. Lower levels must be
// acquired first; two latches at the same level must never be held
// together by one goroutine.
var latchLevels = map[[2]string]latchClass{
	// The network server's latches are outermost: the connection
	// table (Server.mu) and the controller's latency window
	// (Controller.mu) are taken and released around engine calls,
	// never while any engine latch is held, and no engine code can
	// call back into them.
	{"Server", "mu"}:     {4, "server-conns"},
	{"Controller", "mu"}: {6, "server-controller"},
	{"Catalog", "mu"}:    {10, "catalog"},
	{"Table", "mu"}:      {20, "table"},
	{"HeapFile", "mu"}:   {30, "heap-file"},
	// The page table's only latch serialises growing its directory;
	// GetPage, Unpin and quarantine marks are atomics and take nothing.
	{"BufferManager", "growMu"}: {45, "page-table-grow"},
	{"Page", "mu"}:              {50, "page"},
	// The MVCC component has one latch, the group-commit queue's,
	// between the page latch and the DB/WAL latches; it is never held
	// across any other acquisition (the leader drains the queue,
	// releases it, then appends/syncs/publishes). Its commit table,
	// horizon, id clock and counters are atomics: visibility checks run
	// under a page latch and take nothing, so nothing is declared for
	// them (storage/txn.go carries the publication-order argument).
	{"TxnManager", "gcMu"}: {53, "txn-commit"},
	{"DB", "mu"}:           {60, "db"},
	{"WAL", "mu"}:          {70, "wal"},
	{"DB", "dirtyMu"}:      {80, "dirty-table"},
}

// classifyLatch resolves a Lock/Unlock receiver like `sh.mu` to its
// hierarchy class via (owner type name, field name).
func classifyLatch(pass *Pass, recv ast.Expr) (latchClass, string, bool) {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return latchClass{}, "", false
	}
	owner := namedTypeName(pass, sel.X)
	if owner == "" {
		return latchClass{}, "", false
	}
	cls, ok := latchLevels[[2]string{owner, sel.Sel.Name}]
	return cls, types.ExprString(recv), ok
}

func runLatchorder(pass *Pass) {
	latchCall := func(call *ast.CallExpr, names ...string) (latchClass, string, bool) {
		for _, n := range names {
			if recv := methodCall(call, n); recv != nil && len(call.Args) == 0 {
				return classifyLatch(pass, recv)
			}
		}
		return latchClass{}, "", false
	}
	runFlow(&flowConfig{
		pass: pass,
		acquire: func(call *ast.CallExpr, lhs []ast.Expr, live []*resource) *resource {
			cls, key, ok := latchCall(call, "Lock", "RLock")
			if !ok {
				return nil
			}
			for _, held := range live {
				if held.level >= cls.level {
					pass.Reportf(call.Pos(), "latch-order",
						"acquiring %s latch (level %d) while holding %s (level %d, line %d) inverts the latch hierarchy",
						cls.label, cls.level, held.what, held.level, pass.Position(held.pos).Line)
				}
			}
			return &resource{
				key:   key,
				pos:   call.Pos(),
				what:  fmt.Sprintf("%s latch %s", cls.label, key),
				level: cls.level,
			}
		},
		releaseKey: func(call *ast.CallExpr) string {
			_, key, ok := latchCall(call, "Unlock", "RUnlock")
			if !ok {
				return ""
			}
			return key
		},
		onCall: func(call *ast.CallExpr, live []*resource) {
			top := live[len(live)-1]
			if recv := methodCall(call, "Sync"); recv != nil {
				pass.Reportf(call.Pos(), "latch-across-fsync",
					"%s (line %d) is held across %s.Sync — an fsync under a latch stalls every contender for the disk",
					top.what, pass.Position(top.pos).Line, types.ExprString(recv))
				return
			}
			if isFuncValueCall(pass, call) {
				pass.Reportf(call.Pos(), "latch-across-callback",
					"%s (line %d) is held across a call to an opaque function value — callbacks must not run under engine latches",
					top.what, pass.Position(top.pos).Line)
			}
		},
		onChan: func(pos token.Pos, op string, live []*resource) {
			top := live[len(live)-1]
			pass.Reportf(pos, "latch-across-chan",
				"%s (line %d) is held across a %s — a blocked channel op under a latch can deadlock the engine",
				top.what, pass.Position(top.pos).Line, op)
		},
		deferKeepsHeld: true,
		reportLeaks:    true,
		leakCode:       "latch-leak",
	})
}
