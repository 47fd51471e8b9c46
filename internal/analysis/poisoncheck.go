package analysis

import (
	"go/ast"
	"go/types"
)

// Poisoncheck enforces the failure spine: a path that observes a WAL
// or page-file error must propagate it (return it, pass it to
// db.fail / a wrapper, store it) — never discard it or merely test
// it. A swallowed storage error is how a database acknowledges writes
// it has already lost; the sticky ErrDBFailed poison only works if
// every observation feeds it.
var Poisoncheck = &Analyzer{
	Name: "poisoncheck",
	Doc:  "WAL/page-file errors propagate through the ErrDBFailed spine",
	Run:  runPoisoncheck,
}

// spineReceivers maps receiver type names to the method sets whose
// errors are storage-failure observations. A nil set means every
// error-returning method (the DiskFile interface is all I/O).
var spineReceivers = map[string]map[string]bool{
	"WAL":      {"Append": true, "Sync": true},
	"PageFile": {"WritePage": true, "ReadPage": true, "FrameLSN": true, "Sync": true},
	"DiskFile": nil,
	// The transaction commit path: a discarded Commit error means the
	// caller acknowledges writes whose commit record may never have
	// become durable. Rollback is deliberately NOT in the spine — it
	// is idempotent cleanup (`defer tx.Rollback()` is the idiom) and
	// any WAL failure inside it has already poisoned the DB.
	"TxnManager": {"commitTxn": true, "commitBatch": true, "abortTxn": true},
	"Txn":        {"Commit": true},
	// The server's wire layer: a discarded frame error means a torn or
	// stalled connection keeps being served as if healthy. Session
	// close rolls back any open transaction; dropping its error leaks
	// the rollback failure.
	"frameConn": {"ReadFrame": true, "WriteFrame": true, "WriteFrameString": true, "writeHeader": true, "Flush": true},
	"DBSession": {"Close": true},
}

func runPoisoncheck(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpineCalls(pass, fd.Body)
		}
	}
}

// walkStack visits every node with its ancestor chain (outermost
// first, excluding the node itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// spineCallName classifies a call as a storage-spine observation,
// returning a display name like "WAL.Append".
func spineCallName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recvType := namedTypeName(pass, sel.X)
	methods, ok := spineReceivers[recvType]
	if !ok {
		return ""
	}
	if methods != nil && !methods[sel.Sel.Name] {
		return ""
	}
	if errResultIndex(pass, call) < 0 {
		return ""
	}
	return recvType + "." + sel.Sel.Name
}

// errResultIndex returns the index of the call's error result, or -1.
func errResultIndex(pass *Pass, call *ast.CallExpr) int {
	t := pass.TypeOf(call)
	if t == nil {
		return -1
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := tuple.Len() - 1; i >= 0; i-- {
			if isErrorType(tuple.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if isErrorType(t) {
		return 0
	}
	return -1
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// checkSpineCalls verifies every spine observation in body is
// propagated, not discarded or condition-tested into oblivion.
func checkSpineCalls(pass *Pass, body *ast.BlockStmt) {
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name := spineCallName(pass, call)
		if name == "" || len(stack) == 0 {
			return
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "poison-discard",
				"error from %s is discarded — propagate it or poison via the ErrDBFailed spine", name)
		case *ast.AssignStmt:
			if len(parent.Rhs) != 1 || parent.Rhs[0] != ast.Expr(call) {
				return
			}
			idx := errResultIndex(pass, call)
			if idx >= len(parent.Lhs) {
				return
			}
			id, ok := parent.Lhs[idx].(*ast.Ident)
			if !ok {
				return
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "poison-discard",
					"error from %s is discarded — propagate it or poison via the ErrDBFailed spine", name)
				return
			}
			checkErrUsage(pass, body, call, name, pass.ObjectOf(id))
		}
		// Any other parent (return, call argument, if-init handled as
		// AssignStmt, binary expr) keeps the error in an expression
		// that flows somewhere — the surrounding context owns it.
	})
}

// checkErrUsage classifies every later use of the observed error:
// at least one use must escape the function (return, call argument,
// store, defer); uses confined to conditions are tests, not
// propagation.
func checkErrUsage(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr, name string, errObj types.Object) {
	if errObj == nil {
		return
	}
	propagated := false
	tested := false
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		if propagated {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= call.End() || pass.ObjectOf(id) != errObj {
			return
		}
		switch classifyErrUse(stack, id) {
		case "propagated":
			propagated = true
		case "condition":
			tested = true
		}
	})
	switch {
	case propagated:
	case tested:
		pass.Reportf(call.Pos(), "poison-swallow",
			"error from %s is tested but never propagated — a path that observes it returns success; route it through the ErrDBFailed spine", name)
	default:
		pass.Reportf(call.Pos(), "poison-ignore",
			"error from %s is captured but never used — propagate it or poison via the ErrDBFailed spine", name)
	}
}

// classifyErrUse ascends from an identifier use to decide whether the
// error escapes ("propagated") or is only branched on ("condition").
func classifyErrUse(stack []ast.Node, id ast.Node) string {
	child := id
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if child == ast.Node(n.Cond) {
				return "condition"
			}
			return "propagated" // init/else position: some statement form
		case *ast.ForStmt:
			if child == ast.Node(n.Cond) {
				return "condition"
			}
			return "propagated"
		case *ast.SwitchStmt:
			if n.Tag != nil && child == ast.Node(n.Tag) {
				return "condition"
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if child == ast.Node(e) {
					return "condition"
				}
			}
		case *ast.ReturnStmt, *ast.DeferStmt, *ast.SendStmt, *ast.GoStmt:
			return "propagated"
		case *ast.AssignStmt:
			for _, e := range n.Rhs {
				if child == ast.Node(e) {
					if allBlank(n.Lhs) {
						return "discard" // a blank keep-alive is no use at all
					}
					return "propagated"
				}
			}
			return "condition" // LHS reassignment is not a use that escapes
		case *ast.ExprStmt:
			return "propagated" // bare call with err as argument (db.fail(err))
		case *ast.CompositeLit:
			return "propagated"
		case *ast.FuncLit:
			return "propagated" // captured by a closure: assume it escapes there
		}
		child = stack[i]
	}
	return "condition"
}
