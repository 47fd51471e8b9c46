package analysis

import (
	"fmt"
	"go/ast"
)

// Batchrelease enforces the sync.Pool batch discipline: every batch
// taken with GetBatch is either PutBatch-ed on every path or has its
// ownership transferred (returned, stored into a struct field that a
// Close method releases, sent to a consumer). A batch that simply
// goes out of scope is a pool leak — invisible to correctness tests
// but a steady allocation regression, which is exactly what the
// TestAllocBudgets allocation budgets would eventually catch the slow
// way.
var Batchrelease = &Analyzer{
	Name: "batchrelease",
	Doc:  "pooled batches are released or ownership-transferred on every path",
	Run:  runBatchrelease,
}

func runBatchrelease(pass *Pass) {
	objKey := func(id *ast.Ident) string {
		obj := pass.ObjectOf(id)
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("obj:%p", obj)
	}
	runFlow(&flowConfig{
		pass: pass,
		acquire: func(call *ast.CallExpr, lhs []ast.Expr, live []*resource) *resource {
			if calleeName(call) != "GetBatch" || len(call.Args) != 0 {
				return nil
			}
			if namedTypeName(pass, call) != "Batch" {
				return nil
			}
			if len(lhs) == 0 {
				pass.Reportf(call.Pos(), "batch-discard",
					"result of GetBatch is discarded — the batch can never return to the pool")
				return nil
			}
			id, ok := lhs[0].(*ast.Ident)
			if !ok {
				// Acquired straight into a field or element:
				// ownership transfers at birth (handled by the walker).
				return &resource{pos: call.Pos()}
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "batch-discard",
					"result of GetBatch is discarded — the batch can never return to the pool")
				return nil
			}
			return &resource{
				key:  objKey(id),
				pos:  call.Pos(),
				what: fmt.Sprintf("pooled batch %q", id.Name),
				val:  pass.ObjectOf(id),
			}
		},
		releaseKey: func(call *ast.CallExpr) string {
			if calleeName(call) != "PutBatch" || len(call.Args) != 1 {
				return ""
			}
			if id, ok := call.Args[0].(*ast.Ident); ok {
				return objKey(id)
			}
			return ""
		},
		transferValues: true,
		reportLeaks:    true,
		leakCode:       "batch-leak",
	})
}
