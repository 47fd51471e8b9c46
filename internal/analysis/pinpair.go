package analysis

import (
	"go/ast"
	"go/types"
)

// Pinpair enforces the page pin discipline: every
// BufferManager.GetPage has a matching Unpin on every path out of the
// function — error returns, early returns, loop continues — and a pin
// is never held across a call to an opaque function value (a
// panicking callback would skip a non-deferred Unpin; the panic is
// contained at the morsel boundary, so the leaked pin survives).
// This is the static form of the PinnedFrames leak-audit tests.
var Pinpair = &Analyzer{
	Name: "pinpair",
	Doc:  "BufferManager pins are unpinned on all paths and never held across opaque callbacks",
	Run:  runPinpair,
}

func runPinpair(pass *Pass) {
	pinKey := func(call *ast.CallExpr, method string) string {
		recv := methodCall(call, method)
		if recv == nil || len(call.Args) != 1 {
			return ""
		}
		if namedTypeName(pass, recv) != "BufferManager" {
			return ""
		}
		return types.ExprString(recv) + "\x00" + types.ExprString(call.Args[0])
	}
	runFlow(&flowConfig{
		pass: pass,
		acquire: func(call *ast.CallExpr, lhs []ast.Expr, live []*resource) *resource {
			key := pinKey(call, "GetPage")
			if key == "" {
				return nil
			}
			r := &resource{
				key:  key,
				pos:  call.Pos(),
				what: "pin of page " + types.ExprString(call.Args[0]),
			}
			if len(lhs) == 2 {
				if id, ok := lhs[1].(*ast.Ident); ok {
					r.errVar = pass.ObjectOf(id)
				}
			}
			return r
		},
		releaseKey: func(call *ast.CallExpr) string {
			return pinKey(call, "Unpin")
		},
		onCall: func(call *ast.CallExpr, live []*resource) {
			if !isFuncValueCall(pass, call) {
				return
			}
			for _, r := range live {
				pass.Reportf(call.Pos(), "pin-across-callback",
					"%s (acquired line %d) is held across a call to an opaque function value with no deferred Unpin — a panicking callback leaks the pin",
					r.what, pass.Position(r.pos).Line)
			}
		},
		reportLeaks: true,
		leakCode:    "pin-leak",
	})
}
