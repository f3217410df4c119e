package analysis

import (
	"go/ast"
)

// ctxflowPackages are the request-path packages: everything between an
// HTTP handler and the estimator call tree.
var ctxflowPackages = []string{
	"serve",
	"distrib",
	"pitex", // the root engine package: Engine.Query and the remote adapter
}

// CtxFlow enforces context discipline on request paths: a function that
// receives a context must thread it (no context.Background/TODO inside),
// the context parameter comes first, and contexts are not stored in
// struct fields — a stored context outlives the request that created it
// and silently detaches cancellation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "request paths must thread their context: no Background/TODO where a " +
		"context is in scope, context params first, no contexts in struct fields",
	AppliesTo: func(pkgPath string) bool { return pathIn(pkgPath, ctxflowPackages...) },
	Run:       runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Files {
		// Struct fields of type context.Context.
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if tv, ok := pass.Info.Types[field.Type]; ok && isContextType(tv.Type) {
					pass.Reportf(field.Pos(),
						"context.Context stored in a struct field: pass it as the first parameter instead")
				}
			}
			return true
		})
		// Context parameter position on declared functions.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if idx, has := funcHasCtxParam(pass.Info, fd.Type); has && idx != 0 {
				pass.Reportf(fd.Type.Params.Pos(),
					"context.Context is parameter %d of %s: contexts go first", idx+1, fd.Name.Name)
			}
		}
		// Background/TODO calls inside functions that already have a ctx.
		inspectFuncs(file, func(ft *ast.FuncType, body *ast.BlockStmt, decl *ast.FuncDecl) {
			if _, has := funcHasCtxParam(pass.Info, ft); !has {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				// A nested function literal is its own scope: if it takes
				// a ctx itself it is inspected by its own visit, and if
				// not, Background inside it is a deliberate detach (e.g.
				// a goroutine outliving the request) — the literal's
				// body is skipped here either way.
				if _, ok := n.(*ast.FuncLit); ok && n != nil {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if isFuncNamed(fn, "context", "Background") || isFuncNamed(fn, "context", "TODO") {
					pass.Reportf(call.Pos(),
						"context.%s inside a function that receives a context: thread the caller's ctx",
						fn.Name())
				}
				return true
			})
		})
	}
}
