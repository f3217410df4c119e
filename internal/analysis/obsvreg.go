package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// registrarMethods are the obsv entry points that create or register a
// named metric; each takes the metric name as its first argument.
var registrarMethods = map[string]bool{
	"Counter":         true,
	"Gauge":           true,
	"CounterFunc":     true,
	"GaugeFunc":       true,
	"RegisterCounter": true,
}

// promNameRe is the Prometheus data-model metric-name grammar.
var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// ObsvReg validates metric registration: names must match the Prometheus
// regex (a bad name corrupts the whole /metrics exposition — the strict
// ParseText in CI would reject it at smoke-test time, this catches it at
// compile time), the same unlabeled name must not be registered twice in
// one function, and registration must not run inside request handlers
// (per-request registration grows the registry without bound).
var ObsvReg = &Analyzer{
	Name: "obsvreg",
	Doc: "obsv metric names must match the Prometheus grammar, register once, " +
		"and never from inside a request handler",
	Run: runObsvReg,
}

func runObsvReg(pass *Pass) {
	for _, file := range pass.Files {
		inspectFuncs(file, func(ft *ast.FuncType, body *ast.BlockStmt, decl *ast.FuncDecl) {
			inHandler := decl != nil && isRequestHandler(pass, decl)
			seen := map[string]bool{}
			ast.Inspect(body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // visited on its own; handler status differs
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, labeled, ok := metricRegistration(pass, call)
				if !ok {
					return true
				}
				if inHandler {
					pass.Reportf(call.Pos(),
						"metric registration inside request handler %s: register once at construction",
						decl.Name.Name)
				}
				if name == "" {
					return true // dynamic name: grammar checked at runtime
				}
				if !promNameRe.MatchString(name) {
					pass.Reportf(call.Args[0].Pos(),
						"metric name %q does not match the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*", name)
				}
				if !labeled {
					if seen[name] {
						pass.Reportf(call.Args[0].Pos(),
							"unlabeled metric %q registered twice in one function", name)
					}
					seen[name] = true
				}
				return true
			})
		})
	}
}

// metricRegistration reports whether call registers a named metric on an
// obsv registry, returning the constant name ("" when dynamic) and
// whether label arguments are present.
func metricRegistration(pass *Pass, call *ast.CallExpr) (name string, labeled, ok bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !registrarMethods[fn.Name()] || len(call.Args) < 2 {
		return "", false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || sig.Params().Len() == 0 {
		return "", false, false
	}
	// The receiver is an obsv type, whose registrars take (name, help
	// string, ...).
	if !isObsvRegistrar(sig.Recv().Type()) {
		return "", false, false
	}
	if first, okT := sig.Params().At(0).Type().(*types.Basic); !okT || first.Kind() != types.String {
		return "", false, false
	}
	if tv, okV := pass.Info.Types[call.Args[0]]; okV && tv.Value != nil && tv.Value.Kind() == constant.String {
		name = constant.StringVal(tv.Value)
	}
	labeled = len(call.Args) > requiredParams(sig)
	return name, labeled, true
}

// requiredParams counts a variadic signature's fixed parameters.
func requiredParams(sig *types.Signature) int {
	n := sig.Params().Len()
	if sig.Variadic() {
		n--
	}
	return n
}

// isObsvRegistrar reports whether t (or its pointee) is a named type from
// an obsv package.
func isObsvRegistrar(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && pathIn(named.Obj().Pkg().Path(), "obsv")
}

// isRequestHandler reports whether decl looks like an HTTP request
// handler: it has an http.ResponseWriter parameter or is ServeHTTP.
func isRequestHandler(pass *Pass, decl *ast.FuncDecl) bool {
	if decl.Name.Name == "ServeHTTP" {
		return true
	}
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	return strings.HasPrefix(decl.Name.Name, "handle")
}
