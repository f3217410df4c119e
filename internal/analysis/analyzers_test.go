package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// runWantTest loads one testdata package and verifies an analyzer's
// diagnostics against its `// want` annotations.
func runWantTest(t *testing.T, a *Analyzer, pattern string) {
	t.Helper()
	pkgs, err := Load("testdata/src", pattern)
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %s", pattern)
	}
	for _, problem := range CheckWant(pkgs, a) {
		t.Error(problem)
	}
}

func TestDetrand(t *testing.T)   { runWantTest(t, Detrand, "./internal/rrindex") }
func TestRngStream(t *testing.T) { runWantTest(t, RngStream, "./internal/sampling") }
func TestCtxFlow(t *testing.T)   { runWantTest(t, CtxFlow, "./serve") }
func TestObsvReg(t *testing.T)   { runWantTest(t, ObsvReg, "./obsvreg") }
func TestErrFlow(t *testing.T)   { runWantTest(t, ErrFlow, "./errflow") }

// TestAppliesToFilters pins the package scoping: an analyzer must not
// fire outside its package list even when the code would violate it.
func TestAppliesToFilters(t *testing.T) {
	cases := []struct {
		a   *Analyzer
		in  string
		out string
	}{
		{Detrand, "pitex/internal/rrindex", "pitex/serve"},
		{Detrand, "pitexlint.example/analytics", "pitexlint.example/obsv"},
		{RngStream, "pitex", "pitex/obsv"},
		{RngStream, "pitex/internal/sampling", "other/internal/rngx"},
		{CtxFlow, "pitex/distrib", "pitex/internal/rrindex"},
	}
	for _, c := range cases {
		if !c.a.AppliesTo(c.in) {
			t.Errorf("%s should apply to %s", c.a.Name, c.in)
		}
		if c.a.AppliesTo(c.out) {
			t.Errorf("%s should not apply to %s", c.a.Name, c.out)
		}
	}
	for _, a := range []*Analyzer{ObsvReg, ErrFlow} {
		if a.AppliesTo != nil {
			t.Errorf("%s should apply everywhere", a.Name)
		}
	}
}

// TestAllSuite pins the suite composition and metadata every analyzer
// must carry.
func TestAllSuite(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("suite has %d analyzers, want 5", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"detrand", "rngstream", "ctxflow", "obsvreg", "errflow"} {
		if !seen[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

// TestDiagnosticString pins the file:line:col output format CI greps.
func TestDiagnosticString(t *testing.T) {
	pkgs, err := Load("testdata/src", "./errflow")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{ErrFlow})
	if len(diags) == 0 {
		t.Fatal("expected seeded errflow diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "errflow.go:") || !strings.Contains(s, ": errflow: ") {
		t.Errorf("diagnostic format %q lacks position or analyzer name", s)
	}
	for i := 1; i < len(diags); i++ {
		if diags[i-1].Pos.Filename == diags[i].Pos.Filename && diags[i-1].Pos.Line > diags[i].Pos.Line {
			t.Errorf("diagnostics not sorted: %s before %s", diags[i-1], diags[i])
		}
	}
}

// TestLoadErrors pins loader failure modes: a directory that is not a
// module and an unknown package pattern both surface as errors.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load outside a module should fail")
	}
	if _, err := Load("testdata/src", "./nosuchpkg"); err == nil {
		t.Error("Load of a missing package should fail")
	}
}

// TestModulePath pins go.mod discovery from a package subdirectory.
func TestModulePath(t *testing.T) {
	got, err := ModulePath("testdata/src/errflow")
	if err != nil {
		t.Fatal(err)
	}
	if got != "pitexlint.example" {
		t.Errorf("ModulePath = %q, want pitexlint.example", got)
	}
	if _, err := ModulePath(t.TempDir()); err == nil {
		t.Error("ModulePath outside a module should fail")
	}
}

// TestRegistrarMethodsExist keeps registrarMethods honest: every listed
// name must be a method of an exported obsv type, or the entry matches
// nothing and hides a registrar the list should name instead.
func TestRegistrarMethodsExist(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./obsv")
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("load obsv: %d packages, %v", len(pkgs), err)
	}
	methods := map[string]bool{}
	scope := pkgs[0].Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			methods[ms.At(i).Obj().Name()] = true
		}
	}
	for name := range registrarMethods {
		if !methods[name] {
			t.Errorf("registrarMethods lists %s, which no exported obsv type has", name)
		}
	}
}
