package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// settingAllowlist names the settings that take fewer than two values in
// the module's non-test files but stay, each with the reason. A key is the
// package path below internal/, the struct type and the field:
// "core.Params.K".
var settingAllowlist = map[string]string{
	"mainnet.Config.RegularNodes":         "the figure ledger and TestWorldStatePins run Table 6 at 40 regular nodes",
	"tracker.Config.MinConfidence":        "bench/layers.go writes it",
	"experiments.CompareConfig.Nodes":     "bench/layers.go reads it",
	"netgen.Heterogeneity.ParityFraction": "goes with the checkpoint v4 layout, which drops it (ROADMAP item 5)",
	"obs.Options.Capacity":                "the ring-wrap tests, for example TestRingWrapCountsDropped, need a small ring",
	"lint.Options.Dir":                    "the linter's tests point the loader at fixture modules",
	"ethsim.Network.OnOffer":              "the observation seam of TestCensusNeverHashesUnrelayedTransactions, TestTraceFalsePositive and TestCheckpointRoundTrip",
}

// settingTypes names the world-recipe structs whose every field is a
// setting although their names do not end in Config, Params or Options.
var settingTypes = map[string]bool{"World": true, "Latency": true, "Traffic": true, "Heterogeneity": true, "Policy": true}

// varies marks a field that some non-test file writes with a value that is
// not a constant.
const varies = "varies"

// TestEverySettingVaries applies the option rule to the library's config
// structs: a value is a setting only where two production callers need
// different values. A setting is every field of a struct type declared
// under internal/ whose name ends in Config, Params or Options or that
// settingTypes names, and every func-typed field (a hook) of any struct
// declared there. Every non-test file of the module counts as a caller: a
// composite literal of the type gives each field its constant value, or the
// zero value where it omits the field; an assignment gives the field its
// right-hand side's constant value; a value that is not a constant (a
// variable, a call, a closure, an increment or &x.F) counts as varying. A
// setting with fewer than two values and no varying write fails unless
// settingAllowlist names it; an allowlist entry that names no setting, or a
// setting that varies, fails as stale.
func TestEverySettingVaries(t *testing.T) {
	prog := loadModule(t)
	settings := internalSettings(prog)
	if len(settings) == 0 {
		t.Fatal("no settings found under internal/")
	}
	values := map[*types.Var]map[string]bool{}
	note := func(f *types.Var, v string) {
		f = f.Origin()
		if _, ok := settings[f]; !ok {
			return
		}
		if values[f] == nil {
			values[f] = map[string]bool{}
		}
		values[f][v] = true
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			if !pkg.IsTestFile(file) {
				collectWrites(pkg.Info, file, note)
			}
		}
	}
	ok := func(f *types.Var) bool { return values[f][varies] || len(values[f]) >= 2 }

	var fixed []string
	for f, key := range settings {
		if _, allowed := settingAllowlist[key]; !allowed && !ok(f) {
			fixed = append(fixed, key+" ("+prog.Packages[0].Fset.Position(f.Pos()).String()+") takes only "+strings.Join(sortedKeys(values[f]), ", "))
		}
	}
	sort.Strings(fixed)
	for _, s := range fixed {
		t.Errorf("setting with one value: %s", s)
	}
	byKey := map[string]*types.Var{}
	for f, key := range settings {
		byKey[key] = f
	}
	for _, key := range sortedKeys(settingAllowlist) {
		f, found := byKey[key]
		switch {
		case !found:
			t.Errorf("stale allowlist entry %s: no such setting", key)
		case ok(f):
			t.Errorf("stale allowlist entry %s: it takes two values", key)
		}
	}
}

// internalSettings maps every setting field declared in a non-test file
// under internal/ to its allowlist key.
func internalSettings(prog *Program) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, pkg := range prog.Packages {
		rel, ok := internalPath(pkg)
		if !ok {
			continue
		}
		for id, obj := range pkg.Info.Defs {
			tn, isType := obj.(*types.TypeName)
			if !isType || tn.IsAlias() || inTestFile(pkg, id.Pos()) {
				continue
			}
			st, isStruct := tn.Type().Underlying().(*types.Struct)
			if !isStruct {
				continue
			}
			name := tn.Name()
			all := settingTypes[name] || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params") || strings.HasSuffix(name, "Options")
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, hook := f.Type().Underlying().(*types.Signature); all || hook {
					out[f] = rel + "." + name + "." + f.Name()
				}
			}
		}
	}
	return out
}

// collectWrites reports to note every value a file writes into a struct
// field: through composite literals, assignments, increments and taken
// addresses.
func collectWrites(info *types.Info, file *ast.File, note func(*types.Var, string)) {
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var)
		}
		return nil
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			t := tv.Type
			if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			given := map[*types.Var]bool{}
			for i, elt := range n.Elts {
				f, val := (*types.Var)(nil), elt
				if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
					if id, isID := kv.Key.(*ast.Ident); isID {
						f, _ = info.Uses[id].(*types.Var)
					}
					val = kv.Value
				} else if i < st.NumFields() {
					f = st.Field(i)
				}
				if f != nil {
					given[f] = true
					note(f, valueOf(info, val))
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !given[f] {
					note(f, zeroOf(f.Type()))
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				f := field(lhs)
				if f == nil {
					continue
				}
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					note(f, valueOf(info, n.Rhs[i]))
				} else {
					note(f, varies)
				}
			}
		case *ast.IncDecStmt:
			if f := field(n.X); f != nil {
				note(f, varies)
			}
		case *ast.UnaryExpr:
			if f := field(n.X); f != nil && n.Op == token.AND {
				note(f, varies)
			}
		}
		return true
	})
}

// valueOf names the constant value e has, nil's zero, or varies.
func valueOf(info *types.Info, e ast.Expr) string {
	tv := info.Types[e]
	switch {
	case tv.Value != nil:
		return canonical(tv.Value)
	case tv.IsNil():
		return "zero"
	}
	return varies
}

// zeroOf names the zero value of t as valueOf names the same constant.
func zeroOf(t types.Type) string {
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return "zero"
	case b.Info()&types.IsNumeric != 0:
		return canonical(constant.MakeInt64(0))
	case b.Info()&types.IsString != 0:
		return canonical(constant.MakeString(""))
	case b.Info()&types.IsBoolean != 0:
		return canonical(constant.MakeBool(false))
	}
	return "zero"
}

// canonical names a constant so that equal numbers of different kinds (0
// and 0.0) name alike.
func canonical(v constant.Value) string {
	if v.Kind() == constant.Int || v.Kind() == constant.Float {
		return constant.ToFloat(v).ExactString()
	}
	return v.ExactString()
}
