package repro_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestWriteOnlyFields keeps every struct field declared in non-test code
// under internal/ and cmd/ read by some non-test code there.  A field
// that is only written stores what nothing consults: delete it with the
// writes that feed it.  A selector x.f counts as a read unless it is the
// target of =, op= or ++/--; a composite-literal key is a write.  A
// field of a generic type counts through its origin, and an embedded
// field counts as read when a selection is promoted through it.  An
// exported field of a struct type that encoding/json or the scenario
// codec's reflection reads — any type reachable through exported fields
// from a json-tagged struct or from experiments.Scenario — counts as
// read too.  Reads from bench/, examples/ and tests do not count.  Every
// unread field must be listed in writeOnlyAllowlist with the reason it
// stays; an unlisted one fails, and so does a listed one that is read
// or no longer exists, as in TestExportedSurface.
func TestWriteOnlyFields(t *testing.T) {
	declared, read, err := fieldReads(".", "repro", "repro/internal/experiments.Scenario")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range unreached(declared, read) {
		if writeOnlyAllowlist[id] == "" {
			t.Errorf("field %s is written but no non-test code reads it: delete it and its writes, or add it to writeOnlyAllowlist with a reason", id)
		}
	}
	for id := range writeOnlyAllowlist {
		switch {
		case !declared[id]:
			t.Errorf("writeOnlyAllowlist: %s no longer exists; remove its entry", id)
		case read[id]:
			t.Errorf("writeOnlyAllowlist: %s is read by non-test code; remove its entry", id)
		}
	}
	t.Logf("%d struct fields, %d write-only allowlisted", len(declared), len(writeOnlyAllowlist))
}

// TestWriteOnlyFieldsRule runs the classifier over the module in
// testdata/fields, whose package f declares one field per rule.
func TestWriteOnlyFieldsRule(t *testing.T) {
	declared, read, err := fieldReads("testdata/fields", "fixture", "fixture/internal/f.Doc")
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(declared, read)
	want := []string{
		"f.Box.stored", "f.Gen.unused", "f.State.added", "f.State.bumped",
		"f.State.keyed", "f.State.set", "f.State.testOnly", "f.hidden.Skipped",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unread = %v, want %v", got, want)
	}
	for _, id := range []string{
		"f.State.read", "f.State.nested", "f.State.nested.inner", "f.Gen.used",
		"f.Base.promoted", "f.State.Base", "f.Doc.Name", "f.Row.Value", "f.Box.Value",
	} {
		if !declared[id] || !read[id] {
			t.Errorf("%s: declared %v, read %v; want both", id, declared[id], read[id])
		}
	}
}

// fieldReads loads the module and returns every named struct field its
// internal/ and cmd/ packages declare, as "pkg.Type.Field" (pkg relative
// to internal/; a field of an anonymous struct nested in a field is
// "pkg.Type.Field.Inner", one in a function body "pkg.Func.struct.Field"),
// with the subset TestWriteOnlyFields' rules count as read.  codecRoot,
// "path.Name", is the struct type a reflection codec reads besides the
// json-tagged ones.
func fieldReads(root, module, codecRoot string) (declared, read map[string]bool, err error) {
	m, err := loadModule(root, module)
	if err != nil {
		return nil, nil, err
	}
	names := map[*types.Var]string{}
	var roots []types.Type // the json-tagged structs
	for p, fs := range m.files {
		pkg := strings.TrimPrefix(strings.TrimPrefix(p.Path(), module+"/"), "internal/")
		for _, f := range fs {
			roots = append(roots, nameFields(f, pkg, m.info[p], names)...)
		}
	}
	declared, read = map[string]bool{}, map[string]bool{}
	for _, id := range names {
		declared[id] = true
	}
	mark := func(v *types.Var) {
		if id := names[v.Origin()]; id != "" {
			read[id] = true
		}
	}
	for p, fs := range m.files {
		info := m.info[p]
		for _, f := range fs {
			written := writeTargets(f)
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := info.Selections[sel]
				if s == nil {
					return true
				}
				// Every embedded field a promoted selection passes through is read.
				t := s.Recv()
				for _, i := range s.Index()[:len(s.Index())-1] {
					v := structOf(t).Field(i)
					mark(v)
					t = v.Type()
				}
				if v, ok := s.Obj().(*types.Var); ok && s.Kind() == types.FieldVal && !written[sel] {
					mark(v)
				}
				return true
			})
		}
	}
	path, name, _ := strings.Cut(codecRoot, ".")
	if p := m.pkgs[path]; p != nil {
		if o := p.Scope().Lookup(name); o != nil {
			roots = append(roots, o.Type())
		}
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			walk(u.Underlying())
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if v := u.Field(i); v.Exported() || v.Embedded() {
					mark(v)
					walk(v.Type())
				}
			}
		}
	}
	for _, t := range roots {
		walk(t)
	}
	return declared, read, nil
}

// structOf returns the struct under t, through one pointer and a name.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// nameFields names every field a struct type in f declares and returns
// the struct types with a json-tagged field.
func nameFields(f *ast.File, pkg string, info *types.Info, names map[*types.Var]string) (tagged []types.Type) {
	defs := info.Defs
	var structs func(e ast.Expr, prefix string)
	structs = func(e ast.Expr, prefix string) {
		ast.Inspect(e, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if jsonTagged(field) {
					tagged = append(tagged, info.TypeOf(st))
				}
				for _, id := range field.Names {
					if v, ok := defs[id].(*types.Var); ok && id.Name != "_" {
						names[v] = prefix + "." + id.Name
					}
					structs(field.Type, prefix+"."+id.Name)
				}
				if len(field.Names) == 0 {
					if v, ok := defs[embeddedIdent(field.Type)].(*types.Var); ok {
						names[v] = prefix + "." + v.Name()
					}
				}
			}
			return false
		})
	}
	for _, decl := range f.Decls {
		scope := pkg
		if d, ok := decl.(*ast.FuncDecl); ok {
			scope = pkg + "." + d.Name.Name
			if d.Recv != nil {
				scope = pkg + "." + embeddedIdent(d.Recv.List[0].Type).Name + "." + d.Name.Name
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				structs(n.Type, scope+"."+n.Name.Name)
				return false
			case *ast.StructType:
				structs(n, scope+".struct")
				return false
			}
			return true
		})
	}
	return tagged
}

// jsonTagged reports whether field carries a json struct tag.
func jsonTagged(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(field.Tag.Value)
	return err == nil && reflect.StructTag(tag).Get("json") != ""
}

// embeddedIdent returns the identifier an embedded field's type
// expression (T, *T, pkg.T, T[P]) declares it under, which is also the
// type name of a method receiver.
func embeddedIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// writeTargets returns the selectors f assigns to: the left side of =,
// op= and a range clause's =, and the operand of ++ and --.
func writeTargets(f *ast.File) map[*ast.SelectorExpr]bool {
	targets := map[*ast.SelectorExpr]bool{}
	add := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		if s, ok := e.(*ast.SelectorExpr); ok {
			targets[s] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, e := range n.Lhs {
					add(e)
				}
			}
		case *ast.IncDecStmt:
			add(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				add(n.Key)
				add(n.Value)
			}
		}
		return true
	})
	return targets
}

// writeOnlyAllowlist names each struct field that no non-test code reads,
// with the reason it stays.
var writeOnlyAllowlist = map[string]string{
	"baseline.TrialResult.Accepted":    "test oracle: TestReplayPoliciesBothValid checks that both policies saw the same requests and accepted some",
	"baseline.TrialResult.Rejected":    "test oracle: TestReplayPoliciesBothValid checks that both policies saw the same requests",
	"experiments.Experiment.WallClock": "test oracle: cmd/ibsim's golden and parallel-identity tests strip these report fields before comparing; declared beside the report that holds them",
	"fabric.shard.inputWakes":          "test oracle: TestWRREventsPerHop budgets the evInputFree wake-ups per forward",
	"plan.Demand.SL":                   "test oracle: experiments' TestPlanFlagsSimStarvedFlows aligns each model flow with its simulated flow by endpoints, SL and rate",
	"plan.FlowPred.Demand":             "test oracle: the plan tests read each prediction's offered demand (endpoints, SL, wire, deadline) beside it",
	"plan.FlowPred.Hops":               "test oracle: TestStablePointHasFullThroughput holds each flow's predicted latency above its hops times wire-time floor",
	"plan.LaneState.Alloc":             "test oracle: FuzzPlanSpec and checkFinite hold the lane's fluid WRR allocation finite and non-negative",
	"plan.LaneState.WaitBT":            "test oracle: FuzzPlanSpec and checkFinite hold the lane's mean queueing wait finite and non-negative",
}
