package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExportedSurface keeps the exported surface of internal/ no larger
// than the system needs.  It covers exported top-level identifiers and
// the exported methods of exported types.  An identifier counts as
// reached when non-test code in another package under internal/ or cmd/
// names it or, for a type, when the signature of an exported declaration
// in its own package names it.  A method counts as reached when non-test
// code in another package under internal/ or cmd/ names it, or when its
// type implements an interface that names it and is declared in the
// module or the standard library (String, Error, HandleEvent, ...).
// References from bench/, examples/ and tests do not count.  Every
// unreached identifier or method must be listed in exportedAllowlist
// with the reason it stays; an unlisted one fails, and so does a listed
// one that is reached or no longer exists, so the list cannot rot.
func TestExportedSurface(t *testing.T) {
	declared, reached, err := exportedSurface(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range unreached(declared, reached) {
		if exportedAllowlist[id] == "" {
			t.Errorf("%s is exported but nothing outside its package reaches it: unexport or delete it, or add it to exportedAllowlist with a reason", id)
		}
	}
	for id := range exportedAllowlist {
		switch {
		case !declared[id]:
			t.Errorf("exportedAllowlist: %s no longer exists; remove its entry", id)
		case reached[id]:
			t.Errorf("exportedAllowlist: %s is reached from outside its package; remove its entry", id)
		}
	}
	t.Logf("%d exported identifiers and methods, %d allowlisted", len(declared), len(exportedAllowlist))
}

// TestExportedSurfaceRule runs the classifier over a two-package module
// in testdata/surface: a method another package calls and one another
// package reaches only through its interface pass, and a method only a
// test calls is the one reported.
func TestExportedSurfaceRule(t *testing.T) {
	declared, reached, err := exportedSurface("testdata/surface", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unreached(declared, reached), []string{"a.T.TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	for _, id := range []string{"a.T", "a.T.Called", "a.T.Shown"} {
		if !declared[id] || !reached[id] {
			t.Errorf("%s: declared %v, reached %v; want both", id, declared[id], reached[id])
		}
	}
}

// unreached returns the declared names no rule reaches, sorted.
func unreached(declared, reached map[string]bool) []string {
	var ids []string
	for id := range declared {
		if !reached[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// exportedSurface type-checks from source the non-test Go files of every
// package under root's internal/ and cmd/ (import paths module/...; the
// standard library comes from importer.Default) and returns the
// exported identifiers ("pkg.Name") and exported methods of exported
// types ("pkg.Type.Method") declared under internal/, pkg relative to
// internal/, with the subset TestExportedSurface's rules reach.
func exportedSurface(root, module string) (declared, reached map[string]bool, err error) {
	fset := token.NewFileSet()
	std := importer.Default()
	pkgs := map[string]*types.Package{}
	files := map[*types.Package][]*ast.File{}
	uses := map[*types.Package]map[*ast.Ident]types.Object{}
	var load func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if !strings.HasPrefix(path, module+"/") {
			return std.Import(path)
		}
		return load(path)
	})
	load = func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(path, module+"/"))
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		var fs []*ast.File
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, fs, info)
		if err != nil {
			return nil, err
		}
		pkgs[path], files[p], uses[p] = p, fs, info.Uses
		return p, nil
	}
	for _, top := range []string{"internal", "cmd"} { // bench/ and examples/ reach nothing
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 {
				rel, _ := filepath.Rel(root, path)
				_, err = load(module + "/" + filepath.ToSlash(rel))
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}

	internal := module + "/internal/"
	id := func(o types.Object) string { // "" outside internal/
		if o.Pkg() == nil || !strings.HasPrefix(o.Pkg().Path(), internal) {
			return ""
		}
		name := strings.TrimPrefix(o.Pkg().Path(), internal) + "."
		if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			if r := receiverNamed(f); r != nil {
				return name + r.Obj().Name() + "." + o.Name()
			}
			return "" // a method of an interface literal
		}
		if o.Parent() != o.Pkg().Scope() {
			return "" // a field, or a local
		}
		return name + o.Name()
	}
	declared, reached = map[string]bool{}, map[string]bool{}
	var methods []*types.Func
	for p, fs := range files {
		if !strings.HasPrefix(p.Path(), internal) {
			continue
		}
		pkg := strings.TrimPrefix(p.Path(), internal)
		for _, f := range fs {
			markSignatureTypes(f, pkg, reached)
		}
		for _, name := range p.Scope().Names() {
			o := p.Scope().Lookup(name)
			if !o.Exported() {
				continue
			}
			declared[id(o)] = true
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() {
							declared[id(m)] = true
							methods = append(methods, m)
						}
					}
				}
			}
		}
	}
	for p, u := range uses {
		for _, o := range u {
			if o.Pkg() != p {
				if f, ok := o.(*types.Func); ok {
					o = f.Origin()
				}
				if s := id(o); s != "" {
					reached[s] = true
				}
			}
		}
	}
	ifaces := interfaces(pkgs)
	for _, m := range methods {
		if !reached[id(m)] && satisfiesInterface(m, ifaces) {
			reached[id(m)] = true
		}
	}
	return declared, reached, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverNamed returns the named type a method is declared on, or nil
// for a method of an interface literal.
func receiverNamed(m *types.Func) *types.Named {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// interfaces returns error and every named, non-generic interface with
// methods that the loaded packages, or the packages they import, declare.
func interfaces(pkgs map[string]*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
				if i, ok := n.Underlying().(*types.Interface); ok && i.NumMethods() > 0 && i.IsMethodSet() {
					ifaces = append(ifaces, i)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return ifaces
}

// satisfiesInterface reports whether m's type, or a pointer to it,
// implements an interface that names m.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	t := receiverNamed(m)
	for _, i := range ifaces {
		for j := 0; j < i.NumMethods(); j++ {
			if i.Method(j).Name() == m.Name() && (types.Implements(t, i) || types.Implements(types.NewPointer(t), i)) {
				return true
			}
		}
	}
	return false
}

// markSignatureTypes marks as reached every exported identifier of its
// own package that an exported declaration's signature in f names (a
// type in a function's parameters or results, a field, a var or const
// type).
func markSignatureTypes(f *ast.File, pkg string, reached map[string]bool) {
	names := func(e ast.Node) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's identifier
			case *ast.Ident:
				if n.IsExported() {
					reached[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || exportedReceiver(d.Recv.List[0].Type)) {
				names(d.Type)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exportedParts(s.Type, names)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names(s.Type)
							break
						}
					}
				}
			}
		}
	}
}

// exportedParts applies names to the parts of a type declaration a
// caller outside the package can see: exported struct fields and
// interface methods, or the whole of any other type expression.
func exportedParts(typ ast.Expr, names func(ast.Node)) {
	var fields *ast.FieldList
	switch t := typ.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		names(typ)
		return
	}
	for _, field := range fields.List {
		if len(field.Names) == 0 {
			names(field.Type) // embedded: its exported members are visible
			continue
		}
		for _, n := range field.Names {
			if n.IsExported() {
				names(field.Type)
				break
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type, T, *T or
// T[P], is exported.
func exportedReceiver(typ ast.Expr) bool {
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.Ident:
			return t.IsExported()
		default:
			return false
		}
	}
}

// exportedAllowlist names each exported identifier and method under
// internal/ that nothing outside its package reaches, with the reason it
// stays.
var exportedAllowlist = map[string]string{
	"admission.Controller.Live":      "bench/ probe, frozen until ROADMAP 3(b)",
	"admission.ErrOverBudget":        "sentinel error an admission refusal unwraps to, beside ErrHopDown and ErrHopBusy",
	"arbtable.Arbiter.Reanchors":     "test hook: fabric's TestSlabNeighboursNeverAlias checks that a table swap re-anchors the arbiters reading that table",
	"arbtable.LimitUnit":             "IBA unit of LimitOfHighPriority, the scale of the exported Table.Limit",
	"arbtable.NewArbiter":            "bench/ probe, frozen until ROADMAP 3(b); the one-element case of Arbiter.Init, which the fabric's arbiter slab calls",
	"core.Allocator.Defragment":      "bench/ probe, frozen until ROADMAP 3(b)",
	"core.Allocator.SequencesForVL":  "bench/ probe, frozen until ROADMAP 3(b)",
	"core.Delta.Append":              "test hook: subnet's TestProgramRejectsBadDeltaBeforePosting builds a delta naming a block out of range",
	"core.ErrBadDistance":            "sentinel error Reserve wraps, for errors.Is",
	"core.ErrBadWeight":              "sentinel error Reserve wraps, for errors.Is",
	"core.ErrNoSpace":                "sentinel error, matched with errors.Is",
	"core.ErrProgramInFlight":        "sentinel error, matched with errors.Is",
	"core.ErrTornUpdate":             "sentinel error, matched with errors.Is",
	"core.ErrUnknownSeq":             "sentinel error, matched with errors.Is",
	"core.MaxSeqWeight":              "bound of the exported Reserve weight argument",
	"core.NewAllocator":              "bench/ probe, frozen until ROADMAP 3(b); the mad and ibtable tests build tables with it",
	"core.NewPortTableWithPolicy":    "test hook: NaturalOrder differential (admission's TestAdmitDecideDifferential)",
	"core.Sequence.Spare":            "bench/ probe, frozen until ROADMAP 3(b)",
	"fabric.DefaultISLIPIters":       "bench/ probe, frozen until ROADMAP 3(b); the default of Config.ISLIPIters",
	"fabric.ISLIPState":              "bench/ probe, frozen until ROADMAP 3(b)",
	"fabric.ISLIPState.Match":        "bench/ probe, frozen until ROADMAP 3(b)",
	"fabric.Network.CheckBuffers":    "bench/ probe, frozen until ROADMAP 3(b); Network.CheckInvariants runs it",
	"fabric.Network.MeasuredElapsed": "test hook: experiments' TestPlanFlagsSimStarvedFlows reads the measurement window",
	"fabric.Network.StaleArrivals":   "test hook: the root per-hop and VOQ alloc budgets check that no arrival went stale",
	"faults.Injector.AddStall":       "test hook: fabric's TestWRRDeliveryDigest stalls switch ports",
	"mad.ArbModHighBase":             "IBA wire constant of the exported ArbModifier encoding",
	"mad.ArbModifier":                "codec half the tests check SplitArbModifier against",
	"mad.AttrVLArbitration":          "IBA wire constant the codec writes and checks",
	"mad.DecodeArbBlock":             "bench/ probe, frozen until ROADMAP 3(b)",
	"mad.DecodeHighTable":            "test oracle: reference decoder of FuzzHighTableDecode (DESIGN.md §7)",
	"mad.DecodeSLtoVL":               "test oracle: round-trip check of EncodeSLtoVL",
	"mad.EncodeArbBlock":             "codec half of DecodeArbBlock",
	"mad.HighBlockSMP":               "bench/ probe, frozen until ROADMAP 3(b)",
	"mad.MTUBytes":                   "inverse of MTUCode",
	"mad.NumHighBlocks":              "blocks per high table, the bound of the exported block index",
	"mad.PortStateDown":              "lower bound of the exported PortInfo.PortState",
	"mad.SplitArbModifier":           "inverse of ArbModifier",
	"mad.Unmarshal":                  "bench/ probe, frozen until ROADMAP 3(b)",
	"plan.EvaluateState":             "model entry point over a caller-built control state; Evaluate and Headroom wrap it",
	"routing/cdg.CycleError":         "error type, matched with errors.As",
	"sim.Engine.After":               "bench/ churn driver, frozen until ROADMAP 3(d)",
	"sim.Engine.NextTime":            "test hook: fabric's idle-pass tests snapshot the next event time",
	"sim.Engine.Pending":             "test hook: fabric's idle-pass and subnet's programmer tests count queued events",
	"sim.Engine.RecordCapacity":      "test hook: fabric's TestShardPoolsDoNotReallocateMidRun snapshots each shard's record slab",
	"sim.Engine.Stats":               "test hook: fabric's idle-pass, subnet's reliable-timer and the root engine alloc-budget tests read the event counters",
	"sim.Engine.Step":                "bench/ probe, frozen until ROADMAP 3(b)",
	"sl.BE":                          "Class value of the paper's traffic taxonomy",
	"sl.ByteTimeNs":                  "byte time in ns, for reading results in wall time (examples/quickstart)",
	"sl.CH":                          "Class value of the paper's traffic taxonomy",
	"sl.CollapsedMapping":            "SLtoVL mapping behind Config.DataVLs",
	"sl.DBTS":                        "Class value of the paper's traffic taxonomy",
	"sl.DistanceForHopDeadline":      "the paper's deadline-to-distance rule (examples/quickstart)",
	"sl.PBE":                         "Class value of the paper's traffic taxonomy",
	"sl.QoSFraction":                 "the paper's 80 % reservable share behind MaxReservableWeight",
	"sl.Validate":                    "test oracle: the check on the Table 1 levels",
	"stats.JitterEdges":              "Figure 5's bucket edges, behind the exported JitterHist",
	"topology.GenerateDragonfly":     "generator behind the dragonfly Spec; cdg and topology tests call it",
	"topology.GenerateFatTree":       "generator behind the fat-tree Spec; cdg, topology and alloc tests call it",
	"topology.InterPorts":            "switch-to-switch ports of an irregular switch, beside IrregularPorts",
	"topology.IrregularPorts":        "radix of the paper's irregular class",
	"topology.NewManual":             "builds hand-wired topologies; cdg and topology tests call it",
	"topology.Topology.AttachHost":   "builds hand-wired topologies with NewManual; cdg tests call it",
	"topology.Topology.Connect":      "builds hand-wired topologies with NewManual; cdg tests call it",
}
