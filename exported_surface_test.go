package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedSurface keeps the exported surface of internal/ no larger
// than the system needs.  An exported top-level identifier (methods are
// out of scope) counts as reached when non-test code in another package
// under internal/ or cmd/ names it package-qualified or, for a type,
// when the signature of an exported declaration in its own package
// names it.  References from bench/, examples/ and tests do not count.
// Every unreached identifier must be listed in exportedAllowlist with
// the reason it stays; an unlisted one fails, and so does a listed one
// that is reached or no longer exists, so the list cannot rot.
func TestExportedSurface(t *testing.T) {
	const module = "repro/internal/"
	fset := token.NewFileSet()
	declared := map[string]bool{} // "pkg.Name", pkg relative to internal/
	reached := map[string]bool{}
	visit := func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			collectExported(f, strings.TrimPrefix(dir, "internal/"), declared, reached)
		}
		imports := map[string]string{} // local name -> pkg
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if !strings.HasPrefix(p, module) {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					reached[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	}
	for _, root := range []string{"internal", "cmd"} { // bench/ and examples/ reach nothing
		if err := filepath.WalkDir(root, visit); err != nil {
			t.Fatal(err)
		}
	}

	var unlisted []string
	for id := range declared {
		if !reached[id] && exportedAllowlist[id] == "" {
			unlisted = append(unlisted, id)
		}
	}
	sort.Strings(unlisted)
	for _, id := range unlisted {
		t.Errorf("%s is exported but nothing outside its package reaches it: unexport or delete it, or add it to exportedAllowlist with a reason", id)
	}
	for id := range exportedAllowlist {
		switch {
		case !declared[id]:
			t.Errorf("exportedAllowlist: %s no longer exists; remove its entry", id)
		case reached[id]:
			t.Errorf("exportedAllowlist: %s is reached from outside its package; remove its entry", id)
		}
	}
	t.Logf("%d exported identifiers, %d allowlisted", len(declared), len(exportedAllowlist))
}

// collectExported records the file's exported top-level identifiers in
// declared and marks as reached every identifier of its own package
// that an exported declaration's signature names (a type in a
// function's parameters or results, a field, a var or const type).
func collectExported(f *ast.File, pkg string, declared, reached map[string]bool) {
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
			if !d.Name.IsExported() || d.Recv != nil && !exportedReceiver(d.Recv.List[0].Type) {
				continue
			}
			if d.Recv == nil {
				declared[pkg+"."+d.Name.Name] = true
			}
			names(d.Type)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						declared[pkg+"."+s.Name.Name] = true
						exportedParts(s.Type, names)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							declared[pkg+"."+n.Name] = true
							names(s.Type)
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

// exportedAllowlist names each exported identifier under internal/ that
// nothing outside its package reaches, with the reason it stays.
var exportedAllowlist = map[string]string{
	"admission.ErrOverBudget":       "sentinel error an admission refusal unwraps to, beside ErrHopDown and ErrHopBusy",
	"admission.MaxLoadFactor":       "FillLoad's documented load bound; the plan and experiments tests probe it",
	"arbtable.LimitUnit":            "IBA unit of LimitOfHighPriority, the scale of the exported Table.Limit",
	"bitrev.Reverse":                "the paper's bit-reversal permutation; Order is its table form",
	"core.ErrBadDistance":           "sentinel error Reserve wraps, for errors.Is",
	"core.ErrBadWeight":             "sentinel error Reserve wraps, for errors.Is",
	"core.ErrNoSpace":               "sentinel error, matched with errors.Is",
	"core.ErrProgramInFlight":       "sentinel error, matched with errors.Is",
	"core.ErrTornUpdate":            "sentinel error, matched with errors.Is",
	"core.ErrUnknownSeq":            "sentinel error, matched with errors.Is",
	"core.MaxSeqWeight":             "bound of the exported Reserve weight argument",
	"core.NewAllocator":             "bench/ probe, frozen until ROADMAP 3(b); the mad and ibtable tests build tables with it",
	"core.NewPortTableWithPolicy":   "test hook: NaturalOrder differential (admission's TestAdmitDecideDifferential)",
	"experiments.Churn":             "one point of ChurnSweep; bench/churnrun.go calls it, frozen until ROADMAP 3(d)",
	"experiments.FailoverPoint":     "one point of FailoverSweep, in the form of ScalePoint and HOLPoint",
	"experiments.Faults":            "one point of FaultsSweep, the unit its tests run",
	"experiments.HOLPoint":          "one point of the HOL sweep, the unit its tests run",
	"experiments.LargePayload":      "the paper's large payload, beside SmallPayload",
	"experiments.PlanPoint":         "one point of the plan sweep, the unit its tests run",
	"experiments.ScalePoint":        "one point of the scale sweep, the unit its tests run",
	"experiments.SetupWith":         "root bench_test.go harness, frozen until ROADMAP 3(a)",
	"experiments.SmallPayload":      "the paper's small payload; root bench_test.go harness",
	"fabric.DefaultISLIPIters":      "bench/ probe, frozen until ROADMAP 3(b); the default of Config.ISLIPIters",
	"fabric.ISLIPState":             "bench/ probe, frozen until ROADMAP 3(b)",
	"mad.ArbModHighBase":            "IBA wire constant of the exported ArbModifier encoding",
	"mad.ArbModifier":               "codec half the tests check SplitArbModifier against",
	"mad.AttrVLArbitration":         "IBA wire constant the codec writes and checks",
	"mad.DecodeArbBlock":            "bench/ probe, frozen until ROADMAP 3(b)",
	"mad.DecodeHighTable":           "test oracle: reference decoder of FuzzHighTableDecode (DESIGN.md §7)",
	"mad.DecodeSLtoVL":              "test oracle: round-trip check of EncodeSLtoVL",
	"mad.EncodeArbBlock":            "codec half of DecodeArbBlock",
	"mad.HighBlockSMP":              "bench/ probe, frozen until ROADMAP 3(b)",
	"mad.MTUBytes":                  "inverse of MTUCode",
	"mad.NumHighBlocks":             "blocks per high table, the bound of the exported block index",
	"mad.PortStateDown":             "lower bound of the exported PortInfo.PortState",
	"mad.SplitArbModifier":          "inverse of ArbModifier",
	"mad.Unmarshal":                 "bench/ probe, frozen until ROADMAP 3(b)",
	"plan.EvaluateState":            "model entry point over a caller-built control state; Evaluate and Headroom wrap it",
	"routing/cdg.CycleError":        "error type, matched with errors.As",
	"sl.BE":                         "Class value of the paper's traffic taxonomy",
	"sl.ByteTimeNs":                 "byte time in ns, for reading results in wall time (examples/quickstart)",
	"sl.CH":                         "Class value of the paper's traffic taxonomy",
	"sl.CollapsedMapping":           "SLtoVL mapping behind Config.DataVLs",
	"sl.DBTS":                       "Class value of the paper's traffic taxonomy",
	"sl.DistanceForHopDeadline":     "the paper's deadline-to-distance rule (examples/quickstart)",
	"sl.PBE":                        "Class value of the paper's traffic taxonomy",
	"sl.QoSFraction":                "the paper's 80 % reservable share behind MaxReservableWeight",
	"sl.Validate":                   "test oracle: the check on the Table 1 levels",
	"stats.JitterEdges":             "Figure 5's bucket edges, behind the exported JitterHist",
	"topology.GenerateDragonfly":    "generator behind the dragonfly Spec; cdg and topology tests call it",
	"topology.GenerateFatTree":      "generator behind the fat-tree Spec; cdg, topology and alloc tests call it",
	"topology.InterPorts":           "switch-to-switch ports of an irregular switch, beside IrregularPorts",
	"topology.IrregularPorts":       "radix of the paper's irregular class",
	"topology.MaxIrregularSwitches": "largest network Generate accepts",
	"topology.NewManual":            "builds hand-wired topologies; cdg and topology tests call it",
}
