package repro_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignNamesExist keeps DESIGN.md, which describes the present,
// from naming Go code that no longer exists.  Every backticked span that
// reads as a Go name — an identifier or a dotted path of them, maybe
// behind a '*' and before a call's parentheses — must resolve against
// the declarations of the repository's Go files, tests included:
//
//   - pkg.Name: Name is declared at the top level of a package named pkg;
//   - Type.Member (after an optional pkg.): Member is a field or method
//     of a type named Type;
//   - a lone Name, or any other path: every segment is declared somewhere
//     (a package, a top-level name, a field, a method, or a JSON key a
//     struct tag declares, since DESIGN.md quotes report fields).
//
// A span that resolves to none of them must match one of
// designNamePatterns, each with the reason it is not a Go name, or the
// test fails naming it.  EXPERIMENTS.md and CHANGES.md are history and
// are not checked.
func TestDesignNamesExist(t *testing.T) {
	d := collectDeclarations(t)
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	metrics := benchmarkMetricNames(t)
	missing := map[string]bool{}
	for _, m := range backticked.FindAllStringSubmatch(string(doc), -1) {
		name := goName.FindStringSubmatch(m[1])
		if name == nil {
			continue // an expression, a command, a path: not a Go name
		}
		if path := name[1]; !d.resolves(path) && !metrics[path] && designNameReason(path) == "" {
			missing[path] = true
		}
	}
	var names []string
	for n := range missing {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Errorf("DESIGN.md names `%s`, which no Go file declares", n)
	}
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// goName matches a Go name as prose writes it: an optional pointer
	// star, a dotted path of identifiers, an optional argument list.
	goName = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\([^()]*\))?$`)
)

// designNamePatterns are the spans DESIGN.md may backtick that are not
// names of this repository's Go code, each with the reason.
var designNamePatterns = []struct {
	re     *regexp.Regexp
	reason string
}{
	{regexp.MustCompile(`\.(go|json)$`), "a file name"},
	{regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`), "a benchmark metric's snake_case suffix, which no Go name uses"},
	{regexp.MustCompile(`^[a-zA-Z]$`), "a single letter is math notation (the paper's E(i,j), an input i, an output j)"},
	{regexp.MustCompile(`^(Get|Set|VLArbitrationTable|LimitOfHighPriority)$`), "an IBA method, attribute or field, in the specification's notation (Set(VLArbitrationTable))"},
	{regexp.MustCompile(`^(runtime|fmt)\.`), "the Go standard library: profile entries and the error constructor"},
}

// designNameReason returns why a span that resolves to no declaration
// may stay, or "" when it may not.
func designNameReason(path string) string {
	if types.Universe.Lookup(path) != nil {
		return "a Go builtin"
	}
	if token.IsKeyword(path) {
		return "a Go keyword"
	}
	for _, p := range designNamePatterns {
		if p.re.MatchString(path) {
			return p.reason
		}
	}
	return ""
}

// benchmarkMetricNames returns the metric names BENCHMARK.json declares;
// DESIGN.md quotes them, and they are not Go names.
func benchmarkMetricNames(t *testing.T) map[string]bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// declarations indexes what the repository's Go files declare.
type declarations struct {
	pkgTop  map[string]map[string]bool // package name -> top-level names
	members map[string]map[string]bool // type name -> fields and methods
	any     map[string]bool            // every name above, and the packages
}

func (d *declarations) add(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
	d.any[name] = true
}

// resolves reports whether a dotted path names declared code.
func (d *declarations) resolves(path string) bool {
	segs := strings.Split(path, ".")
	if top := d.pkgTop[segs[0]]; top != nil && len(segs) > 1 {
		if !top[segs[1]] {
			return false
		}
		segs = segs[1:]
	}
	if len(segs) > 1 && d.members[segs[0]] != nil {
		return d.members[segs[0]][segs[1]] && d.allDeclared(segs[2:])
	}
	return d.allDeclared(segs)
}

func (d *declarations) allDeclared(segs []string) bool {
	for _, s := range segs {
		if !d.any[s] {
			return false
		}
	}
	return true
}

// collectDeclarations parses every Go file of the repository.
func collectDeclarations(t *testing.T) *declarations {
	d := &declarations{pkgTop: map[string]map[string]bool{}, members: map[string]map[string]bool{}, any: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || e.Name() == "out") && path != "." {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		d.any[pkg] = true
		if dir := filepath.Base(filepath.Dir(path)); dir != "." {
			d.any[dir] = true // the package as imported, main packages too
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.add(d.pkgTop, pkg, decl.Name.Name)
				} else {
					d.add(d.members, receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.add(d.pkgTop, pkg, spec.Name.Name)
						d.addMembers(spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.add(d.pkgTop, pkg, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// addMembers records the fields and interface methods of a type
// expression, those of nested struct types included, as members of
// typeName.
func (d *declarations) addMembers(typeName string, expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		var fields *ast.FieldList
		switch n := n.(type) {
		case *ast.StructType:
			fields = n.Fields
		case *ast.InterfaceType:
			fields = n.Methods
		default:
			return true
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				d.add(d.members, typeName, name.Name)
			}
			if f.Tag != nil {
				tag, _ := strconv.Unquote(f.Tag.Value)
				if key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); key != "" && key != "-" {
					d.any[key] = true
				}
			}
			if len(f.Names) == 0 { // embedded: its promoted members count too
				d.add(d.members, typeName, receiverType(f.Type))
			}
		}
		return true
	})
}

// receiverType returns the name of a receiver or embedded type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
