package repro_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// legacyLedgers are the BENCH_PR*.json files written before the ledger
// schema: they hold hot-path and sharded-core runs in shapes of their
// own, enter the chain as they are and need only parse.
var legacyLedgers = map[string]bool{
	"BENCH_PR4.json": true,
	"BENCH_PR7.json": true,
	"BENCH_PR9.json": true,
}

// benchLedger is a BENCH_PR<N>.json file: the benchmark results one
// change measured, on the host it stamps, each file naming the one
// before it (previous).  Every run compares the change against one base
// build (against: the parent commit, or an older one) over interleaved
// pairs of `bash bench/run.sh -workload W -seed S -seconds T`, one pair
// per seed, and records per metric the quartiles of both sides and the
// pairs in which the change was better.
type benchLedger struct {
	Previous string `json:"previous"`
	Host     struct {
		CPU   string `json:"cpu"`
		Nproc int    `json:"nproc"`
		Go    string `json:"go"`
	} `json:"host"`
	Method string `json:"method"`
	Runs   []struct {
		Workload string                  `json:"workload"`
		Against  string                  `json:"against"`
		Seeds    []int64                 `json:"seeds"`
		Seconds  float64                 `json:"seconds"`
		Metrics  map[string]ledgerMetric `json:"metrics"`
	} `json:"runs"`
}

type ledgerMetric struct {
	Base   ledgerQuartiles `json:"base"`
	Change ledgerQuartiles `json:"change"`
	Wins   int             `json:"wins"`
}

type ledgerQuartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func (q ledgerQuartiles) ordered() bool { return q.Q1 <= q.Median && q.Median <= q.Q3 }

// benchmarkWorkloads returns the workload names BENCHMARK.json declares.
func benchmarkWorkloads(t *testing.T) map[string]bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	return names
}

// TestBenchLedger parses every BENCH_PR*.json at the repository root.
// Taken in PR-number order they form one chain: every file after the
// legacy ones follows the ledger schema (benchLedger, no unknown field),
// carries a host stamp, names the file before it as previous, and
// measures only workloads and metrics BENCHMARK.json names, with
// ordered quartiles and at most one win per seed.
func TestBenchLedger(t *testing.T) {
	paths, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	number := regexp.MustCompile(`^BENCH_PR([0-9]+)\.json$`)
	pr := map[string]int{}
	for _, p := range paths {
		m := number.FindStringSubmatch(p)
		if m == nil {
			t.Fatalf("%s: a ledger file is named BENCH_PR<N>.json", p)
		}
		pr[p], _ = strconv.Atoi(m[1])
	}
	sort.Slice(paths, func(i, j int) bool { return pr[paths[i]] < pr[paths[j]] })
	for name := range legacyLedgers {
		if pr[name] == 0 {
			t.Errorf("legacy ledger %s is missing", name)
		}
	}
	workloads, metrics := benchmarkWorkloads(t), benchmarkMetricNames(t)
	for k, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if legacyLedgers[p] {
			if !json.Valid(data) {
				t.Errorf("%s does not parse as JSON", p)
			}
			continue
		}
		var l benchLedger
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if k == 0 || l.Previous != paths[k-1] {
			t.Errorf("%s: previous is %q, the file before it is %q", p, l.Previous, paths[max(k-1, 0)])
		}
		if l.Host.CPU == "" || l.Host.Nproc < 1 || l.Host.Go == "" {
			t.Errorf("%s: host stamp %+v needs the CPU model, nproc and the Go version", p, l.Host)
		}
		if l.Method == "" || len(l.Runs) == 0 {
			t.Errorf("%s: no method or no runs", p)
		}
		for _, r := range l.Runs {
			if !workloads[r.Workload] {
				t.Errorf("%s: workload %q is not in BENCHMARK.json", p, r.Workload)
			}
			if r.Against == "" || len(r.Seeds) == 0 || r.Seconds <= 0 || len(r.Metrics) == 0 {
				t.Errorf("%s: %s run needs a base build, seeds, -seconds and metrics", p, r.Workload)
			}
			for name, m := range r.Metrics {
				if !metrics[name] {
					t.Errorf("%s: %s metric %q is not in BENCHMARK.json", p, r.Workload, name)
				}
				if !m.Base.ordered() || !m.Change.ordered() || m.Wins < 0 || m.Wins > len(r.Seeds) {
					t.Errorf("%s: %s %s: quartiles %+v / %+v out of order or %d wins over %d pairs",
						p, r.Workload, name, m.Base, m.Change, m.Wins, len(r.Seeds))
				}
			}
		}
	}
}

// TestNoBenchmarksOutsideBench keeps one measurement path.  bench/ times
// every layer as a probe of a BENCHMARK.json workload, and a perf claim
// is a number in a BENCH_PR<N>.json ledger; a `go test -bench` function
// elsewhere measures beside that path and records nowhere.  The gate
// parses every _test.go file the go tool builds outside bench/.
func TestNoBenchmarksOutsideBench(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "bench" || name == "testdata" || path != "." && (name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				t.Errorf("%s: func %s: time it as a probe in bench/ and record it in the BENCH_PR<N>.json ledger (TestBenchLedger), not as a go test benchmark",
					fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
