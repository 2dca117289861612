package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

type suiteConfig struct {
	seed    int64
	seconds int
	outDir  string
}

// hostInfo stamps a result set with what bounds its wall-clock numbers.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// workloadResult is one workload's repetitions, raw, plus the traced
// repetition.
type workloadResult struct {
	Name        string        `json:"name"`
	Repetitions []*repetition `json:"repetitions"`
	Traced      *repetition   `json:"traced"`
}

// results is the schema of results.json.
type results struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *results) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// values returns one end-to-end metric over the repetitions that
// completed; one whose process died measured nothing.
func (w *workloadResult) values(metric string) []float64 {
	var out []float64
	for _, rep := range w.completed() {
		out = append(out, rep.EndToEnd[metric])
	}
	return out
}

// completed returns the repetitions that ran to their end.
func (w *workloadResult) completed() []*repetition {
	var out []*repetition
	for _, rep := range w.Repetitions {
		if rep.EndToEnd != nil {
			out = append(out, rep)
		}
	}
	return out
}

// runChild runs one repetition in a fresh process (a re-exec of this
// binary), so no repetition inherits another's heap, caches or GC
// state.  The child's breakdown, if any, is forwarded to w.
func runChild(cfg suiteConfig, s spec, traced bool, w io.Writer) (*repetition, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reportPath := filepath.Join(cfg.outDir, "repetition.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", s.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir, "-report", reportPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", s.name, err)
	}
	// Everything but the last line (the machine-readable result) is the
	// traced repetition's breakdown.
	if i := lastLineStart(out); i > 0 {
		if _, err := w.Write(out[:i]); err != nil {
			return nil, err
		}
	}
	buf, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(reportPath); err != nil {
		return nil, err
	}
	rep := &repetition{}
	if err := json.Unmarshal(buf, rep); err != nil {
		return nil, fmt.Errorf("%s repetition record: %w", s.name, err)
	}
	return rep, nil
}

func lastLineStart(out []byte) int {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	for i := end - 1; i >= 0; i-- {
		if out[i] == '\n' {
			return i + 1
		}
	}
	return 0
}

// checkCounts fails every repetition whose simulated counts differ from
// the first completed one's: they are a function of the seed, so any
// difference is a determinism failure.
func (w *workloadResult) checkCounts() {
	reps := w.completed()
	if len(reps) == 0 {
		return
	}
	for _, name := range exactCounts {
		for _, rep := range reps[1:] {
			if a, b := reps[0].Counts[name], rep.Counts[name]; a != b {
				rep.fail("%s differs between two repetitions of one seed: %v vs %v", name, a, b)
			}
		}
	}
}

// runSuite measures every workload, sets times over: the spec's count
// of untraced repetitions, then one traced.  The sets take turns
// repetition by repetition, so a slow phase of the host falls on all of
// them alike.  A repetition that cannot run counts as failed rather
// than stopping the suite.
func runSuite(cfg suiteConfig, sets int, w io.Writer) ([]*results, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	all := make([]*results, sets)
	for i := range all {
		all[i] = &results{
			Host: hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
				GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH},
			Seed: cfg.seed, Seconds: cfg.seconds,
		}
	}
	for _, s := range specs {
		wrs := make([]*workloadResult, sets)
		for i, res := range all {
			wrs[i] = &workloadResult{Name: s.name}
			res.Workloads = append(res.Workloads, wrs[i])
		}
		for i := 0; i < s.reps; i++ {
			for _, wr := range wrs {
				rep, err := runChild(cfg, s, false, w)
				if err != nil {
					rep = &repetition{Workload: s.name, Seed: cfg.seed}
					rep.fail("repetition %d did not complete: %v", i, err)
				}
				wr.Repetitions = append(wr.Repetitions, rep)
				fmt.Fprintf(w, "%s repetition %d/%d: %.4g work/s, %d attempted, %d failed\n",
					s.name, i+1, s.reps, rep.EndToEnd[mWork], rep.Attempted, rep.Failed)
			}
		}
		for _, wr := range wrs {
			wr.checkCounts()
			traced, err := runChild(cfg, s, true, w)
			if err != nil {
				traced = &repetition{Workload: s.name, Seed: cfg.seed, Traced: true}
				traced.fail("traced repetition did not complete: %v", err)
			}
			wr.Traced = traced
		}
	}
	return all, nil
}

// failures prints every failed operation with its workload and
// repetition and returns how many there were.
func (r *results) failures(w io.Writer) int64 {
	var failed int64
	for _, wr := range r.Workloads {
		all := append(append([]*repetition(nil), wr.Repetitions...), wr.Traced)
		for i, rep := range all {
			label := fmt.Sprintf("repetition %d", i)
			if rep.Traced {
				label = "traced repetition"
			}
			for _, f := range rep.Failures {
				fmt.Fprintf(w, "FAILED %s %s: %s\n", wr.Name, label, f)
			}
			failed += rep.Failed
		}
	}
	return failed
}

func (r *results) print(w io.Writer) {
	fmt.Fprintf(w, "\nseed %d, %d s per repetition, %d CPUs, GOMAXPROCS %d, %s\n",
		r.Seed, r.Seconds, r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.GoVersion)
	fmt.Fprintln(w, "\nEnd-to-end metrics (median over repetitions, tracing off):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tmin\tmax\tn completed/run")
	for _, wr := range r.Workloads {
		for _, m := range endToEnd {
			s := summarize(wr.values(m.Name))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%d/%d\n",
				wr.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N, len(wr.Repetitions))
		}
		var attempted, failed int64
		for _, rep := range wr.Repetitions {
			attempted += rep.Attempted
			failed += rep.Failed
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_ratio\tratio\t%.5g\t\t\t\t\t%d/%d\n",
			wr.Name, ratio(float64(failed), float64(attempted)), failed, attempted)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nPer-layer metrics (one traced repetition per workload):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, wr := range r.Workloads {
		fmt.Fprintf(tw, "\t%s", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s", m.Name, m.Unit)
		for _, wr := range r.Workloads {
			fmt.Fprintf(tw, "\t%.5g", wr.Traced.PerLayer[m.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func (r *results) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// runSuiteCommand is the default command: measure, print, write
// results.json, and report whether every operation succeeded.  With
// selfcheck it measures two sets and also requires them to agree within
// the benchmark's own bounds.
func runSuiteCommand(cfg suiteConfig, selfcheck bool) (bool, error) {
	w := os.Stdout
	sets := 1
	if selfcheck {
		sets = 2
	}
	all, err := runSuite(cfg, sets, w)
	if err != nil {
		return false, err
	}
	all[0].print(w)
	ok := true
	for i, name := range []string{"results.json", "results-selfcheck.json"}[:sets] {
		if err := all[i].write(filepath.Join(cfg.outDir, name)); err != nil {
			return false, err
		}
		ok = all[i].failures(w) == 0 && ok
	}
	if selfcheck {
		ok = compareResults(w, all[0], all[1]).agree() && ok
	}
	return ok, nil
}
