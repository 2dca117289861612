// Command bench is the repository's benchmark: six named workloads
// (four of them listed in BENCHMARK.json), four end-to-end metrics,
// per-layer metrics from a traced repetition, and the checks that say
// the outputs are correct.  See README.md.
//
// One repetition (what BENCHMARK.json's command runs):
//
//	bench -workload wrr-k8 -seed 7 -seconds 25 -trace 0
//
// prints one JSON object on its last line.  With no -workload it runs
// the whole suite: every workload, several repetitions each in a fresh
// child process, then one traced repetition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// watchdog bounds one repetition's host time, so a defect that stops
// simulated time from advancing is reported instead of hanging the
// caller.  Simulated time has its own caps (drainCapBT, churnHoldCap).
const watchdog = 170 * time.Second

func main() {
	var (
		workload  = flag.String("workload", "", "run one repetition of this workload and print its result as JSON")
		seed      = flag.Int64("seed", 7, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 4, "how long one repetition measures (sets the number of timed windows)")
		trace     = flag.Int("trace", 0, "1 = traced repetition reporting the per-layer metrics")
		report    = flag.String("report", "", "also write the repetition's full record to this file")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and traces")
		compare   = flag.Bool("compare", false, "compare two results.json files given as arguments")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and compare the two result sets")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("flags out of range: -seconds 1..60, -trace 0|1"))
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.json files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		s, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		time.AfterFunc(watchdog, func() {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d still running after %v; giving up\n", s.name, *seed, watchdog)
			os.Exit(2)
		})
		if err := runOne(s, *seed, *seconds, *trace == 1, *outDir, *report); err != nil {
			fatal(err)
		}
	default:
		cfg := suiteConfig{seed: *seed, seconds: *seconds, outDir: *outDir}
		ok, err := runSuiteCommand(cfg, *selfcheck)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one repetition and prints the contract's result line:
// the end-to-end metrics untraced, the per-layer metrics traced.
func runOne(s spec, seed int64, seconds int, traced bool, outDir, reportPath string) error {
	var rep *repetition
	var err error
	if traced {
		rep, err = runTraced(s, seed, seconds, sizesFor(seconds), outDir, os.Stdout)
	} else {
		rep, err = runUntraced(s, seed, seconds, sizesFor(seconds))
	}
	if err != nil {
		return err
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d FAILED: %s\n", s.name, seed, f)
	}
	if reportPath != "" {
		buf, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, buf, 0o644); err != nil {
			return err
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, rep.EndToEnd
	if traced {
		defs, values = perLayer, rep.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
