// Command ibsim runs the paper's evaluation experiments and prints the
// tables and figures of Alfaro, Sánchez and Duato (ICPP 2003), plus
// the ablations, control-plane and fabric studies built on them.
//
// Usage:
//
//	ibsim -exp all                  # every table and figure, full scale
//	ibsim -exp table2 -scale quick  # one experiment, reduced scale
//	ibsim -exp scaling -sizes 8,16,32,64
//	ibsim -exp hol -scale tiny -json  # one experiment's JSON report
//
// ibsim -h lists every experiment and the flags each one reads; a flag
// the chosen experiment does not read is refused.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sl"
	"repro/internal/topology"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(1)
	}
}

// run parses the command line, runs the chosen experiment and writes
// its table (or, under -json, its report) to stdout.
func run(args []string, stdout, stderr io.Writer) (err error) {
	e, c, err := parse(args, stderr)
	if err != nil {
		return err
	}

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(c.memProfile)
			}
		}()
	}

	start := time.Now()
	res, err := e.run(c)
	if errors.Is(err, topology.ErrShardCount) && slices.Contains(e.flags, "shards") {
		return fmt.Errorf("-shards %d: %w", c.shards, err)
	}
	if err != nil {
		return err
	}
	label := c.exp
	if c.asJSON {
		label = "json"
		err = encodeIndented(stdout, res.report)
	} else {
		err = res.table(stdout)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "\n[%s in %v]\n", label, time.Since(start).Round(time.Millisecond))
	return nil
}

// config is one parsed command line: the value of every flag, and the
// chosen experiment's parameters at -scale.
type config struct {
	exp, scale string
	preset     any // nil for an experiment without scale presets

	seed, benchHorizon             int64
	switches, traces, trace        int
	churnSeeds, islipIters, shards int
	benchK, benchA, benchP, benchH int
	headroomSL, parallel           int
	sizes, benchClass, benchShards string
	sizeList                       []int // -sizes, parsed and range-checked by parse
	asJSON, viz, metrics           bool
	cpuProfile, memProfile         string
}

// commonFlags are read by every experiment; any other flag set on the
// command line must be one the chosen experiment lists.
var commonFlags = []string{"exp", "scale", "parallel", "cpuprofile", "memprofile"}

// parse reads args into a config and resolves the experiment it names.
// A flag the experiment does not read, a value out of its range and an
// unknown -exp or -scale are all errors.
func parse(args []string, stderr io.Writer) (*experiment, *config, error) {
	fs := flag.NewFlagSet("ibsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	fs.StringVar(&c.exp, "exp", "all", "experiment: "+strings.Join(names, "|"))
	fs.StringVar(&c.scale, "scale", "full", "scale preset: "+strings.Join(scales, "|"))
	fs.Int64Var(&c.seed, "seed", 0, "override random seed (0 keeps the preset's)")
	fs.IntVar(&c.switches, "switches", 0, "override network size (0 keeps the preset's)")
	fs.StringVar(&c.sizes, "sizes", "8,16,32", "network sizes for -exp scaling")
	fs.IntVar(&c.traces, "traces", 50, "request traces for -exp ablation-fill")
	fs.BoolVar(&c.asJSON, "json", false, "print the experiment's JSON report instead of its tables")
	fs.BoolVar(&c.viz, "viz", false, "render figures 4 and 5 as terminal charts too")
	fs.IntVar(&c.parallel, "parallel", 0, "worker goroutines for sweeps (0 = GOMAXPROCS)")
	fs.BoolVar(&c.metrics, "metrics", false, "collect per-port arbitration metrics and append a JSON dump")
	fs.IntVar(&c.trace, "trace", 0, "record the last N arbitration decisions per run (implies -metrics)")
	fs.IntVar(&c.churnSeeds, "churn-seeds", 4, "independent seeds for -exp churn")
	fs.IntVar(&c.islipIters, "islip-iters", 0, "iSLIP iteration depth for -exp hol (0 = default)")
	fs.IntVar(&c.shards, "shards", 0, "partition each fabric into N shards simulated in conservative-lookahead windows (0/1 = classic single engine; more shards than switches is refused)")
	fs.StringVar(&c.benchClass, "bench-class", "fattree", "topology class for -exp shardbench: fattree|dragonfly")
	fs.IntVar(&c.benchK, "bench-k", 8, "fat-tree arity for -exp shardbench")
	fs.IntVar(&c.benchA, "bench-a", 16, "dragonfly switches per group for -exp shardbench")
	fs.IntVar(&c.benchP, "bench-p", 8, "dragonfly hosts per switch for -exp shardbench")
	fs.IntVar(&c.benchH, "bench-h", 8, "dragonfly global links per switch for -exp shardbench")
	fs.StringVar(&c.benchShards, "bench-shards", "1,2,4,8", "shard counts for -exp shardbench")
	fs.Int64Var(&c.benchHorizon, "bench-horizon", 0, "simulated horizon for -exp shardbench, byte times (0 = preset)")
	fs.IntVar(&c.headroomSL, "plan-headroom-sl", 4, "service level the -exp plan headroom bisection probes")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile (after the run) to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage of ibsim:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExperiments and the flags each reads besides -%s:\n", strings.Join(commonFlags, " -"))
		for _, e := range registry {
			fmt.Fprintf(stderr, "  %-18s %s\n", e.name, dashed(e.flags))
		}
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	var e *experiment
	for i := range registry {
		if registry[i].name == c.exp {
			e = &registry[i]
		}
	}
	if e == nil {
		return nil, nil, fmt.Errorf("unknown experiment %q (valid: %s)", c.exp, strings.Join(names, ", "))
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(commonFlags, f.Name) && !slices.Contains(e.flags, f.Name) {
			unread = append(unread, f.Name)
		}
	})
	if len(unread) > 0 {
		return nil, nil, fmt.Errorf("-exp %s does not read %s (it reads %s)", e.name, dashed(unread), dashed(e.flags))
	}
	if !slices.Contains(scales, c.scale) {
		return nil, nil, fmt.Errorf("unknown -scale %q (valid: %s)", c.scale, strings.Join(scales, ", "))
	}
	if e.preset != nil {
		c.preset = e.preset(c.scale)
	}
	// ChurnSweep allocates a job, a name and a result per seed before
	// the first seed runs, so a huge count must be refused here.
	const maxChurnSeeds = 1024
	switch {
	case c.churnSeeds < 1 || c.churnSeeds > maxChurnSeeds:
		return nil, nil, fmt.Errorf("-churn-seeds %d outside [1, %d]", c.churnSeeds, maxChurnSeeds)
	case c.traces < 1:
		return nil, nil, fmt.Errorf("-traces %d: need at least one trace", c.traces)
	case c.trace < 0:
		return nil, nil, fmt.Errorf("-trace %d: the event tail cannot be negative", c.trace)
	case c.islipIters < 0:
		return nil, nil, fmt.Errorf("-islip-iters %d: the iteration depth cannot be negative", c.islipIters)
	case c.benchHorizon < 0:
		return nil, nil, fmt.Errorf("-bench-horizon %d: the simulated horizon cannot be negative", c.benchHorizon)
	case c.shards < 0:
		return nil, nil, fmt.Errorf("-shards %d: the shard count cannot be negative", c.shards)
	case c.parallel < 0:
		return nil, nil, fmt.Errorf("-parallel %d: the worker count cannot be negative", c.parallel)
	}
	if _, err := sl.ByID(sl.DefaultLevels, uint8(c.headroomSL)); err != nil || c.headroomSL != int(uint8(c.headroomSL)) {
		return nil, nil, fmt.Errorf("-plan-headroom-sl %d: not a service level of the evaluation", c.headroomSL)
	}
	if c.switches != 0 {
		if err := checkSwitchCount(c.switches); err != nil {
			return nil, nil, fmt.Errorf("-switches %d: %w", c.switches, err)
		}
	}
	sizes, err := parseSizes(c.sizes)
	for i := 0; err == nil && i < len(sizes); i++ {
		err = checkSwitchCount(sizes[i])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("-sizes %s: %w", c.sizes, err)
	}
	c.sizeList = sizes
	return e, c, nil
}

// checkSwitchCount refuses a network size no topology can be generated
// at: fewer than two switches, or more than the largest irregular
// network topology.Generate builds.
func checkSwitchCount(n int) error {
	if n < 2 || n > topology.MaxIrregularSwitches {
		return fmt.Errorf("network size %d outside [2, %d]", n, topology.MaxIrregularSwitches)
	}
	return nil
}

// dashed renders flag names as the command line spells them.
func dashed(flags []string) string {
	if len(flags) == 0 {
		return "no other flag"
	}
	return "-" + strings.Join(flags, " -")
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating -memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
