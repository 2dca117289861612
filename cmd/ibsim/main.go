// Command ibsim runs the paper's evaluation experiments and prints the
// tables and figures of Alfaro, Sánchez and Duato (ICPP 2003), plus
// the ablations, control-plane and fabric studies built on them.
//
// Usage:
//
//	ibsim -exp all                  # every table and figure, full scale
//	ibsim -exp table2 -scale quick  # one experiment, reduced scale
//	ibsim -exp hol -scale tiny -json  # one experiment's JSON report
//	ibsim -exp hol -scenario scenarios/hol-islip1.json  # edit its scenario
//
// ibsim -h lists every experiment and the flags each one reads; a flag
// the chosen experiment does not read is refused.  -scenario decodes a
// JSON scenario document (experiments.DecodeScenario) over the
// experiment's base at -scale; every JSON report carries the scenario
// it ran in the same form, so a report's "scenario" block replays it.
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
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sl"
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
	if err != nil {
		return c.named(err)
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
// chosen experiment's base scenario at -scale with the -scenario file
// and the flags applied.
type config struct {
	exp, scale, scenario string
	at                   experiments.Scale    // -scale
	sc                   experiments.Scenario // zero for an experiment that runs none
	set                  map[string]string    // the flags the command line set, by name, with their values

	seed                         int64
	switches, trace, churnSeeds  int
	shards, headroomSL, parallel int
	asJSON, viz, metrics         bool
	cpuProfile, memProfile       string
}

// commonFlags are read by every experiment; any other flag set on the
// command line must be one the chosen experiment lists.
var commonFlags = []string{"exp", "scale", "parallel", "cpuprofile", "memprofile"}

// parse reads args into a config and resolves the experiment it names.
// A flag the experiment does not read, a value out of its range, a
// scenario Validate refuses and an unknown -exp or -scale are all
// errors.
func parse(args []string, stderr io.Writer) (*experiment, *config, error) {
	fs := flag.NewFlagSet("ibsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{set: map[string]string{}}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	scaleNames := make([]string, len(scales))
	for i, s := range scales {
		scaleNames[i] = s.String()
	}
	fs.StringVar(&c.exp, "exp", "all", "experiment: "+strings.Join(names, "|"))
	fs.StringVar(&c.scale, "scale", "full", "scale preset: "+strings.Join(scaleNames, "|"))
	fs.StringVar(&c.scenario, "scenario", "", "JSON scenario `file` decoded over the experiment's base at -scale (fields the experiment's axis sets are refused)")
	fs.Int64Var(&c.seed, "seed", 0, "random seed (default: the scenario's)")
	fs.IntVar(&c.switches, "switches", 0, "irregular network size (default: the scenario's)")
	fs.BoolVar(&c.asJSON, "json", false, "print the experiment's JSON report instead of its tables")
	fs.BoolVar(&c.viz, "viz", false, "render figures 4 and 5 as terminal charts too")
	fs.IntVar(&c.parallel, "parallel", 0, "worker goroutines for sweeps (0 = GOMAXPROCS)")
	fs.BoolVar(&c.metrics, "metrics", false, "collect per-port arbitration metrics and append a JSON dump")
	fs.IntVar(&c.trace, "trace", 0, "record the last N arbitration decisions per run (implies -metrics)")
	fs.IntVar(&c.churnSeeds, "churn-seeds", 4, "independent seeds for -exp churn")
	fs.IntVar(&c.shards, "shards", 0, "partition each fabric into N shards simulated in conservative-lookahead windows (0/1 = classic single engine; more shards than switches is refused); -exp shardbench runs 1 and each doubling up to N (default 8)")
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
		c.set[f.Name] = f.Value.String()
		if !slices.Contains(commonFlags, f.Name) && !slices.Contains(e.flags, f.Name) {
			unread = append(unread, f.Name)
		}
	})
	if len(unread) > 0 {
		return nil, nil, fmt.Errorf("-exp %s does not read %s (it reads %s)", e.name, dashed(unread), dashed(e.flags))
	}
	i := slices.Index(scaleNames, c.scale)
	if i < 0 {
		return nil, nil, fmt.Errorf("unknown -scale %q (valid: %s)", c.scale, strings.Join(scaleNames, ", "))
	}
	c.at = scales[i]
	// ChurnSweep allocates a job, a name and a result per seed before
	// the first seed runs, so a huge count must be refused here.
	const maxChurnSeeds = 1024
	switch {
	case c.churnSeeds < 1 || c.churnSeeds > maxChurnSeeds:
		return nil, nil, fmt.Errorf("-churn-seeds %d outside [1, %d]", c.churnSeeds, maxChurnSeeds)
	case c.parallel < 0:
		return nil, nil, fmt.Errorf("-parallel %d: the worker count cannot be negative", c.parallel)
	}
	if _, err := sl.ByID(sl.DefaultLevels, uint8(c.headroomSL)); err != nil || c.headroomSL != int(uint8(c.headroomSL)) {
		return nil, nil, fmt.Errorf("-plan-headroom-sl %d: not a service level of the evaluation", c.headroomSL)
	}
	if e.scenario == nil {
		return e, c, nil
	}
	sc := e.scenario(c.at)
	if c.scenario != "" {
		data, err := os.ReadFile(c.scenario)
		if err == nil {
			sc, err = experiments.DecodeScenario(data, sc, e.axis...)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("-scenario %s: %w", c.scenario, err)
		}
	}
	c.sc = c.applyFlags(sc)
	if err := c.sc.Validate(e.axis...); err != nil {
		return nil, nil, c.named(err)
	}
	return e, c, nil
}

// applyFlags is sc with the scenario flags the command line set
// applied: -seed, -switches, -shards and -trace set their fields, and
// -metrics, or a positive -trace, turns the metrics on.
func (c *config) applyFlags(sc experiments.Scenario) experiments.Scenario {
	if _, ok := c.set["seed"]; ok {
		sc.Seed = c.seed
	}
	if _, ok := c.set["switches"]; ok {
		sc.Topology.Switches = c.switches
	}
	if _, ok := c.set["shards"]; ok {
		sc.Fabric.Shards = c.shards
	}
	if _, ok := c.set["trace"]; ok {
		sc.Trace = c.trace
	}
	sc.Metrics = sc.Metrics || c.metrics || c.trace > 0
	return sc
}

// flagFields maps the scenario fields a flag sets, and Validate can
// refuse, to the flag.
var flagFields = map[string]string{"Topology.Switches": "switches", "Fabric.Shards": "shards", "Trace": "trace"}

// named prefixes a scenario refusal with what set the refused fields:
// the flags that set them, or else the -scenario file.
func (c *config) named(err error) error {
	var fe *experiments.FieldError
	if !errors.As(err, &fe) {
		return err
	}
	var by []string
	for _, field := range fe.Fields {
		if name := flagFields[field]; name != "" && c.set[name] != "" {
			by = append(by, "-"+name+" "+c.set[name])
		}
	}
	if len(by) == 0 && c.scenario != "" {
		by = append(by, "-scenario "+c.scenario)
	}
	if len(by) == 0 {
		return err
	}
	return fmt.Errorf("%s: %w", strings.Join(by, " "), err)
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
