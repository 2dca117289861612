// Command ibtopo generates the topologies of the evaluation —
// irregular networks, k-ary fat-trees and canonical dragonflies — and
// reports their structure and routing properties: adjacency, routing
// levels, the path-length histogram, and the channel-dependency-graph
// proof that the class's routing engine is deadlock-free on the
// generated instance.
//
// Usage:
//
//	ibtopo -switches 16 -seed 42
//	ibtopo -switches 64 -seed 7 -adjacency
//	ibtopo -class fattree -k 4
//	ibtopo -class dragonfly -a 4 -p 2 -h 2
//
// A shape flag the chosen class does not read is an error naming it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibtopo:", err)
		os.Exit(1)
	}
}

// classFlags are the shape flags each class reads; a set flag its class
// does not read is refused rather than silently ignored.
var classFlags = map[topology.Class][]string{
	topology.Irregular: {"switches", "seed"},
	topology.FatTree:   {"k"},
	topology.Dragonfly: {"a", "p", "h"},
}

// run parses the command line and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ibtopo", flag.ContinueOnError)
	var (
		class     = fs.String("class", "irregular", "topology class: irregular|fattree|dragonfly")
		switches  = fs.Int("switches", 16, "number of switches (irregular)")
		seed      = fs.Int64("seed", 42, "random seed (irregular)")
		k         = fs.Int("k", 4, "fat-tree arity")
		a         = fs.Int("a", 4, "dragonfly switches per group")
		p         = fs.Int("p", 2, "dragonfly hosts per switch")
		h         = fs.Int("h", 2, "dragonfly global links per switch")
		adjacency = fs.Bool("adjacency", false, "print the full adjacency list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cls, err := topology.ParseClass(*class)
	if err != nil {
		return err
	}
	reads := classFlags[cls]
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "class" && f.Name != "adjacency" && !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("-class %s does not read %s (it reads -%s)", *class, strings.Join(unread, " "), strings.Join(reads, " -"))
	}
	spec := topology.Spec{Class: cls, Switches: *switches, Seed: *seed, K: *k, A: *a, P: *p, H: *h}
	topo, err := spec.Generate()
	if err != nil {
		return err
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	routes, err := routing.ComputeFor(topo)
	if err != nil {
		return err
	}
	if cls == topology.Irregular {
		// The legality check is specific to up*/down* ordering.
		if err := routes.CheckLegal(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "topology: %s — %d switches, %d hosts\n", spec.Label(), topo.NumSwitches, topo.NumHosts())

	links := 0
	maxLevel := 0
	for s := 0; s < topo.NumSwitches; s++ {
		links += len(topo.Neighbors(s))
		if routes.Level(s) > maxLevel {
			maxLevel = routes.Level(s)
		}
	}
	fmt.Fprintf(stdout, "inter-switch links: %d (directed port pairs: %d)\n", links/2, links)
	if cls != topology.Dragonfly {
		// Level is tree depth for up*/down* and fat-tree routing; the
		// dragonfly engine does not use levels.
		fmt.Fprintf(stdout, "routing tree depth: %d\n", maxLevel)
	}
	fmt.Fprintf(stdout, "VL planes: %d (%d base data VLs)\n", routes.Planes(), routes.BaseVLs())

	// Deadlock-freedom proof: build the channel-dependency graph of
	// every route on every base VL and verify it is acyclic.  When the
	// hop VLs are plane-separable the proof walks base VL 0 alone and
	// scales the counts; the printed graph is the same.
	st, err := cdg.Verify(topo, routes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "channel-dependency graph: %d channels, %d dependencies over %d routes — acyclic\n",
		st.Channels, st.Deps, st.Routes)

	if *adjacency {
		for s := 0; s < topo.NumSwitches; s++ {
			fmt.Fprintf(stdout, "switch %2d (level %d):", s, routes.Level(s))
			for _, nb := range topo.Neighbors(s) {
				fmt.Fprintf(stdout, " %d(p%d)", nb.Switch, nb.Port)
			}
			fmt.Fprintln(stdout)
		}
	}

	// Path-length histogram over all host pairs (in switches visited).
	hist := map[int]int{}
	total, sum := 0, 0
	for src := 0; src < topo.NumHosts(); src++ {
		for dst := 0; dst < topo.NumHosts(); dst++ {
			if src == dst {
				continue
			}
			path, err := routes.PathSwitches(src, dst)
			if err != nil {
				return err
			}
			hist[len(path)]++
			total++
			sum += len(path)
		}
	}
	fmt.Fprintln(stdout, "route length histogram (switches on path):")
	for l := 1; l <= topo.NumSwitches; l++ {
		if hist[l] == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %2d: %6d (%.1f%%)\n", l, hist[l], 100*float64(hist[l])/float64(total))
	}
	fmt.Fprintf(stdout, "mean route length: %.2f switches\n", float64(sum)/float64(total))
	return nil
}
