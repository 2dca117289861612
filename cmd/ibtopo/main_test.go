package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunOutput pins the whole report of one instance of each class,
// the channel-dependency proof line included.
func TestRunOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-switches", "8", "-seed", "3", "-adjacency"}, `topology: irregular-8 — 8 switches, 32 hosts
inter-switch links: 15 (directed port pairs: 30)
routing tree depth: 2
VL planes: 1 (15 base data VLs)
channel-dependency graph: 450 channels, 360 dependencies over 840 routes — acyclic
switch  0 (level 0): 2(p4) 5(p5)
switch  1 (level 2): 6(p4) 2(p5) 7(p6) 3(p7)
switch  2 (level 1): 6(p4) 0(p5) 1(p6) 4(p7)
switch  3 (level 2): 4(p4) 1(p5) 7(p6) 5(p7)
switch  4 (level 2): 6(p4) 5(p5) 3(p6) 2(p7)
switch  5 (level 1): 4(p4) 7(p5) 0(p6) 3(p7)
switch  6 (level 2): 2(p4) 4(p5) 7(p6) 1(p7)
switch  7 (level 2): 6(p4) 1(p5) 5(p6) 3(p7)
route length histogram (switches on path):
   1:     96 (9.7%)
   2:    480 (48.4%)
   3:    384 (38.7%)
   4:     32 (3.2%)
mean route length: 2.35 switches
`},
		{[]string{"-class", "fattree", "-k", "8"}, `topology: fattree-k8 — 80 switches, 128 hosts
inter-switch links: 256 (directed port pairs: 512)
routing tree depth: 2
VL planes: 1 (15 base data VLs)
channel-dependency graph: 4800 channels, 12960 dependencies over 14880 routes — acyclic
route length histogram (switches on path):
   1:    384 (2.4%)
   3:   1536 (9.4%)
   5:  14336 (88.2%)
mean route length: 4.72 switches
`},
		{[]string{"-class", "dragonfly", "-a", "3", "-p", "2", "-h", "1"}, `topology: dragonfly-a3p2h1 — 12 switches, 24 hosts
inter-switch links: 18 (directed port pairs: 36)
VL planes: 2 (7 base data VLs)
channel-dependency graph: 420 channels, 336 dependencies over 924 routes — acyclic
route length histogram (switches on path):
   1:     24 (4.3%)
   2:    144 (26.1%)
   3:    192 (34.8%)
   4:    192 (34.8%)
mean route length: 3.00 switches
`},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("%v: output\n%s\nwant\n%s", tc.args, out.String(), tc.want)
		}
	}
}

// TestRunRejectsHostileFlags: nonsensical shapes are errors, returned
// at once and before any report is written.
func TestRunRejectsHostileFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-class", "fattree", "-k", "3"}, "fat-tree arity k=3"},
		{[]string{"-switches", "100000"}, "exceeds the irregular maximum"},
		{[]string{"-class", "bogus"}, `unknown class "bogus"`},
		{[]string{"-class", "dragonfly", "-a", "0"}, "must all be >= 1"},
		{[]string{"-class", "fattree", "-k", "4", "-switches", "64", "-seed", "9"}, "-class fattree does not read -seed -switches (it reads -k)"},
		{[]string{"-class", "dragonfly", "-k", "8"}, "-class dragonfly does not read -k (it reads -a -p -h)"},
		{[]string{"-a", "4"}, "-class irregular does not read -a (it reads -switches -seed)"},
	} {
		var out bytes.Buffer
		start := time.Now()
		err := run(tc.args, &out)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%v: took %v", tc.args, took)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", tc.args, out.String())
		}
	}
}
