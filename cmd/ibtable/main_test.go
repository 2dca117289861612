package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/core"
)

func TestParse3(t *testing.T) {
	vl, d, w, err := parse3([]string{"alloc", "3", "8", "100"})
	if err != nil || vl != 3 || d != 8 || w != 100 {
		t.Fatalf("parse3 = (%d,%d,%d,%v)", vl, d, w, err)
	}
	if _, _, _, err := parse3([]string{"alloc", "3", "8"}); err == nil {
		t.Error("short command accepted")
	}
	if _, _, _, err := parse3([]string{"alloc", "x", "8", "100"}); err == nil {
		t.Error("non-numeric argument accepted")
	}
}

func TestRenderDoesNotPanic(t *testing.T) {
	alloc := core.NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
	var out bytes.Buffer
	render(&out, alloc) // empty table
	for i := 0; i < 5; i++ {
		if _, err := alloc.Allocate(uint8(i), 8, 50+i*60); err != nil {
			t.Fatal(err)
		}
	}
	render(&out, alloc) // populated table
}

// TestRunRefusesNonDataVL: a VL outside 0-14 is refused by name, not
// wrapped through uint8 onto a data VL (256 used to allocate on VL 0,
// -255 on VL 1, and reserve 257 joined VL 1's sequence).
func TestRunRefusesNonDataVL(t *testing.T) {
	for _, tc := range []struct {
		cmd, vl string
	}{
		{"alloc 256 8 100", "VL 256"},
		{"alloc -1 8 100", "VL -1"},
		{"alloc -255 8 100", "VL -255"},
		{"alloc 15 8 100", "VL 15"},
		{"reserve 256 8 100", "VL 256"},
		{"reserve 257 8 100", "VL 257"},
		{"reserve -1 8 100", "VL -1"},
		{"reserve 15 8 100", "VL 15"},
	} {
		// Sequences on VLs 0 and 1 first, so that a wrapped VL would
		// join or sit beside them.
		in := "alloc 0 8 100\nreserve 1 8 100\n" + tc.cmd + "\nstats\n"
		var stdout, stderr bytes.Buffer
		if err := run(strings.NewReader(in), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", tc.cmd, err)
		}
		if want := tc.vl + " is not a data VL"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: stderr %q does not say %q", tc.cmd, stderr.String(), want)
		}
		if want := "total weight: 200  sequences: 2\n"; !strings.Contains(stdout.String(), want) {
			t.Errorf("%s: the table changed:\n%s", tc.cmd, stdout.String())
		}
	}
}

// TestRunAcceptsEveryDataVL: VLs 0 and 14, the ends of the data range,
// are placed.
func TestRunAcceptsEveryDataVL(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(strings.NewReader("alloc 0 8 100\nreserve 14 8 100\nstats\n"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
	for _, want := range []string{"VL0 stride=8", "VL14 stride=8", "sequences: 2"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunFreeReply: freeing a sequence's last weight frees its slots and
// moves nothing else, and the reply says only that.
func TestRunFreeReply(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := "alloc 0 8 100\nalloc 1 8 100\nfree 1 40\nfree 1 60\nstats\n"
	if err := run(strings.NewReader(in), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
	for _, want := range []string{"sequence 1 keeps 60 weight\n", "sequence 1 freed\n", "VL1 stride=8 start=4", "sequences: 1\n"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}
