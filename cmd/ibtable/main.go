// Command ibtable drives the arbitration-table fill-in algorithm
// interactively: it reads simple commands from standard input and
// renders the 64-slot high-priority table after each one, making the
// bit-reversal placement and the relocation on demand visible.
//
// Commands (one per line, '#' starts a comment):
//
//	alloc <vl> <distance> <weight>   place a new sequence
//	reserve <vl> <distance> <weight> share an existing sequence if possible
//	free <seq> <weight>              deduct weight (frees at zero)
//	show                             render the table
//	stats                            free slots, weight, live sequences
//	quit
//
// Example:
//
//	echo "alloc 0 8 100
//	alloc 1 8 100
//	show" | ibtable
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/arbtable"
	"repro/internal/core"
)

func main() {
	if err := run(os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ibtable:", err)
		os.Exit(1)
	}
}

// run executes the commands read from stdin, writing tables and replies
// to stdout.  A malformed or refused command is reported on stderr and
// skipped; run fails only when the table breaks an invariant.
func run(stdin io.Reader, stdout, stderr io.Writer) error {
	table := arbtable.New(arbtable.UnlimitedHigh)
	port := core.NewPortTable(table)
	alloc := port.Allocator()
	complain := func(err error) { fmt.Fprintln(stderr, "ibtable:", err) }

	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "alloc", "reserve":
			vl, d, w, err := parse3(fields)
			if err != nil {
				complain(err)
				continue
			}
			if fields[0] == "alloc" {
				s, err := alloc.Allocate(vl, d, w)
				if err != nil {
					complain(err)
					continue
				}
				fmt.Fprintf(stdout, "allocated %v\n", s)
			} else {
				r, err := port.Reserve(vl, d, w)
				if err != nil {
					complain(err)
					continue
				}
				fmt.Fprintf(stdout, "reserved seq=%d weight=%d\n", r.Seq, r.Weight)
			}
			render(stdout, alloc)
		case "free":
			if len(fields) != 3 {
				complain(errors.New("usage: free <seq> <weight>"))
				continue
			}
			id, err1 := strconv.Atoi(fields[1])
			w, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				complain(errors.New("free: numeric arguments required"))
				continue
			}
			freed, err := alloc.RemoveWeight(core.SeqID(id), w)
			if err != nil {
				complain(err)
				continue
			}
			if freed {
				fmt.Fprintf(stdout, "sequence %d freed\n", id)
			} else {
				fmt.Fprintf(stdout, "sequence %d keeps %d weight\n", id, alloc.Lookup(core.SeqID(id)).Weight)
			}
			render(stdout, alloc)
		case "show":
			render(stdout, alloc)
		case "stats":
			fmt.Fprintf(stdout, "free slots: %d  total weight: %d  sequences: %d\n",
				alloc.FreeSlots(), alloc.TotalWeight(), len(alloc.Sequences()))
			for _, s := range alloc.Sequences() {
				fmt.Fprintf(stdout, "  %v\n", s)
			}
		case "quit", "exit":
			return nil
		default:
			complain(fmt.Errorf("unknown command %q", fields[0]))
		}
		if err := port.CheckInvariants(); err != nil {
			return fmt.Errorf("INVARIANT VIOLATION: %w", err)
		}
	}
	return sc.Err()
}

// parse3 parses the arguments of alloc and reserve.  The VL must be a
// data VL, 0-14: it is refused rather than wrapped into one.
func parse3(fields []string) (vl uint8, d, w int, err error) {
	if len(fields) != 4 {
		return 0, 0, 0, fmt.Errorf("usage: %s <vl> <distance> <weight>", fields[0])
	}
	v, err1 := strconv.Atoi(fields[1])
	d, err2 := strconv.Atoi(fields[2])
	w, err3 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("%s: numeric arguments required", fields[0])
	}
	if v < 0 || v >= arbtable.NumDataVLs {
		return 0, 0, 0, fmt.Errorf("%s: VL %d is not a data VL (0-%d)", fields[0], v, arbtable.NumDataVLs-1)
	}
	return uint8(v), d, w, nil
}

// render draws the 64 slots as VL letters ('.' = free), eight groups of
// eight, plus slot weights on a second line scaled to 0-9.
func render(out io.Writer, alloc *core.Allocator) {
	t := alloc.Table()
	var vls, ws strings.Builder
	for i, e := range t.High {
		if i > 0 && i%8 == 0 {
			vls.WriteByte(' ')
			ws.WriteByte(' ')
		}
		if e.IsFree() {
			vls.WriteByte('.')
			ws.WriteByte('.')
		} else {
			vls.WriteByte("0123456789abcde"[e.VL])
			d := int(e.Weight) * 9 / 255
			ws.WriteByte("0123456789"[d])
		}
	}
	fmt.Fprintf(out, "VL     %s\nweight %s\n", vls.String(), ws.String())
}
