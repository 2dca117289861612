// Command ibtable drives the arbitration-table fill-in algorithm
// interactively: it reads simple commands from standard input and
// renders the 64-slot high-priority table after each one, making the
// bit-reversal placement and the defragmentation on release visible.
//
// Commands (one per line, '#' starts a comment):
//
//	alloc <vl> <distance> <weight>   place a new sequence
//	reserve <vl> <distance> <weight> share an existing sequence if possible
//	free <seq> <weight>              deduct weight (frees at zero + defrag)
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
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/arbtable"
	"repro/internal/core"
)

func main() {
	table := arbtable.New(arbtable.UnlimitedHigh)
	port := core.NewPortTable(table)
	alloc := port.Allocator()

	sc := bufio.NewScanner(os.Stdin)
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
				s, err := alloc.Allocate(uint8(vl), d, w)
				if err != nil {
					complain(err)
					continue
				}
				fmt.Printf("allocated %v\n", s)
			} else {
				r, err := port.Reserve(uint8(vl), d, w)
				if err != nil {
					complain(err)
					continue
				}
				fmt.Printf("reserved seq=%d weight=%d\n", r.Seq, r.Weight)
			}
			render(alloc)
		case "free":
			if len(fields) != 3 {
				complain(fmt.Errorf("usage: free <seq> <weight>"))
				continue
			}
			id, err1 := strconv.Atoi(fields[1])
			w, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				complain(fmt.Errorf("free: numeric arguments required"))
				continue
			}
			freed, err := alloc.RemoveWeight(core.SeqID(id), w)
			if err != nil {
				complain(err)
				continue
			}
			if freed {
				fmt.Printf("sequence %d freed; table defragmented\n", id)
			} else {
				fmt.Printf("sequence %d keeps %d weight\n", id, alloc.Lookup(core.SeqID(id)).Weight)
			}
			render(alloc)
		case "show":
			render(alloc)
		case "stats":
			fmt.Printf("free slots: %d  total weight: %d  sequences: %d\n",
				alloc.FreeSlots(), alloc.TotalWeight(), len(alloc.Sequences()))
			for _, s := range alloc.Sequences() {
				fmt.Printf("  %v\n", s)
			}
		case "quit", "exit":
			return
		default:
			complain(fmt.Errorf("unknown command %q", fields[0]))
		}
		if err := port.CheckInvariants(); err != nil {
			fmt.Fprintln(os.Stderr, "INVARIANT VIOLATION:", err)
			os.Exit(1)
		}
	}
}

func parse3(fields []string) (vl, d, w int, err error) {
	if len(fields) != 4 {
		return 0, 0, 0, fmt.Errorf("usage: %s <vl> <distance> <weight>", fields[0])
	}
	vl, err1 := strconv.Atoi(fields[1])
	d, err2 := strconv.Atoi(fields[2])
	w, err3 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("%s: numeric arguments required", fields[0])
	}
	return vl, d, w, nil
}

// render draws the 64 slots as VL letters ('.' = free), eight groups of
// eight, plus slot weights on a second line scaled to 0-9.
func render(alloc *core.Allocator) {
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
	fmt.Printf("VL     %s\nweight %s\n", vls.String(), ws.String())
}

func complain(err error) { fmt.Fprintln(os.Stderr, "ibtable:", err) }
