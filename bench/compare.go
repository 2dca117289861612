package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict applies the benchmark's regression rule to one end-to-end
// metric on one workload: a = the parent's completed repetitions, b =
// the change's.  The medians are compared against bound; where either
// side's own spread (interquartile distance over median) is wider than
// the bound the pairing is unresolved, not unchanged — unless every run
// of one side beats every run of the other, which no spread can explain
// away.  A side with no completed repetition has failed.
func verdict(m metricDef, bound float64, a, b []float64) (string, float64) {
	if len(a) == 0 || len(b) == 0 {
		return "failed", 0
	}
	sa, sb := summarize(a), summarize(b)
	worse := ratio(sb.Median-sa.Median, sa.Median) // share of the parent's median
	if m.Better == "higher" {
		worse = -worse
	}
	// Every run of one side beats every run of the other exactly when
	// the two ranges do not overlap, whichever direction is better.
	separated := sb.Min > sa.Max || sa.Min > sb.Max
	switch {
	case max(sa.spread(), sb.spread()) > bound && !separated:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// tally counts verdicts over every pairing of workload and metric.
type tally struct {
	improved, unchanged, regressed, unresolved, failed int
	countMismatches                                    int
}

// agree is -selfcheck's rule for two result sets of the same code: no
// pairing moved and every count is identical.  An unresolved pairing is
// printed, not counted against the code: its spread is the host's.
func (t tally) agree() bool {
	return t.unchanged > 0 && t.improved+t.regressed+t.failed+t.countMismatches == 0
}

// compareResults prints one row per workload and metric and returns
// the tally.  Two result sets of one seed and size are held to the
// same-seed bounds, and their count metrics, which repeat exactly for a
// seed, are compared for equality.
func compareResults(w io.Writer, a, b *results) tally {
	var t tally
	sameSeed := a.Seed == b.Seed && a.Seconds == b.Seconds
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1,q3] n\tb median [q1,q3] n\tworse by\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			bound := m.boundOn(wa.Name, sameSeed)
			va, vb := wa.values(m.Name), wb.values(m.Name)
			v, worse := verdict(m, bound, va, vb)
			switch v {
			case "improved":
				t.improved++
			case "regressed":
				t.regressed++
			case "unresolved":
				t.unresolved++
			case "failed":
				t.failed++
			default:
				t.unchanged++
			}
			sa, sb := summarize(va), summarize(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g,%.5g] %d/%d\t%.5g [%.5g,%.5g] %d/%d\t%+.1f%%\t%.3g%%\t%s\n",
				wa.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sa.N, len(wa.Repetitions),
				sb.Median, sb.Q1, sb.Q3, sb.N, len(wb.Repetitions), 100*worse, 100*bound, v)
		}
	}
	tw.Flush()
	if sameSeed {
		for _, wa := range a.Workloads {
			wb := b.workload(wa.Name)
			if wb == nil {
				continue
			}
			ra, rb := wa.completed(), wb.completed()
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			for _, name := range exactCounts {
				if x, y := ra[0].Counts[name], rb[0].Counts[name]; x != y {
					t.countMismatches++
					fmt.Fprintf(w, "COUNT %s %s: %v vs %v\n", wa.Name, name, x, y)
				}
			}
		}
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved, %d failed, %d count mismatches\n",
		t.improved, t.unchanged, t.regressed, t.unresolved, t.failed, t.countMismatches)
	return t
}

func loadResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &results{}
	if err := json.Unmarshal(buf, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles compares two results.json files; it reports false when
// any pairing regressed or failed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	t := compareResults(w, a, b)
	return t.regressed+t.failed == 0, nil
}
