// Package viz renders simple terminal charts for the experiment
// output: sparklines for the delay CDFs of Figure 4 and the jitter
// histograms of Figure 5, so `ibsim -viz` shows figure-shaped output
// rather than only tables.
package viz

import (
	"fmt"
	"strings"
)

// blocks are the eighth-height glyphs used by sparklines, lowest
// first.
var blocks = []rune(" ▁▂▃▄▅▆▇█")

// Spark renders values in [0, max] as a one-line sparkline.  Values
// outside the range are clamped.
func Spark(values []float64, max float64) string {
	if max <= 0 {
		max = 1
	}
	var b strings.Builder
	for _, v := range values {
		if v < 0 {
			v = 0
		}
		if v > max {
			v = max
		}
		idx := int(v / max * float64(len(blocks)-1))
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// CDFRow renders one labeled CDF curve: a sparkline over the
// percentages plus the terminal value.
func CDFRow(label string, percents []float64) string {
	return fmt.Sprintf("%-8s %s %6.1f%%", label, Spark(percents, 100), percents[len(percents)-1])
}
