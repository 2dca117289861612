//go:build race

package repro_test

// raceEnabled reports that this binary was built with the race
// detector; the alloc-budget gates skip themselves then (skipUnderRace),
// because race instrumentation is free to allocate on paths the plain
// build keeps clean.  ci.sh runs the gates in a separate non-race pass.
const raceEnabled = true
