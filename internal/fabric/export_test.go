package fabric

import "testing"

// Hooks for the recovery tests, which import package subnet and so live
// in the external test package (failover_test.go).

var AllModels = allModels

func (f *Flow) DelPkts() int64 { return f.delPkts }

// IndexDiff starts index_test.go's request-index differential on n:
// compare checks every switch against the reference scans, and
// compared reports whether any candidate was compared so far.
func IndexDiff(t *testing.T, n *Network) (compare func(), compared func() bool) {
	d := newIndexDiff(t, n)
	return func() { d.compare(t) }, func() bool { return d.wrr.offered > 0 || d.voq.requests > 0 }
}
