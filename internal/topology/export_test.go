package topology

// The external tests address layout switches through these.
func (l FatTreeLayout) Agg(pod, a int) int    { return l.agg(pod, a) }
func (l FatTreeLayout) Core(a, c int) int     { return l.core(a, c) }
func (l DragonflyLayout) Switch(g, i int) int { return l.switchID(g, i) }
