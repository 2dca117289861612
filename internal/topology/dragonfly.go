package topology

import "fmt"

// DragonflyLayout fixes the numbering of a canonical balanced
// dragonfly (a, p, h): G = a*h + 1 groups of a switches each, every
// pair of switches in a group directly linked, p hosts per switch, h
// global links per switch, and exactly one global link between every
// pair of groups.
//
// Switch numbering is group-major: switch = g*a + i.  Port roles per
// switch:
//
//	0 .. p-1            hosts
//	p .. p+a-2          local links (LocalPort(i, j) to peer j)
//	p+a-1 .. p+a-2+h    global links (GlobalPort(slot))
//
// Global link slot j of switch i in group g carries the group's
// channel c = i*h + j, which connects g to group (g + c + 1) mod G —
// the standard "relative group offset" wiring that gives one link per
// group pair.
type DragonflyLayout struct {
	A, P, H int
	G       int // number of groups, a*h + 1
}

// NewDragonflyLayout validates (a, p, h) against the switch radix:
// each switch needs p + (a-1) + h ports.
func NewDragonflyLayout(a, p, h int) (DragonflyLayout, error) {
	if a < 1 || p < 1 || h < 1 {
		return DragonflyLayout{}, fmt.Errorf("topology: dragonfly a=%d p=%d h=%d must all be >= 1", a, p, h)
	}
	if ports := p + (a - 1) + h; ports > SwitchPorts {
		return DragonflyLayout{}, fmt.Errorf("topology: dragonfly a=%d p=%d h=%d needs %d ports per switch (max %d)", a, p, h, ports, SwitchPorts)
	}
	return DragonflyLayout{A: a, P: p, H: h, G: a*h + 1}, nil
}

// NumSwitches returns G*a.
func (l DragonflyLayout) NumSwitches() int { return l.G * l.A }

// switchID returns the index of switch i in group g.
func (l DragonflyLayout) switchID(g, i int) int { return g*l.A + i }

// Group returns the group and in-group index of a switch.
func (l DragonflyLayout) Group(sw int) (g, i int) { return sw / l.A, sw % l.A }

// LocalPort returns the port on switch i that links to switch j of the
// same group (i != j): peers are packed in index order, skipping self.
func (l DragonflyLayout) LocalPort(i, j int) int {
	if j < i {
		return l.P + j
	}
	return l.P + j - 1
}

// GlobalPort returns the port carrying global slot j (0 <= j < h).
func (l DragonflyLayout) GlobalPort(j int) int { return l.P + l.A - 1 + j }

// globalTarget returns the group reached by global channel c
// (c = i*h + j) of group g.
func (l DragonflyLayout) globalTarget(g, c int) int { return (g + c + 1) % l.G }

// GlobalChannel returns the channel index of group g that reaches
// group d (g != d): the inverse of globalTarget.
func (l DragonflyLayout) GlobalChannel(g, d int) int { return (d - g - 1 + l.G) % l.G }

// GenerateDragonfly builds the canonical dragonfly.  Deterministic —
// no seed.
func GenerateDragonfly(a, p, h int) (*Topology, error) {
	l, err := NewDragonflyLayout(a, p, h)
	if err != nil {
		return nil, err
	}
	t := NewManual(l.NumSwitches())
	t.Spec = Spec{Class: Dragonfly, A: a, P: p, H: h}
	// Hosts: ports 0..p-1 of every switch, group-major order.
	for sw := 0; sw < l.NumSwitches(); sw++ {
		for hp := 0; hp < p; hp++ {
			if _, err := t.AttachHost(sw, hp); err != nil {
				return nil, err
			}
		}
	}
	// Local all-to-all within each group.
	for g := 0; g < l.G; g++ {
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				if err := t.Connect(l.switchID(g, i), l.LocalPort(i, j), l.switchID(g, j), l.LocalPort(j, i)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Global links: channel c of group g (owned by switch c/h, slot
	// c%h) meets the reverse channel of the target group.  Wire each
	// pair once, from the lower-numbered group.
	for g := 0; g < l.G; g++ {
		for c := 0; c < a*h; c++ {
			d := l.globalTarget(g, c)
			if d < g {
				continue // wired when d's side was processed
			}
			rc := l.GlobalChannel(d, g)
			if err := t.Connect(
				l.switchID(g, c/h), l.GlobalPort(c%h),
				l.switchID(d, rc/h), l.GlobalPort(rc%h),
			); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
