package topology

import "fmt"

// Class names a topology family.  Routing dispatches its per-class
// deadlock-free engine on it.
type Class int

const (
	// Irregular is the paper's randomly wired network (section 4.1):
	// HostsPerSwitch hosts on every switch, random spanning tree plus
	// random extra links.  Routed up*/down*.
	Irregular Class = iota
	// FatTree is the k-ary three-level fat-tree (k pods of k/2 edge and
	// k/2 aggregation switches, (k/2)^2 cores).  Routed
	// destination-mod-k up/down.
	FatTree
	// Dragonfly is the canonical dragonfly (a, p, h): groups of a
	// switches fully connected locally, p hosts per switch, h global
	// links per switch, one global link between every pair of groups.
	// Routed minimally with a VL-escape plane per group crossing.
	Dragonfly
)

func (c Class) String() string {
	switch c {
	case Irregular:
		return "irregular"
	case FatTree:
		return "fattree"
	case Dragonfly:
		return "dragonfly"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass parses a class name as accepted by the -class flags.
func ParseClass(s string) (Class, error) {
	switch s {
	case "irregular":
		return Irregular, nil
	case "fattree", "fat-tree":
		return FatTree, nil
	case "dragonfly":
		return Dragonfly, nil
	}
	return Irregular, fmt.Errorf("topology: unknown class %q (want irregular|fattree|dragonfly)", s)
}

// MarshalText spells the class by name, so a scenario document reads
// "fattree", not 1.
func (c Class) MarshalText() ([]byte, error) {
	if c < Irregular || c > Dragonfly {
		return nil, fmt.Errorf("topology: unknown class %d", int(c))
	}
	return []byte(c.String()), nil
}

// UnmarshalText parses a class name (ParseClass).
func (c *Class) UnmarshalText(text []byte) error {
	parsed, err := ParseClass(string(text))
	if err == nil {
		*c = parsed
	}
	return err
}

// Spec describes a topology to build: the class plus its shape
// parameters.  Unused fields are ignored per class:
//
//	Irregular: Switches, Seed
//	FatTree:   K (even, 2..SwitchPorts)
//	Dragonfly: A, P, H (P+A-1+H <= SwitchPorts)
type Spec struct {
	Class    Class
	Switches int   // irregular: number of switches
	Seed     int64 // irregular: wiring seed
	K        int   // fattree: arity (ports per switch used; k/2 up, k/2 down)
	A        int   // dragonfly: switches per group
	P        int   // dragonfly: hosts per switch
	H        int   // dragonfly: global links per switch
}

// Generate builds the topology the spec describes.
func (sp Spec) Generate() (*Topology, error) {
	switch sp.Class {
	case Irregular:
		return Generate(sp.Switches, sp.Seed)
	case FatTree:
		return GenerateFatTree(sp.K)
	case Dragonfly:
		return GenerateDragonfly(sp.A, sp.P, sp.H)
	}
	return nil, fmt.Errorf("topology: unknown class %v", sp.Class)
}

// Label returns a short human-readable shape description, used by the
// scale experiment's JSON output.
func (sp Spec) Label() string {
	switch sp.Class {
	case Irregular:
		return fmt.Sprintf("irregular-%d", sp.Switches)
	case FatTree:
		return fmt.Sprintf("fattree-k%d", sp.K)
	case Dragonfly:
		return fmt.Sprintf("dragonfly-a%dp%dh%d", sp.A, sp.P, sp.H)
	}
	return sp.Class.String()
}
