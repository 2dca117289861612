// Package faults is a deterministic, seed-driven fault-injection layer
// for the simulated fabric and its control plane.  An Injector decides
// the fate of every subnet-management packet crossing a link (drop,
// duplicate, corrupt, reorder) and answers availability queries for
// links and ports (down windows from a flap schedule, stall windows).
//
// Two properties shape the design:
//
//   - Reproducibility.  Every decision is a pure function of the
//     experiment seed, the link key and a per-link query counter —
//     computed with a splitmix64 hash, not a shared rng stream — so a
//     run's fault sequence depends only on the order of queries each
//     link makes, never on how queries of different links interleave.
//     Equal seeds give bit-identical fault sequences at any sweep
//     parallelism.
//   - Zero cost when disabled.  Every method is nil-safe: models hold
//     a possibly-nil *Injector and call unconditionally through one
//     predictable branch, exactly like the metrics and tracing layers.
package faults

// Link keys give every arbitration point of a fabric a stable identity
// for fault decisions and schedules: hosts are negative, switch ports
// positive.  The encodings match nothing else on purpose — they are
// injector-local names, not routing state.

// HostKey returns the injector key of host h's interface link.
func HostKey(h int) int32 { return int32(-(h + 1)) }

// SwitchPortKey returns the injector key of switch s's output port p.
func SwitchPortKey(s, p int) int32 { return int32(s)<<8 | int32(p&0xff) }

// Fate is the injector's verdict on one control-plane packet crossing
// a link.  The zero value is an intact, on-time delivery.
type Fate struct {
	// Drop loses the packet entirely.
	Drop bool
	// Duplicate delivers a second copy shortly after the first.
	Duplicate bool
	// CorruptByte, when >= 0, is the wire byte whose CorruptMask bits
	// flip in transit.
	CorruptByte int
	CorruptMask byte
	// DelayBT is extra in-flight delay (reordering relative to packets
	// sent later on the same path).
	DelayBT int64
}

// Corrupt reports whether the fate mutates the wire bytes.
func (f Fate) Corrupt() bool { return f.CorruptByte >= 0 }

// Config holds the per-packet fault probabilities of an injector.  All
// probabilities are in [0, 1] and evaluated independently per packet;
// a packet can be both corrupted and duplicated, but a dropped packet
// suffers no further fate.
type Config struct {
	Seed int64

	Drop      float64 // P(packet lost)
	Duplicate float64 // P(packet delivered twice)
	Corrupt   float64 // P(one wire byte flipped)
	Reorder   float64 // P(packet delayed by up to MaxReorderBT)

	// MaxReorderBT bounds the extra delay of a reordered packet; zero
	// disables reordering regardless of Reorder.
	MaxReorderBT int64
}

// window is one closed-open [From, To) unavailability interval of a
// link.
type window struct {
	link     int32
	from, to int64
}

// Stats counts the faults an injector actually dealt.
type Stats struct {
	Queries     int64 `json:"queries"`
	Drops       int64 `json:"drops"`
	Duplicates  int64 `json:"duplicates"`
	Corruptions int64 `json:"corruptions"`
	Reorders    int64 `json:"reorders"`
}

// Injector is one experiment's fault model.  It is not safe for
// concurrent use; independent runs own independent injectors, like
// engines.  The nil Injector is the perfect fabric: every query
// returns the zero answer.
type Injector struct {
	cfg Config

	// seq is the per-link query counter feeding the decision hash.
	seq map[int32]uint64

	downs  []window // link-down windows (flap schedule)
	stalls []window // port-stall windows

	stats Stats
}

// New returns an injector with the given fault configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, seq: make(map[int32]uint64)}
}

// Stats returns the dealt-fault counters (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// AddLinkDown schedules link down for [from, to): control packets
// crossing the link in that window are lost and the data port behind
// it stalls.  Windows may overlap; queries take the latest end.
func (in *Injector) AddLinkDown(link int32, from, to int64) {
	if in == nil || to <= from {
		return
	}
	in.downs = append(in.downs, window{link: link, from: from, to: to})
}

// AddStall schedules a port-stall window [from, to): the port keeps
// its queues but schedules nothing until the window ends.
func (in *Injector) AddStall(link int32, from, to int64) {
	if in == nil || to <= from {
		return
	}
	in.stalls = append(in.stalls, window{link: link, from: from, to: to})
}

// splitmix64 is the decision hash: a full-avalanche mix of seed, link
// and sequence number.  (Vigna's splitmix64 finalizer.)
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit converts 53 hash bits to a uniform float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// SMPFate draws the fate of one control-plane packet crossing link.
// Consecutive calls for the same link advance its decision counter, so
// a link's fault sequence is fixed by the seed alone.  Nil-safe: the
// nil injector returns the intact fate.
func (in *Injector) SMPFate(link int32) Fate {
	if in == nil {
		return Fate{CorruptByte: -1}
	}
	n := in.seq[link]
	in.seq[link] = n + 1
	f := in.fate(link, n)
	in.stats.Queries++
	if f.Drop {
		in.stats.Drops++
		return f
	}
	if f.Corrupt() {
		in.stats.Corruptions++
	}
	if f.Duplicate {
		in.stats.Duplicates++
	}
	if f.DelayBT > 0 {
		in.stats.Reorders++
	}
	return f
}

// TakeIntact draws the link's next n fates if every one of them is
// intact, and reports whether it did; otherwise it draws none, and the
// packets draw their fates one by one as they cross.  Either way the
// link's fault sequence is the one n SMPFate calls would have dealt.
// Nil-safe: the nil injector's fates are all intact.
func (in *Injector) TakeIntact(link int32, n int) bool {
	if in == nil {
		return true
	}
	first := in.seq[link]
	for i := range uint64(n) {
		if in.fate(link, first+i) != (Fate{CorruptByte: -1}) {
			return false
		}
	}
	in.seq[link] = first + uint64(n)
	in.stats.Queries += int64(n)
	return true
}

// fate is the n-th fate of link: a pure function of the seed, the link
// and n.
func (in *Injector) fate(link int32, n uint64) Fate {
	f := Fate{CorruptByte: -1}
	base := uint64(in.cfg.Seed)*0x9e3779b97f4a7c15 ^ uint64(uint32(link))<<32 ^ n
	h0 := splitmix64(base)
	if unit(h0) < in.cfg.Drop {
		f.Drop = true
		return f
	}
	h1 := splitmix64(base ^ 0xd1b54a32d192ed03)
	if unit(h1) < in.cfg.Corrupt {
		h := splitmix64(h1)
		f.CorruptByte = int(h % 256)
		f.CorruptMask = byte(h>>8) | 1 // at least one bit flips
	}
	h2 := splitmix64(base ^ 0x8cb92ba72f3d8dd7)
	if unit(h2) < in.cfg.Duplicate {
		f.Duplicate = true
	}
	if in.cfg.MaxReorderBT > 0 {
		h3 := splitmix64(base ^ 0x52917d1b2b66b5f5)
		if unit(h3) < in.cfg.Reorder {
			f.DelayBT = 1 + int64(splitmix64(h3)%uint64(in.cfg.MaxReorderBT))
		}
	}
	return f
}

// DownUntil returns the end of the down window covering time t on the
// link, or 0 when the link is up.  Overlapping windows yield the
// furthest end.  Nil-safe.
func (in *Injector) DownUntil(link int32, t int64) int64 {
	if in == nil {
		return 0
	}
	return coveringEnd(in.downs, link, t)
}

// BlockedUntil combines down and stall windows: the latest end of any
// window covering t, or 0.  The fabric consults this once per
// scheduling pass.  Nil-safe.
func (in *Injector) BlockedUntil(link int32, t int64) int64 {
	if in == nil {
		return 0
	}
	end := coveringEnd(in.downs, link, t)
	if e := coveringEnd(in.stalls, link, t); e > end {
		end = e
	}
	return end
}

// coveringEnd scans ws for windows of link covering t and returns the
// end of the merged unavailability interval (0 if no window covers t):
// windows chaining into one another — a second outage starting before
// the first ends — extend the answer to the chain's end.  Schedules
// hold a handful of windows, so iterated linear scans beat maintaining
// per-link indexes.
func coveringEnd(ws []window, link int32, t int64) int64 {
	var end int64
	for {
		grew := false
		at := t
		if end > 0 {
			at = end // extend through windows covering (or abutting) the end
		}
		for i := range ws {
			w := &ws[i]
			if w.link == link && w.from <= at && at < w.to && w.to > end {
				end = w.to
				grew = true
			}
		}
		if !grew {
			return end
		}
	}
}
