// Package sl defines the service levels (SLs), traffic classes and
// unit conversions used by the QoS framework of Alfaro et al.
// (ICPP 2003).
//
// The paper classifies traffic by *latency*: all connections of a
// service level tolerate the same maximum distance between two
// consecutive entries of their sequence in the high-priority
// arbitration table.  For the most used distances (32 and 64) the SL
// is further split by mean bandwidth.  Each SL maps to its own virtual
// lane through the SLtoVLMappingTable, so a source that exceeds its
// reservation only disturbs connections sharing its VL.
package sl

import (
	"fmt"

	"repro/internal/arbtable"
)

// Class is Pelissier's traffic taxonomy extended by the authors' PBE
// class (preferential best effort).  It is a byte, so that it packs
// beside the SL in a Level.
type Class uint8

const (
	// DBTS is dedicated-bandwidth time-sensitive traffic: bandwidth
	// and latency guarantees (e.g. interactive media).
	DBTS Class = iota
	// DB is dedicated-bandwidth traffic: bandwidth guarantee only
	// (treated as DBTS with a very large deadline).
	DB
	// PBE is preferential best effort (web, database access).
	PBE
	// BE is plain best effort (mail, ftp).
	BE
	// CH is challenged traffic, served only by leftover capacity.
	CH
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case DBTS:
		return "DBTS"
	case DB:
		return "DB"
	case PBE:
		return "PBE"
	case BE:
		return "BE"
	case CH:
		return "CH"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Link parameters of a 1x IBA link.
const (
	// LinkMbps is the usable data rate of the 2.5 GHz signaling after
	// 8b/10b coding.
	LinkMbps = 2000
	// ByteTimeNs is the duration of one byte time on the data link;
	// the simulator's clock counts byte times.
	ByteTimeNs = 4 // 8 bits / 2 Gbps
)

// HeaderBytes is the per-packet wire overhead (LRH 8 + BTH 12 + ICRC 4
// + VCRC 2).
const HeaderBytes = 26

// QoSFraction is the share of link bandwidth that may be reserved by
// guaranteed traffic; the remaining 20 % is kept for BE/CH served from
// the low-priority table (paper section 4.2).
const QoSFraction = 0.8

// MaxReservableWeight is the admission budget per port in weight
// units: QoSFraction of the table's full weight capacity.
var MaxReservableWeight = int(float64(arbtable.MaxTableWeight) * QoSFraction)

// WeightForBandwidth converts a mean bandwidth request in Mbps to the
// arbitration-table weight reserving that fraction of the link: a
// connection holding weight w out of MaxTableWeight is guaranteed
// w/MaxTableWeight of LinkMbps.  The result is rounded up and is at
// least 1.
func WeightForBandwidth(mbps float64) int {
	w := int(mbps*float64(arbtable.MaxTableWeight)/float64(LinkMbps) + 0.999999)
	if w < 1 {
		w = 1
	}
	return w
}

// BandwidthForWeight is the inverse conversion: the bandwidth in Mbps
// guaranteed by holding the given weight.
func BandwidthForWeight(w int) float64 {
	return float64(w) * float64(LinkMbps) / float64(arbtable.MaxTableWeight)
}

// HopDeadlineByteTimes returns the per-hop deadline guaranteed by
// placing a sequence at the given maximum distance when packets occupy
// wireBytes on the wire.  Between two consecutive opportunities at
// most distance entries are visited, and because weight is rounded up
// to whole packets each may transmit its full allowance of MaxWeight
// 64-byte units plus one packet of overdraft; one further packet time
// covers non-preemptive blocking at the crossbar input stage.
func HopDeadlineByteTimes(distance, wireBytes int) int64 {
	return int64(distance)*int64(arbtable.MaxWeight*arbtable.WeightUnit+wireBytes) + int64(wireBytes)
}

// DistanceForHopDeadline returns the largest supported distance whose
// per-hop deadline does not exceed the given bound in byte times, or
// an error when even distance 2 is too slow.  This is the
// "request a maximum latency, compute the table distance" direction
// described in section 3.2 of the paper.
func DistanceForHopDeadline(deadline int64, wireBytes int) (int, error) {
	for i := len(distances) - 1; i >= 0; i-- {
		if HopDeadlineByteTimes(distances[i], wireBytes) <= deadline {
			return distances[i], nil
		}
	}
	return 0, fmt.Errorf("sl: deadline %d byte times below the distance-2 guarantee %d",
		deadline, HopDeadlineByteTimes(2, wireBytes))
}

var distances = []int{2, 4, 8, 16, 32, 64}

// Level describes one service level: its table distance and the mean
// bandwidth range its connections draw from (paper Table 1).
type Level struct {
	SL       uint8
	Class    Class
	Distance int     // max distance between consecutive table entries
	MinMbps  float64 // connection mean bandwidth range
	MaxMbps  float64
}

// DefaultLevels is the 10-SL configuration of the paper's evaluation
// (Table 1).  The exact bandwidth figures were lost in the text
// conversion of the paper; these ranges preserve the documented
// structure: distances {2,4,8,16,32,64}, distance 32 split in two SLs
// and distance 64 in four by mean bandwidth, with SLs 5 and 9 carrying
// the largest bandwidths (the Figure 5 discussion identifies them as
// the high-jitter, big-bandwidth levels).
var DefaultLevels = []Level{
	{SL: 0, Class: DBTS, Distance: 2, MinMbps: 0.5, MaxMbps: 1},
	{SL: 1, Class: DBTS, Distance: 4, MinMbps: 0.5, MaxMbps: 2},
	{SL: 2, Class: DBTS, Distance: 8, MinMbps: 1, MaxMbps: 4},
	{SL: 3, Class: DBTS, Distance: 16, MinMbps: 1, MaxMbps: 4},
	{SL: 4, Class: DBTS, Distance: 32, MinMbps: 2, MaxMbps: 8},
	{SL: 5, Class: DBTS, Distance: 32, MinMbps: 16, MaxMbps: 64},
	{SL: 6, Class: DB, Distance: 64, MinMbps: 0.5, MaxMbps: 2},
	{SL: 7, Class: DB, Distance: 64, MinMbps: 2, MaxMbps: 8},
	{SL: 8, Class: DB, Distance: 64, MinMbps: 8, MaxMbps: 16},
	{SL: 9, Class: DB, Distance: 64, MinMbps: 16, MaxMbps: 64},
}

// Best-effort service levels, served from the low-priority table.
const (
	PBESL uint8 = 10
	BESL  uint8 = 11
	CHSL  uint8 = 12
)

// Mapping is an SLtoVLMappingTable: it assigns each service level a
// virtual lane at the input of a link.
type Mapping [arbtable.NumVLs]uint8

// IdentityMapping returns the mapping used throughout the evaluation:
// with 16 VLs available every SL keeps its own VL (SL i -> VL i).
func IdentityMapping() Mapping {
	var m Mapping
	for i := range m {
		m[i] = uint8(i)
	}
	return m
}

// CollapsedMapping folds the service levels onto a reduced number of
// data VLs, as a subnet manager must when switches implement fewer
// lanes (paper section 3.2).  The best-effort service levels (PBE, BE,
// CH) share the last data VL so that QoS and best-effort traffic never
// mix; the ten QoS SLs are spread round-robin over the remaining VLs.
// QoS SLs sharing a VL must adopt the most restrictive (smallest)
// distance of the group — EffectiveDistances computes it — which the
// paper notes as the price of sharing.
func CollapsedMapping(numDataVLs int) (Mapping, error) {
	if numDataVLs < 3 || numDataVLs > arbtable.NumDataVLs {
		return Mapping{}, fmt.Errorf("sl: cannot collapse onto %d data VLs (need 3..%d)",
			numDataVLs, arbtable.NumDataVLs)
	}
	var m Mapping
	qosVLs := numDataVLs - 1
	for i := range m {
		if uint8(i) >= PBESL {
			m[i] = uint8(numDataVLs - 1)
			continue
		}
		m[i] = uint8(i % qosVLs)
	}
	return m, nil
}

// MappingFor resolves the SLtoVL mapping a fabric must install for a
// routing engine that claims the given number of escape planes: a
// multi-plane engine owns the upper data VLs as escape copies of the
// lower ones, so the mapping collapses onto the base plane; otherwise
// dataVLs picks the collapse directly (0 or NumDataVLs keeps the
// identity).  It returns the mapping plus the effective data-VL count
// after the plane adjustment (0 when no collapse applies).  The fabric
// simulator and the analytical capacity planner both derive their
// control state through this one helper, so the tables they reason
// about are identical by construction.
func MappingFor(dataVLs, planes int) (Mapping, int, error) {
	if base := PlaneBaseVLs(planes); planes > 1 && (dataVLs == 0 || dataVLs > base) {
		dataVLs = base
	}
	if dataVLs > 0 && dataVLs < arbtable.NumDataVLs {
		m, err := CollapsedMapping(dataVLs)
		return m, dataVLs, err
	}
	return IdentityMapping(), dataVLs, nil
}

// EffectiveDistances returns, for each QoS service level, the most
// restrictive distance among the levels sharing its virtual lane under
// the mapping.  With the identity mapping every SL keeps its own
// distance; a collapsed mapping tightens the SLs that share a lane.
func EffectiveDistances(levels []Level, m Mapping) map[uint8]int {
	minByVL := make(map[uint8]int)
	for _, l := range levels {
		vl := m.VLFor(l.SL)
		if d, ok := minByVL[vl]; !ok || l.Distance < d {
			minByVL[vl] = l.Distance
		}
	}
	out := make(map[uint8]int, len(levels))
	for _, l := range levels {
		out[l.SL] = minByVL[m.VLFor(l.SL)]
	}
	return out
}

// VLFor returns the virtual lane of an SL under the mapping.
func (m Mapping) VLFor(sl uint8) uint8 { return m[sl%arbtable.NumVLs] }

// VL-escape planes.  Routing engines that need more than one virtual
// channel per physical link to break deadlock (the dragonfly's
// minimal+escape scheme) partition the data VLs into equal planes: a
// packet travels on VL  base + plane*stride, where base is the VL the
// SLtoVL mapping assigns and plane is chosen per hop by the routing
// engine.  The SL mapping must therefore be collapsed to at most
// PlaneBaseVLs(planes) data VLs.

// PlaneBaseVLs returns the number of base data VLs available to the
// SLtoVL mapping when the routing engine claims the given number of
// planes: NumDataVLs/planes (all of them for a single plane).
func PlaneBaseVLs(planes int) int {
	if planes <= 1 {
		return arbtable.NumDataVLs
	}
	return arbtable.NumDataVLs / planes
}

// PlaneVL shifts a base VL into a plane.  The management VL (and any
// VL outside the collapsed base range) passes through unshifted, as
// does everything when the engine uses a single plane.
func PlaneVL(base uint8, plane, planes int) uint8 {
	if planes <= 1 || plane <= 0 || int(base) >= PlaneBaseVLs(planes) {
		return base
	}
	return base + uint8(plane*PlaneBaseVLs(planes))
}

// ByID returns the level description with the given SL number.
func ByID(levels []Level, id uint8) (Level, error) {
	for _, l := range levels {
		if l.SL == id {
			return l, nil
		}
	}
	return Level{}, fmt.Errorf("sl: unknown service level %d", id)
}

// Validate checks that a level set is structurally sound: unique SL
// numbers, supported distances, sane bandwidth ranges that convert to
// placeable weights.
func Validate(levels []Level) error {
	seen := make(map[uint8]bool)
	for _, l := range levels {
		if seen[l.SL] {
			return fmt.Errorf("sl: duplicate service level %d", l.SL)
		}
		seen[l.SL] = true
		ok := false
		for _, d := range distances {
			if l.Distance == d {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sl: level %d has unsupported distance %d", l.SL, l.Distance)
		}
		if l.MinMbps <= 0 || l.MaxMbps < l.MinMbps {
			return fmt.Errorf("sl: level %d has bad bandwidth range [%g, %g]", l.SL, l.MinMbps, l.MaxMbps)
		}
		if w := WeightForBandwidth(l.MaxMbps); w > 32*arbtable.MaxWeight {
			return fmt.Errorf("sl: level %d max bandwidth %g Mbps exceeds one sequence", l.SL, l.MaxMbps)
		}
	}
	return nil
}
