package fabric

import (
	"testing"

	"repro/internal/topology"
)

// FuzzISLIPSchedule throws arbitrary scheduler states at the iSLIP
// arbiter: pointer positions (including out-of-range values), request
// matrices and iteration counts, run for several consecutive passes so
// pointer updates feed back into the next matching.  Invariants: the
// result is always a valid partial matching of the requests, pointers
// stay reduced, enough iterations always yield a maximal matching, the
// matching is deterministic in the state, and matching and successor
// state equal the retired probe-loop scheduler's (matchReference).
func FuzzISLIPSchedule(f *testing.F) {
	const P = topology.SwitchPorts
	// Layout: P grant pointers, P accept pointers, P little-endian
	// 32-bit request rows, one iteration byte.
	const need = 2*P + 4*P + 1
	// Seeds: reset state, saturated uniform load, colliding pointers
	// with diagonal requests, out-of-range pointers with alternating
	// requests.
	f.Add(make([]byte, need))
	saturated := make([]byte, need)
	for i := 2 * P; i < 6*P; i++ {
		saturated[i] = 0xff
	}
	saturated[need-1] = 1
	f.Add(saturated)
	diagonal := make([]byte, need)
	for i := 0; i < 2*P; i++ {
		diagonal[i] = 5
	}
	for i := 0; i < P; i++ {
		bit := uint32(1) << (P - 1 - i)
		for b := 0; b < 4; b++ {
			diagonal[2*P+4*i+b] = byte(bit >> (8 * b))
		}
	}
	diagonal[need-1] = 4
	f.Add(diagonal)
	wild := make([]byte, need)
	for i := 0; i < 2*P; i++ {
		wild[i] = byte(200 + i)
	}
	for i := 0; i < P; i++ {
		row := uint32(0xaaaaaaaa)
		if i%2 == 1 {
			row = 0x55555555
		}
		for b := 0; b < 4; b++ {
			wild[2*P+4*i+b] = byte(row >> (8 * b))
		}
	}
	wild[need-1] = 8
	f.Add(wild)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < need {
			return
		}
		var st ISLIPState
		for i := 0; i < P; i++ {
			st.Grant[i] = data[i]
			st.Accept[i] = data[P+i]
		}
		var req [P]uint32
		for i := 0; i < P; i++ {
			req[i] = uint32(data[2*P+4*i]) | uint32(data[2*P+4*i+1])<<8 |
				uint32(data[2*P+4*i+2])<<16 | uint32(data[2*P+4*i+3])<<24
		}
		iters := int(data[6*P])%(2*P) + 1

		for pass := 0; pass < 4; pass++ {
			before := st
			var m1, m2 [P]int8
			size := st.Match(&req, iters, &m1)

			// Determinism: the same state and requests reproduce the
			// same matching and the same successor state.
			st2 := before
			if s2 := st2.Match(&req, iters, &m2); s2 != size || m1 != m2 || st2 != st {
				t.Fatalf("non-deterministic: size %d/%d, match %v/%v", size, s2, m1, m2)
			}

			// The word-wide matcher agrees with the retired probe loops
			// on the matching and on the successor state.
			ref := before
			var mr [P]int8
			if sr := ref.matchReference(&req, iters, &mr); sr != size || mr != m1 || ref != st {
				t.Fatalf("differs from the reference: size %d/%d, match %v/%v, state %+v/%+v",
					size, sr, m1, mr, st, ref)
			}

			// Valid partial matching of the requests.
			var inSeen [P]bool
			count := 0
			for j := 0; j < P; j++ {
				i := m1[j]
				if i < 0 {
					continue
				}
				count++
				if int(i) >= P {
					t.Fatalf("output %d matched to input %d out of range", j, i)
				}
				if inSeen[i] {
					t.Fatalf("input %d matched twice: %v", i, m1)
				}
				inSeen[i] = true
				if req[i]&(1<<j) == 0 {
					t.Fatalf("matched pair %d->%d was never requested", i, j)
				}
			}
			if count != size {
				t.Fatalf("size %d, matched outputs %d", size, count)
			}

			// Pointers always land reduced, whatever came in.
			for i := 0; i < P; i++ {
				if before.Grant[i] != st.Grant[i] && st.Grant[i] >= P {
					t.Fatalf("grant pointer %d updated out of range: %d", i, st.Grant[i])
				}
				if before.Accept[i] != st.Accept[i] && st.Accept[i] >= P {
					t.Fatalf("accept pointer %d updated out of range: %d", i, st.Accept[i])
				}
			}

			// Maximality at full depth: no free request edge remains.
			if iters >= P {
				for i := 0; i < P; i++ {
					if inSeen[i] {
						continue
					}
					for j := 0; j < P; j++ {
						if m1[j] < 0 && req[i]&(1<<j) != 0 {
							t.Fatalf("not maximal: free edge %d->%d in %v", i, j, m1)
						}
					}
				}
			}
		}
	})
}
