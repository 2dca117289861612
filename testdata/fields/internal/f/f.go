// Package f declares one struct field per rule of the write-only field
// gate.
package f

// Base is embedded in State; promoted is read through State.
type Base struct{ promoted int }

// State holds one field per way of writing it.
type State struct {
	Base
	read     int // read by Use
	set      int // only assigned
	added    int // only op=
	bumped   int // only ++
	keyed    int // only a composite-literal key
	testOnly int // read by f_test.go alone
	nested   struct{ inner int }
}

// Gen is generic: its fields count through their origin.
type Gen[T any] struct {
	used   T
	unused T
}

// Doc is the codec root: the exported fields of every type reachable
// from it count as read.
type Doc struct {
	Name string
	Rows []Row
}

// Row is reached from Doc.
type Row struct{ Value int }

// Box has a json tag; encoding/json does not read its unexported field.
type Box struct {
	Value  int `json:"value"`
	stored int
}

// hidden is reached from no root, so its exported field is not read.
type hidden struct{ Skipped int }

// Use writes and reads the fields.
func Use() int {
	s := State{keyed: 1, testOnly: 2}
	s.set = 3
	(s.added) += 4
	s.bumped++
	g := Gen[int]{unused: 5}
	_, _ = Box{stored: 6}, hidden{Skipped: 7}
	return s.read + s.promoted + s.nested.inner + g.used
}
