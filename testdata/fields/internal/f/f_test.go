package f

import "testing"

func TestTestOnly(t *testing.T) { _ = State{}.testOnly }
