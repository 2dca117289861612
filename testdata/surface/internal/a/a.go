// Package a declares the methods the surface rule classifies.
package a

// T is named by package b.
type T struct{}

// Called is reached: package b calls it.
func (T) Called() {}

// Shown is reached only through b.Shower, which package b uses.
func (T) Shown() string { return "t" }

// TestOnly is reached by a_test.go alone, which does not count.
func (T) TestOnly() {}
