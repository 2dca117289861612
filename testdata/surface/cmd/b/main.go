// Command b reaches package a's methods.
package main

import "fixture/internal/a"

// shower is the interface through which main reaches a.T.Shown.
type shower interface{ Shown() string }

func main() {
	var t a.T
	t.Called()
	var s shower = t
	println(s.Shown())
}
