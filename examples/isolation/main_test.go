package main

// Example runs the program and pins its output, so the test suite
// covers it.
func Example() {
	main()
	// Output:
	// after a steady-state window with the rogue transmitting 150x its reservation:
	// victim A (own VL)      VL3   goodput 100.0%  deadline met 100.00%
	// victim B (rogue's VL)  VL5   goodput  30.8%  deadline met 100.00%
	// rogue                  VL5   goodput  63.1%  deadline met 100.00%
	//
	// victim A is untouched; only the rogue's VL suffers — the paper's isolation property.
}
