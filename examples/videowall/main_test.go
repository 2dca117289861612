package main

// Example runs the program and pins its output, so the test suite
// covers it.
func Example() {
	main()
	// Output:
	// class      flows  packets  deadline met  worst delay/D  jitter in ±IAT/8
	// voice         16      960       100.00%          0.047            100.0%
	// video          8    14400       100.00%          0.003            100.0%
	// storage        6     6300       100.00%          0.002            100.0%
	//
	// fabric: 21.0% mean host-link utilization; conservation verified after drain
}
