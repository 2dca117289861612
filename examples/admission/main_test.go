package main

// Example runs the program and pins its output, so the test suite
// covers it.
func Example() {
	main()
	// Output:
	// phase        live conns  accepted  rejected  mean host reservation (Mbps)
	// step  1000         171       578        15                         27
	// step  2000         330      1127        76                         51
	// step  3000         389      1595       199                         65
	// step  4000         446      2058       330                         68
	// step  5000         518      2516       486                         78
	// step  6000         547      2955       637                         89
	//
	// all allocator invariants held through 6000 admit/release steps
	//
	// fill-in policy comparison (requests placed before first reject):
	//   bit-reversal (paper): 6.08 requests on average
	//   natural first fit:    4.45 requests on average
}
