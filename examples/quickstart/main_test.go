package main

// Example runs the program and pins its output, so the test suite
// covers it.
func Example() {
	main()
	// Output:
	// Reserving three connections:
	// voice              VL0  deadline/hop    160 us -> distance  2, 1 Mbps -> weight 9
	// video              VL1  deadline/hop    600 us -> distance  8, 16 Mbps -> weight 131
	// storage backup     VL2  deadline/hop   5000 us -> distance 64, 64 Mbps -> weight 523
	//
	// High-priority table (slot: VL*weight):
	// high[0:VL0*1 1:VL1*17 2:VL0*1 4:VL0*1 5:VL2*131 6:VL0*1 8:VL0*1 9:VL1*17 10:VL0*1 12:VL0*1 14:VL0*1 16:VL0*1 17:VL1*17 18:VL0*1 20:VL0*1 21:VL2*131 22:VL0*1 24:VL0*1 25:VL1*16 26:VL0*1 28:VL0*1 30:VL0*1 32:VL0*1 33:VL1*16 34:VL0*1 36:VL0*1 37:VL2*131 38:VL0*1 40:VL0*1 41:VL1*16 42:VL0*1 44:VL0*1 46:VL0*1 48:VL0*1 49:VL1*16 50:VL0*1 52:VL0*1 53:VL2*130 54:VL0*1 56:VL0*1 57:VL1*16 58:VL0*1 60:VL0*1 62:VL0*1] low[] limit=255
	// VL0 max distance between entries: 2 slots
	// VL1 max distance between entries: 8 slots
	// VL2 max distance between entries: 16 slots
	//
	// second voice call shares sequence 1 (free slots still 20)
	//
	// after releases: 64 free slots, table empty: true
	// allocator invariants hold
}
