package cdg

// RefVerify exposes the retired map-based walker to the external
// cdg_test package, which imports routing (routing imports cdg, so the
// differential tests cannot live in package cdg itself).
var RefVerify = refVerify
