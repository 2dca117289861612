package cdg

// RefVerify exposes the retired map-based walker to the external
// cdg_test package, which imports routing (routing imports cdg, so the
// differential tests cannot live in package cdg itself).
var RefVerify = refVerify

// VerifyBases is Verify (allowPartial false) or VerifyPartial (true)
// that also returns how many base VLs the proof walked: 1 when the hop
// VLs are plane-separable, every base VL otherwise.
var VerifyBases = verify
