package sim

// Fixtures shared with the external test package (golden_test.go), which
// needs packages that import sim itself (core for the ring).
var (
	ChainNet     = chainNet
	BranchingNet = branchingNet
)
