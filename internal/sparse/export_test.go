package sparse

// Fixtures shared with the external sparse_test package, whose tests also
// build circuit pencils through internal/core.
var (
	GridCSR            = gridCSR
	RandomSparseSquare = randomSparseSquare
)
