// fixturepath: fixture/internal/sparse
//
// Variant fixture for the PR 10 watchlist extension: the allocsite rule is
// active for internal/sparse bbd.go/lu.go — the BBD solve path
// scatters and folds per column per domain. The sibling rcm.go in this
// package proves the file gate.
package sparse

// solvePerDomain rebuilds the domain-local slab every domain instead of
// hoisting one slab sized to the largest domain.
func solvePerDomain(sizes []int, solve func([]float64)) {
	for _, nd := range sizes {
		local := make([]float64, nd) // want "make allocates on every iteration"
		solve(local)
	}
}

// hoistedSlab is the approved shape used by the real solver: one slab,
// resliced per domain.
func hoistedSlab(sizes []int, max int, solve func([]float64)) {
	local := make([]float64, max)
	for _, nd := range sizes {
		solve(local[:nd])
	}
}
