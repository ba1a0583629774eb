// fft.go is NOT on the internal/fft watchlist (atsetHotOnly lists only
// plan.go): the identical per-iteration allocation below must stay silent,
// or the per-package narrowing has regressed.
package fft

func transformAll(xs [][]complex128, sink func([]complex128)) {
	for _, x := range xs {
		sink(make([]complex128, len(x)))
	}
}
