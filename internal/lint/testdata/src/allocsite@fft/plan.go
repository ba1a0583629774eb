// fixturepath: fixture/internal/fft
//
// Variant fixture for the internal/fft watchlist entry: the allocsite rule
// is active in internal/fft, but only for plan.go (atsetHotOnly); the
// sibling fft.go in this package proves the narrowing.
package fft

// convolveRows runs each row through a scratch transform buffer; allocating
// the buffer per row is the shape the watchlist entry exists to catch.
func convolveRows(rows [][]complex128, n int, run func([]complex128)) {
	for _, r := range rows {
		z := make([]complex128, n) // want "make allocates on every iteration"
		copy(z, r)
		run(z)
	}
}

// convolveRowsHoisted is the approved shape: one buffer, refilled per row.
func convolveRowsHoisted(rows [][]complex128, n int, run func([]complex128)) {
	z := make([]complex128, n)
	for _, r := range rows {
		copy(z, r)
		run(z)
	}
}
