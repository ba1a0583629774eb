// denselu.go is on the PR 10 hot-file list: the dense Schur substitutions
// run per column of every solve, so element-wise access at loop depth ≥ 2
// fires here.
package mat

func forwardRows(gb *Dense, width, ext int) {
	for c := 0; c < width; c++ {
		for r := 0; r < ext; r++ {
			gb.Set(r, c, gb.At(r, c)*0.5) // want "element-wise gb.Set" "element-wise gb.At"
		}
	}
}
