// fixturepath: fixture/internal/mat
//
// Variant fixture for the supernodal watchlist extension: bbd.go joined the
// atset hot-file list (the supernodal/BBD solve surface runs per column on
// n=10⁵ grids), so element-wise At/Set in nested loops fires in it exactly
// as in dense.go; the sibling nd.go in this package proves the file gate.
package mat

type Dense struct {
	data []float64
	cols int
}

func (m *Dense) At(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *Dense) Row(i int) []float64     { return m.data[i*m.cols : (i+1)*m.cols] }

// scatterPanel is the offending shape: folding a Schur patch panel
// element-wise instead of through row views.
func scatterPanel(patch *Dense, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			patch.Set(i, j, patch.At(i, j)-1) // want "element-wise patch.Set" "element-wise patch.At"
		}
	}
}

// scatterPanelRows is the approved idiom used by the real assembly.
func scatterPanelRows(patch *Dense, rows, cols int) {
	for i := 0; i < rows; i++ {
		row := patch.Row(i)
		for j := 0; j < cols; j++ {
			row[j]--
		}
	}
}
