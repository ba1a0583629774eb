// Fixture for the atset analyzer on the PR 8 parameter-varying surface: the
// file carries //lint:hot (the capacitance solve runs per scenario per
// column), so element-wise At/Set in nested loops fires here exactly as in
// dense.go.
package mat

//lint:hot

// correctPanel is the offending shape: a capacitance back-substitution
// walking the panel element-wise instead of through row views.
func correctPanel(w, x *Dense, r, n int) {
	for k := 0; k < r; k++ {
		for i := 0; i < n; i++ {
			x.Set(i, 0, x.At(i, 0)-w.At(i, k)) // want "element-wise x.Set" "element-wise x.At" "element-wise w.At"
		}
	}
}

// correctPanelRows is the preferred idiom: hoist the rows, index directly.
func correctPanelRows(w, x *Dense, r, n int) {
	for i := 0; i < n; i++ {
		xr, wr := x.Row(i), w.Row(i)
		for k := 0; k < r; k++ {
			xr[0] -= wr[k]
		}
	}
}
