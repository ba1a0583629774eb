// fixturepath: fixture/internal/mat
//
// Fixture for the atset analyzer (advisory): element-wise At/Set in
// doubly-nested loops on hot paths. The fixturepath directive places this
// package at an internal/mat-suffixed import path, where the rule knows the
// matrix types, and the //lint:hot directive puts the file on the hot path,
// so the rule is active here.
package mat

//lint:hot

type Dense struct {
	data []float64
	cols int
}

func (m *Dense) At(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *Dense) Row(i int) []float64     { return m.data[i*m.cols : (i+1)*m.cols] }

func elementWiseFill(m *Dense, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, m.At(i, j)+1) // want "element-wise m.Set" "element-wise m.At"
		}
	}
}

func tripleNested(m *Dense, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				m.Set(i, j, float64(k)) // want "element-wise m.Set"
			}
		}
	}
}

// rowView is the preferred idiom: hoist the row slice, index it directly.
func rowView(m *Dense, n int) {
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < n; j++ {
			row[j]++
		}
	}
}

// singleLoop: one level of looping is fine — the rule only fires at depth 2.
func singleLoop(m *Dense, n int) {
	for j := 0; j < n; j++ {
		m.Set(0, j, 1)
	}
}

// suppressed documents an access pattern no row view can express.
func suppressed(m *Dense, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			//lint:ignore atset fixture demonstrating the suppression policy
			m.Set(j, i, 0)
		}
	}
}
