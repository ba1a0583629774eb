// Fixture for the atset analyzer: this file carries no //lint:hot
// directive, so its element-wise loops are off the hot path and report
// nothing, in the same package as the hot dense.go.
package mat

// fillIdentity is an element-wise fill that the rule leaves alone here.
func fillIdentity(m *Dense, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, 1)
			}
		}
	}
}
