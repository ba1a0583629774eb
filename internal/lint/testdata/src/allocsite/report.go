// Fixture for the allocsite analyzer: this file carries no //lint:hot
// directive, so the allocations in its loops report nothing, in the same
// package as the hot solve.go.
package core

import "fmt"

// formatRows builds one labelled row per column: off the hot path, its
// per-iteration make and formatting are fine.
func formatRows(m, n int) []string {
	var rows []string
	for j := 0; j < m; j++ {
		buf := make([]float64, n)
		rows = append(rows, fmt.Sprintf("column %d: %v", j, buf))
	}
	return rows
}
