// Fixture for the allocsite analyzer (advisory): per-iteration allocation in
// hot-path loops. The //lint:hot directive puts the file on the hot path, so
// the rule is active here.
package core

//lint:hot

import "fmt"

// perIterationMake allocates a fresh buffer every column.
func perIterationMake(m, n int, out [][]float64) {
	for j := 0; j < m; j++ {
		buf := make([]float64, n) // want "make allocates on every iteration"
		for i := 0; i < n; i++ {
			buf[i] = float64(i * j)
		}
		out[j] = buf
	}
}

// hoistedReuse is the approved idiom: one make above the loop, a reslice to
// zero length inside it, and loop-carried appends that never re-grow.
func hoistedReuse(m, n int, sink func([]float64)) {
	buf := make([]float64, 0, n)
	for j := 0; j < m; j++ {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, float64(i*j))
		}
		sink(buf)
	}
}

// growingAppend declares the slice inside the outer loop: every iteration the
// appends re-grow the backing array from nil.
func growingAppend(m, n int, sink func([]float64)) {
	for j := 0; j < m; j++ {
		var buf []float64
		for i := 0; i < n; i++ {
			buf = append(buf, float64(i*j)) // want "append to buf re-grows per iteration"
		}
		sink(buf)
	}
}

// boxing formats inside the hot loop: every fmt call boxes its operands.
func boxing(m int, sink func(string)) {
	for j := 0; j < m; j++ {
		sink(fmt.Sprintf("col %d", j)) // want "fmt.Sprintf boxes its operands"
	}
}

// coldError is exempt: Errorf in the return is the cold path out of the loop,
// executed at most once.
func coldError(m int, xs []float64) error {
	for j := 0; j < m; j++ {
		if xs[j] < 0 {
			return fmt.Errorf("negative at %d", j)
		}
	}
	return nil
}

// tableFill is exempt: the loop's purpose is the one-time allocation of the
// buffer table itself.
func tableFill(k, n int) [][]float64 {
	tbl := make([][]float64, k)
	for i := range tbl {
		tbl[i] = make([]float64, n)
	}
	return tbl
}

// suppressed documents a lazily-initialized once-per-slot buffer.
func suppressed(m, n int, tbl [][]float64) {
	for j := 0; j < m; j++ {
		if tbl[j] == nil {
			//lint:ignore allocsite fixture demonstrating the suppression policy
			tbl[j] = make([]float64, n)
		}
	}
}
