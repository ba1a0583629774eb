package sparse

//lint:hot

import (
	"fmt"

	"opmsim/internal/vecops"
)

// Vec is a sparse column vector in coordinate form: Val[q] at row Idx[q].
// The stamp-delta emitters keep indices strictly increasing, which Validate
// enforces; Dot and ScatterAdd only require them in range. The zero value is
// the empty (all-zero) vector.
//
// Vec is the U/V currency of the Sherman–Morrison–Woodbury update path: a
// component-value change perturbs the assembled pencil by δ·u·vᵀ where u and
// v are (scaled) incidence vectors with one or two nonzeros, so the dense
// n-vector view would waste both memory and the O(nnz) inner products the
// update formula lives on.
type Vec struct {
	Idx []int
	Val []float64
}

// NNZ returns the number of stored entries.
func (v Vec) NNZ() int { return len(v.Idx) }

// Validate checks that the vector is well-formed for dimension n: matching
// Idx/Val lengths and strictly increasing indices inside [0, n).
func (v Vec) Validate(n int) error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse: Vec has %d indices but %d values", len(v.Idx), len(v.Val))
	}
	prev := -1
	for _, i := range v.Idx {
		if i < 0 || i >= n {
			return fmt.Errorf("sparse: Vec index %d outside [0,%d)", i, n)
		}
		if i <= prev {
			return fmt.Errorf("sparse: Vec indices not strictly increasing at %d", i)
		}
		prev = i
	}
	return nil
}

// Dot returns vᵀ·x as the strict left-to-right fold over the stored entries
// (the vecops.GatherDot bitwise contract). x must cover every index.
func (v Vec) Dot(x []float64) float64 {
	return vecops.GatherDot(v.Idx, v.Val, x)
}

// ScatterAdd adds s·v into dst: dst[Idx[q]] += s·Val[q], one multiply and one
// add rounding per entry in index order. dst must cover every index.
func (v Vec) ScatterAdd(s float64, dst []float64) {
	for q, i := range v.Idx {
		dst[i] += s * v.Val[q]
	}
}
