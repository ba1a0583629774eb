//go:build !amd64 || purego

package fft

// hasSIMD is false: this build has only the portable Go loops.
const hasSIMD = false

func ditStage(x, w []complex128, h int)         { ditStageGo(x, w, h) }
func difStage(x, w []complex128, h int)         { difStageGo(x, w, h) }
func mul(dst, a, w []complex128)                { mulGo(dst, a, w) }
func convMiddle(x, spec []complex128)           { convMiddleGo(x, spec) }
func scaleParts(z []complex128, sr, si float64) { scalePartsGo(z, sr, si) }

func addPart(dst []float64, z []complex128, u float64, imag bool) {
	if imag {
		addImagGo(dst, z, u)
	} else {
		addRealGo(dst, z, u)
	}
}
