package quant

import "fmt"

// SelectBitWidth maps the expected number of checkpoint restores L to a
// quantization bit-width using the thresholds measured in §6.2.1 /
// Figure 14: 2-bit survives L <= 1 restore within the 0.01% accuracy
// budget, 3-bit up to 3, 4-bit below 20, and 8-bit from 20 on.
func SelectBitWidth(expectedRestores float64) int {
	switch {
	case expectedRestores <= 1:
		return 2
	case expectedRestores <= 3:
		return 3
	case expectedRestores < 20:
		return 4
	default:
		return 8
	}
}

// ParamsForBits returns the production quantizer for a bit-width
// (§5.2 summary): adaptive asymmetric for 4 bits and below — with the
// optimal bins from Figure 10 (25 for 2-3 bits, 45 for 4 bits) — and
// naive asymmetric for 8 bits, where adaptation no longer pays.
func ParamsForBits(bits int) (Params, error) {
	switch bits {
	case 2, 3:
		return Params{Method: MethodAdaptive, Bits: bits, NumBins: 25, Ratio: 1.0}, nil
	case 4:
		return Params{Method: MethodAdaptive, Bits: bits, NumBins: 45, Ratio: 1.0}, nil
	case 8:
		return Params{Method: MethodAsymmetric, Bits: 8}, nil
	case 32:
		return Params{Method: MethodNone}, nil
	default:
		return Params{}, fmt.Errorf("quant: unsupported bit-width %d (use 2, 3, 4, 8 or 32)", bits)
	}
}
