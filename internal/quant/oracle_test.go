package quant

import "math"

// The adaptive quantizer as it stood before the branch-free kernel,
// verbatim apart from the oracle prefix: round with math.Round, clamp in
// the float domain, convert and multiply per element. It is the
// reference TestAdaptiveKernelDifferential and FuzzAdaptiveRange hold the
// kernel to, bit for bit; it must not be "fixed" or sped up. Two
// exceptions: the walk stops when a step moves neither end, which it
// otherwise repeats forever (a row a few ulps wide) — so no row that
// returned before returns anything else now; and a range is scored on
// the grid it would be stored on from lo, step oracleStoredScale, as the
// quantizer has since chunks store a bfloat16 step. It has no early
// stop: it walks to the ratio limit.

func oracleUniformL2(x []float32, bits int, lo, hi float32) float64 {
	return oracleGridL2(x, bits, lo, oracleStoredScale(lo, hi, bits))
}

// oracleGridL2 is the scorer over a grid, a zero point and a step.
func oracleGridL2(x []float32, bits int, zero, scale float32) float64 {
	maxCode := float64(int(1)<<uint(bits) - 1)
	var sum float64
	for _, v := range x {
		var rec float64
		if scale > 0 {
			c := math.Round(float64(v-zero) / float64(scale))
			if c < 0 {
				c = 0
			}
			if c > maxCode {
				c = maxCode
			}
			rec = float64(scale)*c + float64(zero)
		} else {
			rec = float64(zero)
		}
		d := float64(v) - rec
		sum += d * d
	}
	return sum
}

func oracleAdaptiveRangeFrom(x []float32, bits, numBins int, ratio float64, origLo, origHi float32) (lo, hi float32, bestU, bestD int) {
	rangeF := float64(origHi - origLo)
	if rangeF <= 0 || numBins < 1 {
		return origLo, origHi, 0, 0
	}
	step := float32(rangeF / float64(numBins))
	bestLo, bestHi := origLo, origHi
	bestErr := oracleUniformL2(x, bits, origLo, origHi)
	curLo, curHi := origLo, origHi
	curU, curD := 0, 0
	// Iterate while the removed span stays under ratio*range.
	for float64(origHi-origLo)-float64(curHi-curLo) < ratio*rangeF-1e-12 {
		prevLo, prevHi := curLo, curHi
		upErr := oracleUniformL2(x, bits, curLo+step, curHi)
		dnErr := oracleUniformL2(x, bits, curLo, curHi-step)
		if upErr <= dnErr {
			curLo += step
			curU++
			if upErr < bestErr {
				bestErr, bestLo, bestHi = upErr, curLo, curHi
				bestU, bestD = curU, curD
			}
		} else {
			curHi -= step
			curD++
			if dnErr < bestErr {
				bestErr, bestLo, bestHi = dnErr, curLo, curHi
				bestU, bestD = curU, curD
			}
		}
		if curHi-curLo <= step || curLo == prevLo && curHi == prevHi {
			break
		}
	}
	return bestLo, bestHi, bestU, bestD
}

// oracleCodes is the old quantizeUniformInto's code loop, given the step
// rather than the range.
func oracleCodes(x []float32, bits int, zero, scale float32) []uint32 {
	codes := make([]uint32, len(x))
	maxCode := uint32(1)<<uint(bits) - 1
	for i, v := range x {
		var code uint32
		if scale > 0 {
			c := float64(v-zero) / float64(scale)
			r := int64(math.Round(c))
			if r < 0 {
				r = 0
			}
			if r > int64(maxCode) {
				r = int64(maxCode)
			}
			code = uint32(r)
		}
		codes[i] = code
	}
	return codes
}

// oracleChunk replays QuantizeCachedInto's per-chunk sampling with the
// oracle search and scorer: the old adaptiveRangeChunk, with the Scratch
// state it kept spelled out as fields.
type oracleChunk struct {
	sampleEvery, chunkRow, candNext int
	cand                            [][2]int32
}

func (o *oracleChunk) note(u, d int) {
	if u == 0 && d == 0 {
		return
	}
	c := [2]int32{int32(u), int32(d)}
	for _, have := range o.cand {
		if have == c {
			return
		}
	}
	if len(o.cand) < maxAdaptiveCandidates {
		o.cand = append(o.cand, c)
		return
	}
	o.cand[o.candNext] = c
	o.candNext = (o.candNext + 1) % maxAdaptiveCandidates
}

func (o *oracleChunk) rangeFor(x []float32, bits, numBins int, ratio float64) (lo, hi float32) {
	origLo, origHi := x[0], x[0]
	for _, v := range x[1:] {
		if v < origLo {
			origLo = v
		}
		if v > origHi {
			origHi = v
		}
	}
	rangeF := float64(origHi - origLo)
	if rangeF <= 0 || numBins < 1 {
		return origLo, origHi
	}
	if o.sampleEvery <= 1 {
		lo, hi, _, _ = oracleAdaptiveRangeFrom(x, bits, numBins, ratio, origLo, origHi)
		return lo, hi
	}
	i := o.chunkRow
	o.chunkRow++
	if i%o.sampleEvery == 0 || len(o.cand) == 0 {
		var u, d int
		lo, hi, u, d = oracleAdaptiveRangeFrom(x, bits, numBins, ratio, origLo, origHi)
		o.note(u, d)
		return lo, hi
	}
	step := float32(rangeF / float64(numBins))
	bestLo, bestHi := origLo, origHi
	bestErr := oracleUniformL2(x, bits, origLo, origHi)
	maxSteps := int(ratio * float64(numBins))
	for _, c := range o.cand {
		if int(c[0])+int(c[1]) > maxSteps {
			continue
		}
		cLo, cHi := origLo, origHi
		for k := int32(0); k < c[0]; k++ {
			cLo += step
		}
		for k := int32(0); k < c[1]; k++ {
			cHi -= step
		}
		if cHi-cLo <= 0 {
			continue
		}
		if e := oracleUniformL2(x, bits, cLo, cHi); e < bestErr {
			bestErr, bestLo, bestHi = e, cLo, cHi
		}
	}
	return bestLo, bestHi
}
