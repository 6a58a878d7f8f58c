package quant

import "testing"

func TestSelectBitWidthThresholds(t *testing.T) {
	cases := []struct {
		restores float64
		want     int
	}{
		{0, 2}, {1, 2}, {1.5, 3}, {3, 3}, {3.5, 4}, {19.9, 4}, {20, 8}, {100, 8},
	}
	for _, c := range cases {
		if got := SelectBitWidth(c.restores); got != c.want {
			t.Errorf("SelectBitWidth(%v) = %d, want %d", c.restores, got, c.want)
		}
	}
}

func TestParamsForBits(t *testing.T) {
	for bits, wantMethod := range map[int]Method{
		2: MethodAdaptive, 3: MethodAdaptive,
		4: MethodAdaptive, 8: MethodAsymmetric,
		32: MethodNone,
	} {
		p, err := ParamsForBits(bits)
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		if p.Method != wantMethod {
			t.Fatalf("bits %d: method %v, want %v", bits, p.Method, wantMethod)
		}
	}
	// Figure 10's optimal bins: 25 for 2-3 bits, 45 for 4.
	p3, _ := ParamsForBits(3)
	p4, _ := ParamsForBits(4)
	if p3.NumBins != 25 || p4.NumBins != 45 {
		t.Fatalf("bins: %d, %d", p3.NumBins, p4.NumBins)
	}
	if _, err := ParamsForBits(5); err == nil {
		t.Fatal("unsupported bits should error")
	}
}
