package smc

import (
	"testing"

	"repro/internal/randx"
)

func TestCheckHyperFixedPairwiseGap(t *testing.T) {
	// Tightly clustered values: every pair within eps.
	r := randx.New(7)
	vals := make([]float64, 44)
	for i := range vals {
		vals[i] = 100 + r.Uniform(0, 0.1)
	}
	res, err := CheckHyperFixed(vals, 2, MaxPairwiseGapWithin(0.5), 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assertion != Positive {
		t.Errorf("clustered values: %+v, want positive", res)
	}
	if res.Samples != 22 {
		t.Errorf("44 values should give 22 pairs, got %d", res.Samples)
	}

	// Wildly spread values: pairs should violate the gap.
	for i := range vals {
		vals[i] = r.Uniform(0, 1000)
	}
	res, err = CheckHyperFixed(vals, 2, MaxPairwiseGapWithin(0.5), 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assertion != Negative {
		t.Errorf("spread values: %+v, want negative", res)
	}
}

func TestCheckHyperFixedValidation(t *testing.T) {
	if _, err := CheckHyperFixed([]float64{1, 2, 3}, 1, MaxPairwiseGapWithin(1), 0.9, 0.9); err == nil {
		t.Error("arity 1 should error")
	}
	if _, err := CheckHyperFixed([]float64{1, 2}, 3, MaxPairwiseGapWithin(1), 0.9, 0.9); err == nil {
		t.Error("too few values should error")
	}
}

func TestCheckHyperFixedDiscardsLeftover(t *testing.T) {
	vals := []float64{1, 1, 1, 1, 1, 1, 1} // 7 values, arity 3 ⇒ 2 tuples
	res, err := CheckHyperFixed(vals, 3, MaxPairwiseGapWithin(1), 0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 2 {
		t.Errorf("expected 2 tuples, got %d", res.Samples)
	}
}

func TestMaxPairwiseGapWithinEdge(t *testing.T) {
	hp := MaxPairwiseGapWithin(2)
	if !hp([]float64{1, 3}) {
		t.Error("gap exactly eps should satisfy")
	}
	if hp([]float64{1, 3.01}) {
		t.Error("gap above eps should violate")
	}
	if !hp([]float64{5, 4, 6, 5.5}) {
		t.Error("4-tuple within range should satisfy")
	}
}
