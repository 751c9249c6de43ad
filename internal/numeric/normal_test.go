package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-2.5758293035489004, 0.005},
		{3, 0.9986501019683699},
		{-6, 9.865876450376946e-10},
	}
	for _, c := range cases {
		got := NormalCDF(c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%g) = %.16g, want %.16g", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.995, 2.5758293035489004},
		{0.9995, 3.2905267314919255},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%g) = %.12g, want %.12g", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("NormalQuantile outside [0,1] should be NaN")
	}
}

// Round trip Φ(Φ⁻¹(p)) = p across the open interval, including deep tails.
func TestNormalRoundTripProperty(t *testing.T) {
	f := func(r uint32) bool {
		p := (float64(r%999999) + 0.5) / 1000000.0
		back := NormalCDF(NormalQuantile(p))
		return math.Abs(back-p) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Antisymmetry: Φ⁻¹(1−p) = −Φ⁻¹(p).
func TestNormalQuantileAntisymmetryProperty(t *testing.T) {
	f := func(r uint32) bool {
		p := (float64(r%499999) + 0.5) / 1000000.0
		return math.Abs(NormalQuantile(1-p)+NormalQuantile(p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
