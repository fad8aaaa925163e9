package sampler

import (
	"math"
	"testing"

	"ndpext/internal/sim"
)

// scanMissRate is the linear-scan interpolation Curve.MissRateAt used
// before the index existed, kept as the oracle the index must match.
func scanMissRate(c Curve, bytes int64) float64 {
	if bytes <= 0 {
		return 1
	}
	if len(c.Points) == 0 {
		return 1
	}
	if bytes <= c.Points[0].Bytes {
		return c.Points[0].MissRate
	}
	last := c.Points[len(c.Points)-1]
	if bytes >= last.Bytes {
		return last.MissRate
	}
	for i := 1; i < len(c.Points); i++ {
		if bytes <= c.Points[i].Bytes {
			a, b := c.Points[i-1], c.Points[i]
			f := (math.Log(float64(bytes)) - math.Log(float64(a.Bytes))) /
				(math.Log(float64(b.Bytes)) - math.Log(float64(a.Bytes)))
			return a.MissRate + f*(b.MissRate-a.MissRate)
		}
	}
	return last.MissRate
}

// randomCurve draws a sampler-shaped curve: ascending capacities with
// occasional duplicates, and a miss rate that is usually non-increasing.
func randomCurve(rng *sim.RNG) Curve {
	n := rng.Intn(12)
	c := Curve{ItemBytes: 64, Accesses: uint64(rng.Intn(1 << 20))}
	b := int64(1 + rng.Intn(4096))
	mr := rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 { // one point in four repeats its predecessor's capacity
			b += int64(1 + rng.Intn(1<<16))
		}
		if rng.Intn(8) == 0 {
			mr = rng.Float64() // a rise, as unfitted curves can show
		} else {
			mr *= rng.Float64()
		}
		c.Points = append(c.Points, CurvePoint{Bytes: b, MissRate: mr, Sampled: 1})
	}
	return c
}

// queries lists the capacities worth probing on c: none, negative, below
// the first point, at, just around and between every point, above the
// last, and random values across the range.
func queries(rng *sim.RNG, c Curve) []int64 {
	q := []int64{0, -1, -1 << 40, 1, math.MaxInt64}
	for i, p := range c.Points {
		q = append(q, p.Bytes, p.Bytes-1, p.Bytes+1, p.Bytes/2)
		if i > 0 {
			q = append(q, (c.Points[i-1].Bytes+p.Bytes)/2)
		}
	}
	hi := int64(1 << 20)
	if n := len(c.Points); n > 0 {
		hi = 2 * c.Points[n-1].Bytes
	}
	for i := 0; i < 32; i++ {
		q = append(q, int64(rng.Uint64()%uint64(hi+1)))
	}
	return q
}

func checkIndex(t *testing.T, name string, c Curve, qs []int64) {
	t.Helper()
	x := c.Index()
	for _, b := range qs {
		want := math.Float64bits(scanMissRate(c, b))
		if got := math.Float64bits(c.MissRateAt(b)); got != want {
			t.Fatalf("%s: Curve.MissRateAt(%d) bits %#x, scan oracle %#x (points %+v)", name, b, got, want, c.Points)
		}
		if got := math.Float64bits(x.MissRateAt(b)); got != want {
			t.Fatalf("%s: CurveIndex.MissRateAt(%d) bits %#x, scan oracle %#x (points %+v)", name, b, got, want, c.Points)
		}
	}
}

func TestCurveIndexBitIdentical(t *testing.T) {
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		c := randomCurve(rng)
		checkIndex(t, "random", c, queries(rng, c))
	}
	fixed := []struct {
		name string
		c    Curve
	}{
		{"empty", Curve{}},
		{"one-point", Curve{Points: []CurvePoint{{Bytes: 4096, MissRate: 0.25}}}},
		{"flat", FlatCurve(64, 1000)},
		// The system's unsampled-stream prior: size/16, size/4, size.
		{"prior", Curve{Points: []CurvePoint{
			{Bytes: 1 << 16, MissRate: 0.9}, {Bytes: 1 << 18, MissRate: 0.5}, {Bytes: 1 << 20, MissRate: 0.1}}}},
		{"prior-tiny", Curve{Points: []CurvePoint{
			{Bytes: 0, MissRate: 0.9}, {Bytes: 2, MissRate: 0.5}, {Bytes: 10, MissRate: 0.1}}}},
		{"all-duplicates", Curve{Points: []CurvePoint{
			{Bytes: 512, MissRate: 0.8}, {Bytes: 512, MissRate: 0.4}, {Bytes: 512, MissRate: 0.2}}}},
	}
	for _, f := range fixed {
		checkIndex(t, f.name, f.c, queries(rng, f.c))
	}
}

// TestCurveIndexOnSampledCurve checks the index on a curve the sampler
// itself produced, the shape every epoch solve looks up.
func TestCurveIndexOnSampledCurve(t *testing.T) {
	s := New(cfg(), 64)
	rng := sim.NewRNG(3)
	for i := 0; i < 200000; i++ {
		s.Observe(uint64(rng.Intn(16384)))
	}
	c := s.Curve()
	if len(c.Points) < 2 {
		t.Fatalf("sampled curve has %d points", len(c.Points))
	}
	checkIndex(t, "sampled", c, queries(rng, c))
}
