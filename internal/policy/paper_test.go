package policy

import (
	"math"
	"testing"
)

// TestUtilityWorkedExample reproduces the §V-C worked example exactly:
// a replication group holding 60 and 40 elements in units A and B with
// all attenuation factors 0.9 has utility 60 + 40*0.9 = 96 for A and
// 40 + 60*0.9 = 94 for B, 190 in total.
func TestUtilityWorkedExample(t *testing.T) {
	o := &optimizer{cfg: Config{
		NumUnits: 2, RowBytes: 2048, UnitRows: 1024, SegRows: 4,
		Attenuation: func(u, v int) float64 {
			if u == v {
				return 1
			}
			return 0.9
		},
		MaxGroups: 64,
	}}
	g := &grp{
		rows:      []unitRows{{0, 60}, {1, 40}},
		accessors: []int{0, 1},
		anchor:    0,
	}
	if got := o.utility(g); math.Abs(got-190) > 1e-9 {
		t.Fatalf("utility = %v, want 190 (paper's worked example)", got)
	}
}

// TestExtendedUtilityWorkedExample continues the example: extending the
// next 20 elements to unit C (attenuation 0.9 from both A and B) yields
// utility 60 + 40*0.9 + 20*0.9 = 114 for A and 112 for B, 226 in total.
func TestExtendedUtilityWorkedExample(t *testing.T) {
	o := &optimizer{cfg: Config{
		NumUnits: 3, RowBytes: 2048, UnitRows: 1024, SegRows: 4,
		Attenuation: func(u, v int) float64 {
			if u == v {
				return 1
			}
			return 0.9
		},
		MaxGroups: 64,
	}}
	g := &grp{
		rows:      []unitRows{{0, 60}, {1, 40}, {2, 20}}, // extended to unit C
		accessors: []int{0, 1},                           // C does not access the stream
		anchor:    0,
	}
	if got := o.utility(g); math.Abs(got-226) > 1e-9 {
		t.Fatalf("extended utility = %v, want 226 (paper's worked example)", got)
	}
}

// TestMergedUtilityDirection mirrors the merge arithmetic of §V-C: after
// merging two 100-element groups, only one copy's worth of elements
// remains spread over the union, so total utility decreases while space
// is freed.
func TestMergedUtilityDirection(t *testing.T) {
	o := &optimizer{cfg: Config{
		NumUnits: 3, RowBytes: 2048, UnitRows: 1024, SegRows: 4,
		Attenuation: func(u, v int) float64 {
			if u == v {
				return 1
			}
			return 0.9
		},
		MaxGroups: 64,
	}}
	a := &grp{rows: []unitRows{{0, 60}, {1, 40}}, accessors: []int{0, 1}, anchor: 0}
	b := &grp{rows: []unitRows{{2, 100}}, accessors: []int{2}, anchor: 2}
	before := o.utility(a) + o.utility(b)
	merged := o.mergedUtility(a, b)
	if merged >= before {
		t.Fatalf("merged utility %v not below separate %v", merged, before)
	}
	if merged <= 0 {
		t.Fatalf("merged utility %v should stay positive", merged)
	}
}
