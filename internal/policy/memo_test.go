package policy

import (
	"math"
	"testing"

	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// memoCase draws a small, tightly packed machine and a stream mix that
// exercises every memo invalidation path: replicated read-only streams
// (whose groups switch from the per-core to the global curve when a merge
// leaves one group), writable single-group streams, and affine streams
// under a per-unit affine cap.
func memoCase(rng *sim.RNG) (Config, []StreamInput) {
	units := 6 + rng.Intn(7)
	cfg := testCfg(units, uint32(24+4*rng.Intn(8)))
	cfg.MaxGroups = 2 + rng.Intn(7)
	cfg.AffineCapRows = cfg.UnitRows / 2
	n := 3 + rng.Intn(5)
	ins := make([]StreamInput, n)
	for i := range ins {
		ws := int64(8+rng.Intn(256)) * 2048
		in := StreamInput{
			SID:        stream.ID(i + 1),
			Curve:      curveWS(ws, 0.05*rng.Float64(), uint64(1000+rng.Intn(1_000_000))),
			LocalCurve: curveWS(ws/int64(2+rng.Intn(8)), 0.1*rng.Float64(), 0),
			Acc:        map[int]uint64{},
			Footprint:  ws * int64(1+rng.Intn(2)),
			PrevGroups: rng.Intn(4),
		}
		switch rng.Intn(4) {
		case 0:
			in.Affine = true
		case 1: // writable: a single group
		default:
			in.ReadOnly = true
		}
		for u := 0; u < units; u++ {
			if rng.Intn(3) != 0 {
				in.Acc[u] = uint64(1 + rng.Intn(100_000))
			}
		}
		if len(in.Acc) == 0 {
			in.Acc[rng.Intn(units)] = 1
		}
		ins[i] = in
	}
	return cfg, ins
}

// checkMemos fails if any group's memo disagrees with a fresh groupJump.
func checkMemos(t *testing.T, seed uint64, when string, o *optimizer) {
	t.Helper()
	for _, s := range o.streams {
		for gi, g := range s.groups {
			if !g.memo {
				continue
			}
			jump, slope := o.groupJump(s, g)
			if jump != g.jump || math.Float64bits(slope) != math.Float64bits(g.slope) {
				t.Fatalf("seed %d, iteration %d %s: stream %d group %d memo (%d, %v), fresh (%d, %v)",
					seed, o.rep.Iterations, when, s.in.SID, gi, g.jump, g.slope, jump, slope)
			}
		}
	}
}

// TestJumpMemoMatchesFresh runs the optimizer loop step by step and, at
// every iteration, recomputes the jump of each group whose memo claims to
// be current. The seed set must reach extensions, merges and merges of
// another stream's groups, so every invalidation path is exercised.
func TestJumpMemoMatchesFresh(t *testing.T) {
	var extends, merges, crossMerges int
	for seed := uint64(1); seed <= 40; seed++ {
		cfg, ins := memoCase(sim.NewRNG(seed))
		o, err := newOptimizer(cfg, ins)
		if err != nil {
			t.Fatal(err)
		}
		groups := make([]int, len(o.streams))
		for o.rep.Iterations < cfg.MaxIters {
			s := o.nextSteepest()
			checkMemos(t, seed, "after nextSteepest", o)
			if s == nil {
				break
			}
			o.rep.Iterations++
			for i, os := range o.streams {
				groups[i] = len(os.groups)
			}
			o.allocateRound(s)
			checkMemos(t, seed, "after allocateRound", o)
			for i, os := range o.streams {
				if os != s && len(os.groups) < groups[i] {
					crossMerges += groups[i] - len(os.groups)
				}
			}
		}
		extends += o.rep.Extends
		merges += o.rep.Merges
	}
	t.Logf("extends %d, merges %d, cross-stream merges %d", extends, merges, crossMerges)
	if extends == 0 || merges == 0 || crossMerges == 0 {
		t.Fatalf("seed set reached extends %d, merges %d, cross-stream merges %d; every path needs > 0",
			extends, merges, crossMerges)
	}
}
