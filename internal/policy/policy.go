// Package policy implements NDPExt's cache configuration algorithm
// (paper §V-C, Algorithm 1). Every epoch the host runtime feeds it the
// profiled miss curves and per-unit access counts of all streams; the
// algorithm simultaneously decides sizing (how many DRAM rows each stream
// cache gets), placement (from which NDP units), and replication (how the
// units partition into replication groups, independently per stream).
//
// The structure follows the paper: a lookahead loop repeatedly gives the
// stream with the steepest miss-curve slope one allocation segment in
// every replication group; when a group's home unit runs out of space the
// algorithm either *extends* the group to a nearby unit (paying an
// attenuation factor on the utility of remote rows) or *merges* two
// existing groups of some stream (reducing replication to free space),
// choosing whichever change yields the higher utility.
package policy

import (
	"fmt"
	"sort"

	"ndpext/internal/sampler"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// StreamInput is one stream's profile for the epoch.
type StreamInput struct {
	SID stream.ID
	// Curve is the stream's global miss curve: the home-unit sampler
	// sees traffic from every core (§V-A), so it captures cross-core
	// reuse. It sizes shared (single-group) stream caches.
	Curve sampler.Curve
	// LocalCurve is the miss curve of a single core's accesses. It
	// decides replication: if per-core reuse exists (the local curve
	// drops), replicas keep their hit rate after the accessors are
	// split among groups; if only the global curve drops, splitting
	// destroys the reuse and the stream must stay shared. Zero value
	// falls back to Curve.
	LocalCurve sampler.Curve
	Acc        map[int]uint64 // accessing unit -> access count (§V-B bitvector + counts)
	ReadOnly   bool
	Affine     bool
	Footprint  int64 // cache footprint in bytes (caps useful allocation; 0 = unknown)
	// PrevGroups is the stream's replication group count in the
	// currently installed configuration (0 if none). The optimizer keeps
	// it unless the profile calls for a large change: regrouping remaps
	// the whole stream, and the resulting invalidations usually cost
	// more than a mildly better degree earns (§V-D motivation).
	PrevGroups int
}

// localOrGlobal returns the curve to use for a replicated group.
func (in *StreamInput) localOrGlobal() sampler.Curve {
	if len(in.LocalCurve.Points) > 0 {
		return in.LocalCurve
	}
	return in.Curve
}

// Config parameterizes the optimizer.
type Config struct {
	NumUnits      int
	RowBytes      int
	UnitRows      uint32 // DRAM cache rows per unit
	AffineCapRows uint32 // per-unit cap on total affine rows (§IV-C restriction)
	SegRows       uint32 // allocation segment (lookahead step)
	// Attenuation returns the paper's k factor for unit v's rows as seen
	// from accessor u: DRAM latency / (DRAM latency + interconnect
	// latency), 1 for u == v, smaller for farther units.
	Attenuation func(u, v int) float64
	MaxGroups   int // replication group cap per stream (64 in hardware)
	MaxIters    int // safety valve for the lookahead loop

	// MissLatNS is the extra latency of a DRAM-cache miss (the extended
	// memory round trip), and NetLatNS(d) the average interconnect
	// latency to the nearest of d replication groups. Together they let
	// the degree chooser trade hit rate against hit latency explicitly
	// (§V-C). Nil NetLatNS disables the latency term.
	MissLatNS float64
	NetLatNS  func(degree int) float64

	// DeadUnits lists units whose DRAM vault is offline (fault
	// injection); they contribute no capacity, so the optimizer places
	// every stream on surviving units only.
	DeadUnits []int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumUnits <= 0 || c.UnitRows == 0 || c.SegRows == 0 || c.RowBytes <= 0 {
		return fmt.Errorf("policy: invalid config %+v", c)
	}
	if c.Attenuation == nil {
		return fmt.Errorf("policy: nil attenuation function")
	}
	if c.MaxGroups <= 0 || c.MaxGroups > 1<<streamcache.RGroupsBits {
		return fmt.Errorf("policy: MaxGroups %d outside (0, %d]", c.MaxGroups, 1<<streamcache.RGroupsBits)
	}
	for _, u := range c.DeadUnits {
		if u < 0 || u >= c.NumUnits {
			return fmt.Errorf("policy: dead unit %d out of range [0,%d)", u, c.NumUnits)
		}
	}
	if len(c.DeadUnits) >= c.NumUnits {
		return fmt.Errorf("policy: all %d units dead", c.NumUnits)
	}
	return nil
}

// Report summarizes one optimization run.
type Report struct {
	Iterations     int
	RowsAllocated  uint64
	ReplicatedRows uint64 // rows in streams with more than one group
	Extends        int
	Merges         int
	Stalls         int
}

// unitRows is the rows one group holds at one unit.
type unitRows struct {
	unit int
	rows uint32
}

// grp is one replication group of one stream during optimization.
type grp struct {
	rows      []unitRows // rows held, ascending by unit, every entry > 0
	accessors []int      // accessing units served by this group
	anchor    int        // preferred allocation unit
	stalled   bool

	// jump and slope memoize groupJump while memo is set. Whatever
	// changes the group's rows or accessors, or the number of groups of
	// its stream, clears memo (tryAlloc, merge).
	memo  bool
	jump  uint32
	slope float64
}

func (g *grp) totalRows() uint64 {
	var t uint64
	for _, ur := range g.rows {
		t += uint64(ur.rows)
	}
	return t
}

// add gives g r more rows at unit u, keeping rows ascending by unit.
func (g *grp) add(u int, r uint32) {
	i := len(g.rows)
	for i > 0 && g.rows[i-1].unit > u {
		i--
	}
	if i > 0 && g.rows[i-1].unit == u {
		g.rows[i-1].rows += r
		return
	}
	g.rows = append(g.rows, unitRows{})
	copy(g.rows[i+1:], g.rows[i:])
	g.rows[i] = unitRows{unit: u, rows: r}
}

// st is the optimization state of one stream.
type st struct {
	in     *StreamInput
	groups []*grp             // live groups in creation order; merge drops the absorbed one
	curve  sampler.CurveIndex // in.Curve: a single shared group
	local  sampler.CurveIndex // in.localOrGlobal(): replicated groups
}

// planned is one group's jump in the round nextSteepest chose.
type planned struct {
	g    *grp
	rows uint32
}

// optimizer carries the loop state.
type optimizer struct {
	cfg        Config
	streams    []*st
	free       []int64 // rows free per unit
	affineFree []int64 // affine budget remaining per unit
	rep        Report

	// Scratch reused by every call on the solve path; no two uses nest.
	plan, cand []planned // jumps of the chosen stream / the stream being scored
	mark       []bool    // per-unit flags for bestExtension and bestMerge
	merged     grp       // mergedUtility's union group
}

// Optimize runs Algorithm 1 and returns the allocation per stream plus a
// run report. Streams with no accesses receive no space.
func Optimize(cfg Config, ins []StreamInput) (map[stream.ID]streamcache.Allocation, Report, error) {
	o, err := newOptimizer(cfg, ins)
	if err != nil {
		return nil, Report{}, err
	}
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 1 << 20
	}
	for o.rep.Iterations < maxIters {
		s := o.nextSteepest()
		if s == nil {
			break
		}
		o.rep.Iterations++
		o.allocateRound(s)
	}
	o.finalFill()
	return o.emit(), o.rep, nil
}

// newOptimizer sets up the free-space budgets and the initial groups of
// every accessed stream, ascending by stream ID.
func newOptimizer(cfg Config, ins []StreamInput) (*optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &optimizer{cfg: cfg, mark: make([]bool, cfg.NumUnits)}
	o.free = make([]int64, cfg.NumUnits)
	o.affineFree = make([]int64, cfg.NumUnits)
	for u := range o.free {
		o.free[u] = int64(cfg.UnitRows)
		o.affineFree[u] = int64(cfg.AffineCapRows)
		if cfg.AffineCapRows == 0 || cfg.AffineCapRows > cfg.UnitRows {
			o.affineFree[u] = int64(cfg.UnitRows)
		}
	}
	// Dead vaults offer no capacity: every allocation path gates on
	// free[]/affineFree[], so zeroing them excludes the units entirely.
	for _, u := range cfg.DeadUnits {
		o.free[u] = 0
		o.affineFree[u] = 0
	}
	var accTotal uint64
	for i := range ins {
		for _, a := range ins[i].Acc {
			accTotal += a
		}
	}
	for i := range ins {
		in := &ins[i]
		if len(in.Acc) == 0 {
			continue
		}
		o.streams = append(o.streams, o.initStream(in, accTotal))
	}
	// Deterministic order regardless of input map iteration.
	sort.Slice(o.streams, func(i, j int) bool { return o.streams[i].in.SID < o.streams[j].in.SID })
	return o, nil
}

// unitMarks returns the per-unit flag scratch, all false.
func (o *optimizer) unitMarks() []bool {
	clear(o.mark)
	return o.mark
}

// finalFill spends leftover capacity after the utility-driven loop ends:
// first a floor allocation so no accessed stream is left with zero space
// (an unfunded stream would send every access to the extended memory and,
// unprofiled, could never earn space back), then greedy residual filling
// near the hottest accessors. This mirrors the paper's premise that the
// whole NDP DRAM space is cache.
func (o *optimizer) finalFill() {
	// Floor: one segment at each group's anchor for empty streams.
	for _, s := range o.streams {
		for _, g := range s.groups {
			if g.totalRows() == 0 {
				o.allocAnywhere(s, g, o.cfg.SegRows)
			}
		}
	}
	// Residual: hand remaining rows to groups at their anchors, hottest
	// streams first, one segment per pass.
	type pair struct {
		s *st
		g *grp
	}
	var order []pair
	for _, s := range o.streams {
		for _, g := range s.groups {
			order = append(order, pair{s, g})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		ai := groupAccesses(order[i].s.in, order[i].g)
		aj := groupAccesses(order[j].s.in, order[j].g)
		if ai != aj {
			return ai > aj
		}
		return order[i].s.in.SID < order[j].s.in.SID
	})
	for progress := true; progress; {
		progress = false
		for _, p := range order {
			// A group needs at most the stream's footprint plus headroom:
			// the DRAM cache is direct-mapped by hashing, so capacity
			// equal to the footprint still conflict-misses heavily
			// (load factor 1); 2x overprovisioning tames that.
			if f := p.s.in.Footprint; f > 0 &&
				p.g.totalRows()*uint64(o.cfg.RowBytes) >= 2*uint64(f) {
				continue
			}
			if o.allocAnywhere(p.s, p.g, o.cfg.SegRows) ||
				o.bestExtensionApply(p.s, p.g, o.cfg.SegRows) {
				progress = true
			}
		}
	}
}

// initStream builds the initial per-stream state. Read-only streams start
// with maximum replication (one group per accessing unit, the paper's
// starting point), but bounded by what replication can actually pay for:
// a replica only needs capacity up to the miss curve's knee, so the
// replication degree is capped at the stream's access-weighted fair share
// of total capacity divided by that knee. Streams whose curve flattens
// only at their full footprint (no per-replica reuse, e.g. PageRank's
// rank array) therefore start as a single shared group, while hot-headed
// streams (Zipf-skewed embeddings, small weight matrices) replicate
// widely. Writable streams always get a single group (§IV-B).
func (o *optimizer) initStream(in *StreamInput, accTotal uint64) *st {
	accs := make([]int, 0, len(in.Acc))
	for u := range in.Acc {
		accs = append(accs, u)
	}
	sort.Ints(accs)

	s := &st{in: in, curve: in.Curve.Index(), local: in.localOrGlobal().Index()}
	if !in.ReadOnly {
		g := &grp{accessors: accs, anchor: bestAnchor(in, accs)}
		s.groups = []*grp{g}
		return s
	}
	n := len(accs)
	k := n
	if k > o.cfg.MaxGroups {
		k = o.cfg.MaxGroups
	}
	budget := o.replicaBudget(s, accTotal)
	// Hysteresis: stick with the installed degree while the profile's
	// preference stays within 2x of it.
	if p := in.PrevGroups; p >= 1 && p <= k && budget >= (p+1)/2 && budget <= p*2 {
		budget = p
	}
	if budget < k {
		k = budget
	}
	for gi := 0; gi < k; gi++ {
		lo, hi := gi*n/k, (gi+1)*n/k
		members := accs[lo:hi]
		g := &grp{accessors: members, anchor: bestAnchor(in, members)}
		s.groups = append(s.groups, g)
	}
	return s
}

// replicaBudget picks the replication degree that minimizes the expected
// access cost, making the paper's hit-rate-vs-hit-latency tradeoff
// explicit (§V-C): with degree d the stream's access-weighted capacity
// share splits into d copies, so the miss rate follows the per-core curve
// at share/d, while the interconnect distance to the nearest replica
// shrinks with d:
//
//	cost(d) = mr(share/d) * missLat + (1 - mr(share/d)) * netLat(d)
//
// Degree 1 (a single shared group) is evaluated on the global curve,
// which includes cross-core reuse; higher degrees use the per-core curve,
// because splitting the accessors destroys cross-core reuse.
func (o *optimizer) replicaBudget(s *st, accTotal uint64) int {
	in := s.in
	if accTotal == 0 || o.cfg.NetLatNS == nil {
		return 1
	}
	var acc uint64
	for _, a := range in.Acc {
		acc += a
	}
	totalBytes := float64(o.cfg.NumUnits) * float64(o.cfg.UnitRows) * float64(o.cfg.RowBytes)
	share := totalBytes * float64(acc) / float64(accTotal)
	if in.Footprint > 0 && share > 2*float64(in.Footprint) {
		share = 2 * float64(in.Footprint)
	}

	bestD, bestCost := 1, 0.0
	for d := 1; d <= o.cfg.MaxGroups && d <= len(in.Acc); d *= 2 {
		curve := &s.local
		if d == 1 {
			curve = &s.curve
		}
		mr := curve.MissRateAt(int64(share / float64(d)))
		cost := mr*o.cfg.MissLatNS + (1-mr)*o.cfg.NetLatNS(d)
		if d == 1 || cost < bestCost {
			bestD, bestCost = d, cost
		}
	}
	return bestD
}

// bestAnchor picks the member with the most accesses as the group's
// preferred allocation unit.
func bestAnchor(in *StreamInput, members []int) int {
	best := members[0]
	for _, u := range members[1:] {
		if in.Acc[u] > in.Acc[best] {
			best = u
		}
	}
	return best
}

// groupAccesses sums the access counts of a group's accessors.
func groupAccesses(in *StreamInput, g *grp) uint64 {
	var t uint64
	for _, a := range g.accessors {
		t += in.Acc[a]
	}
	return t
}

// groupJump finds the steepest slope ahead of group g's current capacity:
// the jump size (in rows, quantized to SegRows and capped at one unit's
// capacity) maximizing miss reduction per row, and that slope weighted by
// the group's access count. Looking past the next segment matters because
// miss curves plateau; this is the lookahead of Qureshi&Patt that
// Algorithm 1's NextSteepestSlopeSeg builds on.
//
// The result depends only on g's rows and accessors and on whether s has
// more than one group, so jumpOf memoizes it.
func (o *optimizer) groupJump(s *st, g *grp) (jumpRows uint32, slope float64) {
	rowB := int64(o.cfg.RowBytes)
	cur := int64(g.totalRows()) * rowB
	acc := float64(groupAccesses(s.in, g))
	if acc == 0 {
		return 0, 0
	}
	// A replicated group serves a slice of the cores, so its behaviour
	// follows the per-core curve; a single shared group sees the global
	// mix.
	curve := &s.curve
	if len(s.groups) > 1 {
		curve = &s.local
	}
	mrCur := curve.MissRateAt(cur)
	maxJump := int64(o.cfg.UnitRows) * rowB
	// Candidate targets: the curve's own capacity points plus one segment.
	consider := func(target int64) {
		if target <= cur || target-cur > maxJump {
			return
		}
		d := curve.MissRateAt(target) - mrCur
		if d >= 0 {
			return
		}
		rows := (target - cur + rowB - 1) / rowB
		// Quantize up to a segment multiple.
		segs := (rows + int64(o.cfg.SegRows) - 1) / int64(o.cfg.SegRows)
		rows = segs * int64(o.cfg.SegRows)
		sl := acc * -d / float64(rows)
		if sl > slope {
			slope, jumpRows = sl, uint32(rows)
		}
	}
	consider(cur + int64(o.cfg.SegRows)*rowB)
	for _, p := range curve.Points() {
		consider(p.Bytes)
	}
	return jumpRows, slope
}

// jumpOf is groupJump(s, g), recomputed only when g's memo is stale.
func (o *optimizer) jumpOf(s *st, g *grp) (uint32, float64) {
	if !g.memo {
		g.jump, g.slope = o.groupJump(s, g)
		g.memo = true
	}
	return g.jump, g.slope
}

// nextSteepest returns the stream with the steepest aggregate slope,
// leaving its per-group jumps in o.plan, or nil when no stream can
// profit (NextSteepestSlopeSeg in Algorithm 1).
func (o *optimizer) nextSteepest() *st {
	var best *st
	bestSlope := 0.0
	for _, s := range o.streams {
		var totGain, totRows float64
		o.cand = o.cand[:0]
		for _, g := range s.groups {
			if g.stalled {
				continue
			}
			jump, slope := o.jumpOf(s, g)
			if jump == 0 {
				continue
			}
			o.cand = append(o.cand, planned{g: g, rows: jump})
			totGain += slope * float64(jump)
			totRows += float64(jump)
		}
		if totRows == 0 {
			continue
		}
		agg := totGain / totRows
		if agg > 1e-12 && (best == nil || agg > bestSlope) {
			best, bestSlope = s, agg
			o.plan, o.cand = o.cand, o.plan
		}
	}
	return best
}

// allocateRound gives stream s its planned jump in every unstalled group
// (Algorithm 1 lines 5-21), extending or merging when space runs out. A
// group merged away during the round keeps its planned jump.
func (o *optimizer) allocateRound(s *st) {
	for _, p := range o.plan {
		g, seg := p.g, p.rows
		if g.stalled {
			continue
		}
		if o.tryAlloc(s, g, g.anchor, seg) {
			continue
		}
		// Try other units already in the group (no grouping change).
		placed := false
		for _, ur := range g.rows {
			if ur.unit != g.anchor && o.tryAlloc(s, g, ur.unit, seg) {
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if !o.extendOrMerge(s, g, seg) {
			// Retry at segment granularity before giving up: partial
			// progress beats stalling the group outright.
			if seg > o.cfg.SegRows && o.allocAnywhere(s, g, o.cfg.SegRows) {
				continue
			}
			g.stalled = true
			o.rep.Stalls++
		}
	}
}

// allocAnywhere tries the anchor then any member unit for a small
// allocation.
func (o *optimizer) allocAnywhere(s *st, g *grp, seg uint32) bool {
	if o.tryAlloc(s, g, g.anchor, seg) {
		return true
	}
	for _, ur := range g.rows {
		if o.tryAlloc(s, g, ur.unit, seg) {
			return true
		}
	}
	return false
}

// tryAlloc places seg rows of stream s's group g at unit u if space (and
// the affine budget) permits.
func (o *optimizer) tryAlloc(s *st, g *grp, u int, seg uint32) bool {
	if o.free[u] < int64(seg) {
		return false
	}
	if s.in.Affine && o.affineFree[u] < int64(seg) {
		return false
	}
	o.free[u] -= int64(seg)
	if s.in.Affine {
		o.affineFree[u] -= int64(seg)
	}
	g.add(u, seg)
	g.memo = false
	o.rep.RowsAllocated += uint64(seg)
	return true
}

// utility is the paper's group utility: every accessor values each unit's
// rows attenuated by distance (§V-C worked example). Units are visited in
// ascending order so the floating-point sum is deterministic.
func (o *optimizer) utility(g *grp) float64 {
	var util float64
	for _, a := range g.accessors {
		for _, ur := range g.rows {
			util += float64(ur.rows) * o.cfg.Attenuation(a, ur.unit)
		}
	}
	return util
}

// extendOrMerge implements lines 9-21 of Algorithm 1 for one group whose
// units are full: compare extending g to the nearest available unit
// against merging two groups to free space, apply the better option, and
// then retry the pending allocation.
func (o *optimizer) extendOrMerge(s *st, g *grp, seg uint32) bool {
	extU, extGain := o.bestExtension(s, g, seg)
	owner, mA, mB, mGain := o.bestMerge(g, seg)

	switch {
	case extU >= 0 && (mA == nil || extGain >= mGain):
		if !o.tryAlloc(s, g, extU, seg) {
			return false
		}
		o.rep.Extends++
		return true
	case mA != nil:
		// FOUND: owner may differ from s, yet merge refunds the affine budget by s.in.Affine and re-anchors with s.in.Acc.
		o.merge(s, owner, mA, mB)
		o.rep.Merges++
		// Retry the pending allocation with the freed space.
		if o.tryAlloc(s, g, g.anchor, seg) {
			return true
		}
		for _, ur := range g.rows {
			if o.tryAlloc(s, g, ur.unit, seg) {
				return true
			}
		}
		return o.bestExtensionApply(s, g, seg)
	default:
		return false
	}
}

// bestExtension finds the nearest unit with space that could join group g
// (a unit may serve only one replication group per stream), returning the
// unit and the utility gained by placing the segment there.
func (o *optimizer) bestExtension(s *st, g *grp, seg uint32) (int, float64) {
	taken := o.unitMarks()
	for _, og := range s.groups {
		if og == g {
			continue
		}
		for _, ur := range og.rows {
			taken[ur.unit] = true
		}
	}
	bestU, bestAtt := -1, 0.0
	for u := 0; u < o.cfg.NumUnits; u++ {
		if taken[u] || o.free[u] < int64(seg) {
			continue
		}
		if s.in.Affine && o.affineFree[u] < int64(seg) {
			continue
		}
		att := o.cfg.Attenuation(g.anchor, u)
		if att > bestAtt {
			bestU, bestAtt = u, att
		}
	}
	if bestU < 0 {
		return -1, 0
	}
	// Utility gained: each accessor values the new rows at its distance.
	var gain float64
	for _, a := range g.accessors {
		gain += float64(seg) * o.cfg.Attenuation(a, bestU)
	}
	return bestU, gain
}

// bestExtensionApply extends and allocates in one step (post-merge retry).
func (o *optimizer) bestExtensionApply(s *st, g *grp, seg uint32) bool {
	u, _ := o.bestExtension(s, g, seg)
	if u < 0 {
		return false
	}
	if !o.tryAlloc(s, g, u, seg) {
		return false
	}
	o.rep.Extends++
	return true
}

// bestMerge finds the lowest-utility group (of any stream) holding rows
// at one of g's units, pairs it with the nearest other group of the same
// stream, and returns that stream, the pair, and the net utility change
// of merging and then allocating the pending segment.
func (o *optimizer) bestMerge(g *grp, seg uint32) (*st, *grp, *grp, float64) {
	gUnits := o.unitMarks()
	gUnits[g.anchor] = true
	for _, ur := range g.rows {
		gUnits[ur.unit] = true
	}
	var bestA, bestB *grp
	var owner *st
	bestUtil := 0.0
	for _, os := range o.streams {
		if len(os.groups) < 2 {
			continue // merging needs two groups of the same stream
		}
		for _, cand := range os.groups {
			holds := false
			for _, ur := range cand.rows {
				if gUnits[ur.unit] {
					holds = true
					break
				}
			}
			if !holds {
				continue
			}
			u := o.utility(cand)
			if bestA == nil || u < bestUtil {
				bestA, bestUtil, owner = cand, u, os
			}
		}
	}
	if bestA == nil {
		return nil, nil, nil, 0
	}
	// Nearest group of the same stream (highest anchor-to-anchor attenuation).
	bestAtt := -1.0
	for _, cand := range owner.groups {
		if cand == bestA {
			continue
		}
		att := o.cfg.Attenuation(bestA.anchor, cand.anchor)
		if att > bestAtt {
			bestB, bestAtt = cand, att
		}
	}
	if bestB == nil {
		return nil, nil, nil, 0
	}
	// Net gain: merged utility minus the two old utilities, plus the
	// pending allocation's utility at g's anchor once space is free.
	before := o.utility(bestA) + o.utility(bestB)
	after := o.mergedUtility(bestA, bestB)
	var allocGain float64
	for _, a := range g.accessors {
		allocGain += float64(seg) * o.cfg.Attenuation(a, g.anchor)
	}
	return owner, bestA, bestB, after - before + allocGain
}

// mergedUtility evaluates the utility of the union group at the
// post-merge capacity (the larger copy's rows, spread proportionally).
func (o *optimizer) mergedUtility(a, b *grp) float64 {
	ta, tb := a.totalRows(), b.totalRows()
	keep := ta
	if tb > ta {
		keep = tb
	}
	total := ta + tb
	if total == 0 {
		return 0
	}
	scale := float64(keep) / float64(total)
	m := &o.merged
	m.accessors = append(append(m.accessors[:0], a.accessors...), b.accessors...)
	m.rows = m.rows[:0]
	for _, ur := range a.rows {
		m.add(ur.unit, uint32(float64(ur.rows)*scale))
	}
	for _, ur := range b.rows {
		m.add(ur.unit, uint32(float64(ur.rows)*scale))
	}
	return o.utility(m)
}

// merge folds group b of stream owner into its group a, keeping
// max(|a|, |b|) rows spread proportionally over both groups' units and
// freeing the rest. The affine refund and a's new anchor follow s, the
// stream whose allocation asked for the merge.
func (o *optimizer) merge(s, owner *st, a, b *grp) {
	ta, tb := a.totalRows(), b.totalRows()
	keep := ta
	if tb > ta {
		keep = tb
	}
	total := ta + tb
	scale := 1.0
	if total > 0 {
		scale = float64(keep) / float64(total)
	}
	shrink := func(g *grp) {
		kept := g.rows[:0]
		for _, ur := range g.rows {
			k := uint32(float64(ur.rows) * scale)
			freed := int64(ur.rows - k)
			o.free[ur.unit] += freed
			if s.in.Affine {
				o.affineFree[ur.unit] += freed
			}
			o.rep.RowsAllocated -= uint64(ur.rows - k)
			if k > 0 {
				kept = append(kept, unitRows{unit: ur.unit, rows: k})
			}
		}
		g.rows = kept
	}
	shrink(a)
	shrink(b)
	for _, ur := range b.rows {
		a.add(ur.unit, ur.rows)
	}
	a.accessors = append(a.accessors, b.accessors...)
	sort.Ints(a.accessors)
	a.anchor = bestAnchor(s.in, a.accessors)
	a.stalled = false
	b.rows = nil
	b.accessors = nil
	b.memo = false
	for i, og := range owner.groups {
		if og == b {
			owner.groups = append(owner.groups[:i], owner.groups[i+1:]...)
			break
		}
	}
	// a's rows and accessors changed, and owner lost a group: groupJump
	// of each of owner's groups depends on that count (shared or per-core
	// curve). owner is not s when bestMerge picked another stream's pair.
	for _, g := range owner.groups {
		g.memo = false
	}
}

// emit converts the optimization state into remap-table allocations,
// assigning group IDs, per-unit row bases, and nearest groups for
// non-accessor units.
func (o *optimizer) emit() map[stream.ID]streamcache.Allocation {
	out := make(map[stream.ID]streamcache.Allocation, len(o.streams))
	nextRow := make([]uint32, o.cfg.NumUnits)
	for _, s := range o.streams {
		a := streamcache.NewAllocation(o.cfg.NumUnits)
		live := s.groups
		// Unit -> group id for units holding rows or accessing.
		owner := make([]int, o.cfg.NumUnits)
		for u := range owner {
			owner[u] = -1
		}
		replicated := len(live) > 1
		for gi, g := range live {
			for _, ur := range g.rows {
				u, r := ur.unit, ur.rows
				a.Shares[u] = r
				a.RowBase[u] = nextRow[u]
				nextRow[u] += r
				owner[u] = gi
				if replicated {
					o.rep.ReplicatedRows += uint64(r)
				}
			}
			for _, u := range g.accessors {
				if owner[u] < 0 {
					owner[u] = gi
				}
			}
		}
		// Remaining units read from the nearest group's anchor.
		for u := 0; u < o.cfg.NumUnits; u++ {
			if owner[u] >= 0 {
				a.Groups[u] = uint8(owner[u])
				continue
			}
			best, bestAtt := 0, -1.0
			for gi, g := range live {
				att := o.cfg.Attenuation(u, g.anchor)
				if att > bestAtt {
					best, bestAtt = gi, att
				}
			}
			a.Groups[u] = uint8(best)
		}
		out[s.in.SID] = a
	}
	return out
}

// StaticEqual builds the NDPExt-static configuration (§VI): the cache
// space of every unit is split equally among all streams, each stream a
// single shared (non-replicated) group. Used by the static baseline and
// as the epoch-0 configuration before any profile exists.
func StaticEqual(cfg Config, ins []StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make(map[stream.ID]streamcache.Allocation, len(ins))
	n := uint32(len(ins))
	if n == 0 {
		return out, nil
	}
	affine := uint32(0)
	for _, in := range ins {
		if in.Affine {
			affine++
		}
	}
	share := cfg.UnitRows / n
	if share == 0 {
		share = 1
	}
	affineShare := share
	if affine > 0 && cfg.AffineCapRows > 0 && affineShare*affine > cfg.AffineCapRows {
		affineShare = cfg.AffineCapRows / affine
		if affineShare == 0 {
			affineShare = 1
		}
	}
	nextRow := make([]uint32, cfg.NumUnits)
	for _, in := range ins {
		a := streamcache.NewAllocation(cfg.NumUnits)
		s := share
		if in.Affine {
			s = affineShare
		}
		for u := 0; u < cfg.NumUnits; u++ {
			a.Shares[u] = s
			a.RowBase[u] = nextRow[u]
			nextRow[u] += s
		}
		out[in.SID] = a
	}
	return out, nil
}
