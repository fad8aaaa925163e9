package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// serveWorkload is two in-process ndpserve nodes on loopback, driven as
// a closed loop by serveClients users. Most requests repeat a warmed
// set of specs, so the result store answers them; one request in
// missEvery is a never-seen spec that runs a real simulation; a share
// of the rest are POST /v1/batch matrices of warmed cells. Users pick
// either node and results are not replicated, so about half the requests
// take a forward hop to the node that owns the spec.
type serveWorkload struct{}

const (
	serveNodes   = 2
	serveClients = 2
	missEvery    = 100
	batchShare   = 0.1
	// serveRate is the closed loop's nominal request rate on the
	// reference machine: a run serves a fixed number of requests for its
	// budget, so its peak memory (the scheduler keeps every job) does not
	// grow with the serving speed.
	serveRate = 250
	// oracleShare of an untraced run's budget goes to direct runs of
	// the first never-seen spec, serial and pipelined in turn, one pair
	// per oraclePair of budget and at least minOracleRuns; the closed
	// loop gets the rest.
	oracleShare   = 0.2
	oraclePair    = 600 * time.Millisecond
	minOracleRuns = 3
)

// warmBatch is the warmed matrix: its cells are the hit specs, and the
// batch requests submit it whole.
func warmBatch(rc runConfig) batchDesc {
	acc := 300
	if rc.Tiny {
		acc = 100
	}
	return batchDesc{
		Designs:   []string{"NDPExt", "Nexus"},
		Workloads: []string{"recsys", "mv"},
		Base:      jobDesc{Seed: rc.Seed, Accesses: acc, Scale: 0.12},
	}
}

// missSpec is the i-th never-seen spec: recsys and mv alternate, each
// with its own workload seed.
func missSpec(rc runConfig, i int) jobDesc {
	acc := 1000
	if rc.Tiny {
		acc = 100
	}
	return jobDesc{
		Workload: []string{"recsys", "mv"}[i%2],
		Design:   "NDPExt",
		Seed:     rc.Seed*1_000_000 + uint64(i) + 1,
		Accesses: acc,
		Scale:    0.12,
	}
}

// serveRun is the shared state of one measured loop.
type serveRun struct {
	rc      runConfig
	c       *serveCluster
	r       *report
	traced  bool
	warm    []jobDesc
	batch   batchDesc
	nMiss   atomic.Int64
	retries atomic.Int64

	mu        sync.Mutex
	docs      map[jobDesc][]byte // the first document served for each spec
	hitMS     []float64
	localMS   []float64
	fwdMS     []float64
	missMS    []float64
	batchMS   []float64
	submitMS  []float64
	resultMS  []float64
	keyforUS  []float64
	forwarded int
	routed    int
	misses    []jobDesc
	missIDs   []string
	failures  []string
}

func (s *serveRun) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.failures) < 10 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// sameAsFirst records doc as the spec's first document, or compares it
// with the one recorded.
func (s *serveRun) sameAsFirst(j jobDesc, doc []byte) bool {
	doc = bytes.TrimSpace(doc)
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.docs[j]
	if !ok {
		s.docs[j] = doc
		return true
	}
	return bytes.Equal(first, doc)
}

// setupServe boots the cluster and warms it setupRepeats times, keeping
// the last; setup_s is the median of boot plus warm-up.
func setupServe(rc runConfig, r *report) (*serveCluster, map[jobDesc][]byte, error) {
	warm := warmBatch(rc).cellSpecs()
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		c, docs, err := bootAndWarm(rc, warm)
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		r.spans.add("serve.setup", 0, t0, t1)
		times = append(times, t1.Sub(t0).Seconds())
		if i == setupRepeats-1 {
			r.Metrics["setup_s"] = median(times)
			r.Detail["setup_s_samples"] = times
			return c, docs, nil
		}
		c.Close()
	}
}

// bootAndWarm starts the nodes and runs every warm spec once, spread
// over the nodes, so the measured loop's hits find them stored.
func bootAndWarm(rc runConfig, warm []jobDesc) (*serveCluster, map[jobDesc][]byte, error) {
	c, err := startCluster(serveNodes, func(string, ...any) {})
	if err != nil {
		return nil, nil, err
	}
	bc := newBenchClient()
	defer bc.close()
	docs := make(map[jobDesc][]byte, len(warm))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(warm))
	for i, j := range warm {
		wg.Add(1)
		go func(i int, j jobDesc) {
			defer wg.Done()
			_, doc, _, _, err := bc.runJob(context.Background(), c.Nodes[i%len(c.Nodes)].URL, j)
			if err != nil {
				errs <- fmt.Errorf("warm %+v: %w", j, err)
				return
			}
			mu.Lock()
			docs[j] = bytes.TrimSpace(doc)
			mu.Unlock()
		}(i, j)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, docs, nil
}

// loop runs ops operations as a closed loop, split over the clients.
func (s *serveRun) loop(ops int) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for u := 0; u < serveClients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			bc := newBenchClient()
			defer bc.close()
			rng := rand.New(rand.NewSource(int64(s.rc.Seed)*31 + int64(u)))
			offset := (u * missEvery) / serveClients
			for i := u; i < ops; i += serveClients {
				node := s.c.Nodes[rng.Intn(len(s.c.Nodes))].URL
				switch {
				case (i/serveClients)%missEvery == offset:
					s.miss(ctx, bc, node)
				case rng.Float64() < batchShare:
					s.batchOp(ctx, bc, node)
				default:
					s.hit(ctx, bc, node, s.warm[rng.Intn(len(s.warm))])
				}
			}
		}(u)
	}
	wg.Wait()
}

// timeKeyFor times the content-address computation (traced runs only).
func (s *serveRun) timeKeyFor(j jobDesc) {
	if !s.traced {
		return
	}
	t0 := time.Now()
	_, err := s.c.keyFor(j)
	t1 := time.Now()
	if err != nil {
		s.fail("KeyFor %+v: %v", j, err)
		return
	}
	s.r.spans.add("scheduler.KeyFor", 0, t0, t1)
	s.mu.Lock()
	s.keyforUS = append(s.keyforUS, float64(t1.Sub(t0))/1e3)
	s.mu.Unlock()
}

// routedLocked counts a finished submission accepted by node, and reports
// whether it took the forward hop, judged by which node ran the job.
// Call with s.mu held.
func (s *serveRun) routedLocked(node, jobID string) (forwarded bool) {
	forwarded = s.c.forwarded(node, jobID)
	s.routed++
	if forwarded {
		s.forwarded++
	}
	return forwarded
}

func (s *serveRun) calls(t0 time.Time, name string, tc timedCalls) int {
	if !s.traced {
		return 0
	}
	id := s.r.spans.add(name, 0, t0, time.Now())
	at := t0
	for _, c := range []struct {
		n string
		d time.Duration
	}{{"client.Submit", tc.Submit}, {"client.Events", tc.Wait}, {"client.Result", tc.Result}} {
		if c.d > 0 {
			s.r.spans.add(c.n, id, at, at.Add(c.d))
			at = at.Add(c.d)
		}
	}
	s.mu.Lock()
	s.submitMS = append(s.submitMS, ms(tc.Submit))
	s.resultMS = append(s.resultMS, ms(tc.Result))
	s.mu.Unlock()
	return id
}

func (s *serveRun) hit(ctx context.Context, bc *benchClient, node string, j jobDesc) {
	s.timeKeyFor(j)
	t0 := time.Now()
	rep, doc, tc, ops, err := bc.runJob(ctx, node, j)
	lat := ms(time.Since(t0))
	s.retries.Add(int64(ops.Retries))
	s.calls(t0, "op.hit", tc)
	ok := err == nil && ops.Refusals == 0 && rep.CacheHit && s.sameAsFirst(j, doc)
	s.mu.Lock()
	s.r.op(!ok)
	if ok {
		s.hitMS = append(s.hitMS, lat)
		if s.routedLocked(node, rep.ID) {
			s.fwdMS = append(s.fwdMS, lat)
		} else {
			s.localMS = append(s.localMS, lat)
		}
	}
	s.mu.Unlock()
	if !ok {
		s.fail("hit %+v on %s: err=%v refusals=%d cache_hit=%v", j, node, err, ops.Refusals, rep.CacheHit)
	}
}

func (s *serveRun) miss(ctx context.Context, bc *benchClient, node string) {
	j := missSpec(s.rc, int(s.nMiss.Add(1)-1))
	s.timeKeyFor(j)
	t0 := time.Now()
	rep, doc, tc, ops, err := bc.runJob(ctx, node, j)
	lat := ms(time.Since(t0))
	s.retries.Add(int64(ops.Retries))
	s.calls(t0, "op.miss", tc)
	ok := err == nil && ops.Refusals == 0 && !rep.CacheHit && s.sameAsFirst(j, doc)
	s.mu.Lock()
	s.r.op(!ok)
	if ok {
		s.routedLocked(node, rep.ID)
		s.missMS = append(s.missMS, lat)
		s.misses = append(s.misses, j)
		s.missIDs = append(s.missIDs, rep.ID)
	}
	s.mu.Unlock()
	if !ok {
		s.fail("miss %+v on %s: err=%v refusals=%d cache_hit=%v", j, node, err, ops.Refusals, rep.CacheHit)
	}
}

func (s *serveRun) batchOp(ctx context.Context, bc *benchClient, node string) {
	t0 := time.Now()
	doc, ops, err := bc.runBatch(ctx, node, s.batch)
	t1 := time.Now()
	s.retries.Add(int64(ops.Retries))
	if s.traced {
		s.r.spans.add("client.batch", 0, t0, t1)
	}
	ok := err == nil && ops.Refusals == 0
	if ok {
		cells, cerr := batchCellDocs(doc)
		ok = cerr == nil && len(cells) == len(s.warm)
		for i := 0; ok && i < len(cells); i++ {
			ok = s.sameAsFirst(s.warm[i], cells[i])
		}
		err = cerr
	}
	s.mu.Lock()
	s.r.op(!ok)
	if ok {
		s.batchMS = append(s.batchMS, ms(t1.Sub(t0)))
	}
	s.mu.Unlock()
	if !ok {
		s.fail("batch on %s: err=%v refusals=%d", node, err, ops.Refusals)
	}
}

// measure runs a closed loop of ops operations on a warmed cluster and
// checks dedup: every never-seen spec ran exactly one simulation.
func (s *serveRun) measure(ops int) (wall time.Duration) {
	before := s.c.stats()
	t0 := time.Now()
	s.loop(ops)
	wall = time.Since(t0)
	after := s.c.stats()
	sims := after.SimsRun - before.SimsRun
	s.r.check("sims_run equals distinct never-seen specs", sims == uint64(len(s.misses)),
		"sims_run=%d distinct misses=%d", sims, len(s.misses))
	s.r.Detail["forwards_out"] = after.ForwardsOut - before.ForwardsOut
	return wall
}

// oracle runs the first never-seen spec directly, serially and
// pipelined in turn, pairs times; checks every document against the
// served one, and reports the median rates.
func (s *serveRun) oracle(pairs int) {
	j := missSpec(s.rc, 0)
	served, ok := s.docs[j]
	if !ok {
		s.r.check("served document equals direct run", false, "the first never-seen spec was not served")
		return
	}
	in, err := generate(j.simCase(), j.Seed)
	if err != nil {
		s.r.op(true)
		s.r.check("served document equals direct run", false, "%v", err)
		return
	}
	var serial, piped []float64
	for i := 0; i < pairs; i++ {
		for _, pipelined := range []bool{false, true} {
			out, ok := pass(s.r, in, pipelined, served)
			if !ok {
				return
			}
			rate := float64(out.Accesses) / out.Wall.Seconds()
			if pipelined {
				piped = append(piped, rate)
			} else {
				serial = append(serial, rate)
				s.r.Metrics["sim_time_us"] = out.SimTimeUS
			}
		}
	}
	s.r.check("served document equals direct run", true, "")
	s.r.Metrics["sim_rate_serial"] = median(serial)
	s.r.Metrics["sim_rate_pipelined"] = median(piped)
	s.r.Detail["oracle_spec"] = j
	s.r.Detail["sim_rate_serial_samples"] = serial
	s.r.Detail["sim_rate_pipelined_samples"] = piped
}

func newServeRun(rc runConfig, r *report, c *serveCluster, docs map[jobDesc][]byte, traced bool) *serveRun {
	b := warmBatch(rc)
	return &serveRun{rc: rc, c: c, r: r, traced: traced, warm: b.cellSpecs(), batch: b, docs: docs}
}

// summary puts the served-request figures into the result file.
func (s *serveRun) summary(completed int, wall time.Duration) {
	d := s.r.Detail
	d["serve_rps"] = float64(completed) / wall.Seconds()
	d["forward_share"] = ratio(float64(s.forwarded), float64(s.routed))
	d["serve_hit_forwarded_ms"] = summarize(s.fwdMS, "ms")
	d["serve_hit_local_ms"] = summarize(s.localMS, "ms")
	d["serve_hit_ms"] = summarize(s.hitMS, "ms")
	d["serve_miss_ms"] = summarize(s.missMS, "ms")
	d["serve_batch_ms"] = summarize(s.batchMS, "ms")
	d["fail_ratio"] = ratio(float64(s.r.Failed), float64(s.r.Attempted))
	if len(s.failures) > 0 {
		d["failures"] = s.failures
	}
}

func (serveWorkload) run(rc runConfig) (*report, error) {
	r := newReport()
	c, docs, err := setupServe(rc, r)
	if err != nil {
		return nil, err
	}
	s := newServeRun(rc, r, c, docs, false)
	ops := serveOps(rc)
	wall := s.measure(ops)
	c.Close()
	// Drop the nodes, whose job tables hold every request, so the direct
	// runs below do not share the CPU with collecting them.
	s.c = nil
	s.summary(ops, wall)
	s.oracle(workCount(time.Duration(float64(rc.Budget)*oracleShare), oraclePair, minOracleRuns))
	return r, nil
}

// serveOps is the closed loop's share of the budget in operations.
func serveOps(rc runConfig) int {
	return workCount(time.Duration(float64(rc.Budget)*(1-oracleShare)), time.Second/serveRate, missEvery*serveClients)
}

// traced serves half the operations untraced, for the baseline request
// rate, then half under the CPU profiler with spans around every call.
func (serveWorkload) traced(rc runConfig) (*report, error) {
	r := newReport()
	c, docs, err := setupServe(rc, r)
	if err != nil {
		return nil, err
	}
	delete(r.Metrics, "setup_s")
	defer c.Close()
	half := workCount(rc.Budget/2, time.Second/serveRate, missEvery*serveClients)
	base := newServeRun(rc, newReport(), c, docs, false)
	baseWall := base.measure(half)
	r.Attempted, r.Failed = base.r.Attempted, base.r.Failed
	r.Checks = append(r.Checks, base.r.Checks...)

	// The traced half draws never-seen specs after the untraced half's.
	s := newServeRun(rc, r, c, docs, true)
	s.nMiss.Store(base.nMiss.Load())
	s.failures = base.failures
	before := c.stats()
	var wall time.Duration
	prof, err := profileCPU(func() error {
		wall = s.measure(half)
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats := c.stats()
	attribute(prof).fracs(r)
	var waits, runs []float64
	for _, id := range s.missIDs {
		if jt, ok := c.jobTimesOf(id); ok && jt.Ran {
			waits = append(waits, ms(jt.QueueWait))
			runs = append(runs, ms(jt.Run))
		}
	}
	m := r.Metrics
	m["scheduler.keyfor_us_p50"] = median(s.keyforUS)
	m["scheduler.queue_wait_ms_p50"] = median(waits)
	m["scheduler.queue_wait_ms_p99"] = percentile(waits, 99)
	m["scheduler.run_ms_p50"] = median(runs)
	m["scheduler.sims_run"] = float64(stats.SimsRun - before.SimsRun)
	m["scheduler.rejected"] = float64(stats.Rejected - before.Rejected)
	hits := float64(stats.CacheHits - before.CacheHits)
	m["simcache.hit_ratio"] = ratio(hits, hits+float64(stats.CacheMisses-before.CacheMisses))
	m["client.submit_ms_p50"] = median(s.submitMS)
	m["client.result_ms_p50"] = median(s.resultMS)
	m["client.batch_ms_p50"] = median(s.batchMS)
	m["client.retries"] = float64(base.retries.Load() + s.retries.Load())
	m["cluster.forward_share"] = ratio(float64(s.forwarded), float64(s.routed))
	m["cluster.forwarded_hit_p50_ms"] = median(s.fwdMS)
	m["cluster.local_hit_p50_ms"] = median(s.localMS)
	untracedRPS := float64(half) / baseWall.Seconds()
	tracedRPS := float64(half) / wall.Seconds()
	m["tracing.overhead_frac"] = untracedRPS/tracedRPS - 1
	r.Detail["untraced_rps"] = untracedRPS
	r.Detail["traced_rps"] = tracedRPS
	r.Detail["scheduler_queue_wait_ms"] = summarize(waits, "ms")
	r.Detail["scheduler_run_ms"] = summarize(runs, "ms")
	s.summary(half, wall)
	r.absent("serve runs small simulations inside the scheduler; simulated counts and per-access costs come from recsys and phased-mab",
		"sampler.observe_ns_per_access", "sampler.covered_streams", "streamcache.lookup_ns_per_access",
		"streamcache.hit_ratio", "streamcache.slb_hit_ratio", "noc.messages", "noc.hops_per_message",
		"dram.row_hit_ratio", "cxl.accesses", "cache.l1_hit_ratio", "policy.optimize_ms_per_epoch",
		"adapt.", "system.epoch", "system.reconfig_kept_ratio", "workloads.gen_s")
	return r, nil
}
