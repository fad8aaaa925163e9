package main

// adapter.go is the only file of the benchmark that calls into the
// simulator and the serving stack. Every other file works on the plain
// types declared here, so a change to the program's run entry points
// touches this one file.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"ndpext/internal/client"
	"ndpext/internal/cluster"
	"ndpext/internal/server/result"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
	"ndpext/internal/server/transport"
	"ndpext/internal/system"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// simCase names one simulation: a generator, a design on the default
// machine, and the knobs the benchmark's workloads change.
type simCase struct {
	Workload        string
	Design          string
	EpochCycles     int64   // 0 keeps DefaultConfig's epoch length
	AccessesPerCore int     // 0 keeps DefaultScale's budget
	ScaleMult       float64 // 0 keeps DefaultScale's footprint multiplier
}

// simInput is a generated trace with the machine it runs on.
type simInput struct {
	cfg system.Config
	tr  *workloads.Trace
}

// generate builds the case's trace from the benchmark seed.
func generate(c simCase, seed uint64) (*simInput, error) {
	d, err := system.ParseDesign(c.Design)
	if err != nil {
		return nil, err
	}
	cfg := system.DefaultConfig(d)
	if c.EpochCycles > 0 {
		cfg.EpochCycles = c.EpochCycles
	}
	gen, err := workloads.Get(c.Workload)
	if err != nil {
		return nil, err
	}
	sc := workloads.DefaultScale()
	if c.AccessesPerCore > 0 {
		sc.AccessesPerCore = c.AccessesPerCore
	}
	if c.ScaleMult > 0 {
		sc.Mult = c.ScaleMult
	}
	tr, err := gen(cfg.NumUnits(), seed, sc)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", c.Workload, err)
	}
	return &simInput{cfg: cfg, tr: tr}, nil
}

func (in *simInput) accesses() int { return in.tr.TotalAccesses() }

func (in *simInput) streams() int { return in.tr.Table.Len() }

// simCounts are the simulated per-layer counts of one run. They are
// deterministic: a host-only optimisation must leave every one unchanged.
type simCounts struct {
	StreamLookups   uint64
	StreamHits      uint64
	SLBHits         uint64
	SLBLookups      uint64
	NoCMessages     uint64
	NoCHops         uint64
	DRAMRowHits     uint64
	DRAMAccesses    uint64
	CXLAccesses     uint64
	L1Hits          uint64
	SamplerCovered  int
	AdaptSwitches   uint64
	AdaptMigrated   uint64
	ReconfigKept    int
	ReconfigDropped int
}

// simOutcome is one finished simulation.
type simOutcome struct {
	Doc       []byte // canonical result document, the bytes `ndpsim -json` prints
	SimTimeUS float64
	Accesses  uint64
	Truncated bool
	Wall      time.Duration
	CPU       time.Duration // process CPU time over the run, when measured
	Counts    simCounts
}

// runSim runs the input serially (the oracle) or epoch-pipelined. A
// non-nil onEpoch is called with the wall time of every Config.OnEpoch
// callback; the untraced runs pass nil, because the hook forces
// synchronous sampler retirement in pipelined runs.
func runSim(in *simInput, pipelined bool, onEpoch func(time.Time)) (simOutcome, error) {
	cfg := in.cfg
	if onEpoch != nil {
		cfg.OnEpoch = func(system.EpochInfo) { onEpoch(time.Now()) }
	}
	run := system.Run
	if pipelined {
		run = system.RunPipelined
	}
	tr := in.tr.Clone() // a run consumes its trace's stream state
	start := time.Now()
	res, err := run(cfg, tr)
	wall := time.Since(start)
	if err != nil {
		return simOutcome{}, err
	}
	doc, err := result.Encode(res)
	if err != nil {
		return simOutcome{}, fmt.Errorf("encode result: %w", err)
	}
	return simOutcome{
		Doc:       doc,
		SimTimeUS: res.Time.NS() / 1e3,
		Accesses:  res.Accesses,
		Truncated: res.Truncated,
		Wall:      wall,
		Counts:    countsOf(res),
	}, nil
}

func countsOf(res *system.Result) simCounts {
	c := simCounts{
		L1Hits:          res.L1Hits,
		SamplerCovered:  res.SamplerCovered,
		ReconfigKept:    res.ReconfigKept,
		ReconfigDropped: res.ReconfigDropped,
	}
	reg := res.Metrics()
	if reg == nil {
		return c
	}
	c.StreamLookups = reg.Uint("streamcache.lookups")
	c.StreamHits = reg.Uint("streamcache.hits")
	c.SLBHits = reg.Uint("streamcache.slb_hits")
	c.SLBLookups = c.SLBHits + reg.Uint("streamcache.slb_misses")
	c.NoCMessages = reg.Uint("noc.messages")
	c.NoCHops = reg.Uint("noc.intra_hops") + reg.Uint("noc.inter_hops")
	c.CXLAccesses = reg.Uint("cxl.reads") + reg.Uint("cxl.writes")
	c.AdaptSwitches = reg.Uint("adapt.switches")
	c.AdaptMigrated = reg.Uint("adapt.migrated_rows")
	reg.Each(func(name string, v telemetry.Value) {
		if !strings.HasPrefix(name, "dram.unit") {
			return
		}
		switch name[strings.LastIndexByte(name, '.')+1:] {
		case "row_hits":
			c.DRAMRowHits += v.U
		case "reads", "writes":
			c.DRAMAccesses += v.U
		}
	})
	return c
}

// jobDesc is one serving-layer submission, in the benchmark's terms.
type jobDesc struct {
	Workload string
	Design   string
	Seed     uint64
	Accesses int
	Scale    float64
}

func (j jobDesc) spec() scheduler.JobSpec {
	return scheduler.JobSpec{Workload: j.Workload, Design: j.Design, Seed: j.Seed, Accesses: j.Accesses, Scale: j.Scale}
}

// simCaseOf maps a submission onto the direct-run form, for the
// served-versus-direct check. It mirrors JobSpec's defaults.
func (j jobDesc) simCase() simCase {
	return simCase{Workload: j.Workload, Design: j.Design, AccessesPerCore: j.Accesses, ScaleMult: j.Scale}
}

// batchDesc is one POST /v1/batch matrix; its cells share Base.
type batchDesc struct {
	Designs   []string
	Workloads []string
	Base      jobDesc // Workload and Design stay empty
}

// cellSpecs lists the batch's cells as single submissions, in the
// scheduler's expansion order.
func (b batchDesc) cellSpecs() []jobDesc {
	bs := b.wire()
	cells := bs.Expand()
	out := make([]jobDesc, len(cells))
	for i, c := range cells {
		out[i] = jobDesc{Workload: c.Workload, Design: c.Design, Seed: c.Seed, Accesses: c.Accesses, Scale: c.Scale}
	}
	return out
}

func (b batchDesc) wire() scheduler.BatchSpec {
	return scheduler.BatchSpec{Designs: b.Designs, Workloads: b.Workloads, Base: b.Base.spec()}
}

// batchCellDocs splits a batch result document into its cells' result
// documents, in expansion order.
func batchCellDocs(doc []byte) ([][]byte, error) {
	var d scheduler.BatchResultDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("decode batch document: %w", err)
	}
	out := make([][]byte, len(d.Cells))
	for i, c := range d.Cells {
		if c.Error != "" {
			return nil, fmt.Errorf("batch cell %d: %s", i, c.Error)
		}
		out[i] = c.Result
	}
	return out, nil
}

// serveNode is one in-process ndpserve cluster member on loopback.
type serveNode struct {
	URL    string
	prefix string // the job-ID prefix of the jobs this node runs
	node   *cluster.Node
	sched  *scheduler.Scheduler
	srv    *http.Server
	done   chan struct{}
}

// serveCluster is n wired nodes sharing one static peer list, composed
// as cmd/ndpserve composes the layers, but with replication off
// (`ndpserve -replicate=false`): with replication on, two nodes copy
// every result to each other and every hit is served where it lands, so
// no warmed request would take the forward hop.
type serveCluster struct {
	Nodes []*serveNode
}

// swapHandler lets listeners start (to learn their URLs) before the
// nodes that need every URL exist.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startCluster boots n nodes on loopback with empty result stores.
func startCluster(n int, logf func(string, ...any)) (*serveCluster, error) {
	c := &serveCluster{}
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range swaps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		swaps[i] = &swapHandler{}
		sn := &serveNode{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: swaps[i]}, done: make(chan struct{})}
		go func() {
			defer close(sn.done)
			_ = sn.srv.Serve(ln) // returns http.ErrServerClosed on Close
		}()
		urls[i] = sn.URL
		c.Nodes = append(c.Nodes, sn)
	}
	for i, sn := range c.Nodes {
		node, err := cluster.NewNode(cluster.Config{
			Self:        urls[i],
			Peers:       urls,
			VNodes:      cluster.DefaultVNodes,
			NoReplicate: true,
			Membership: cluster.MembershipOptions{
				ProbeInterval: 100 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				DownAfter:     2,
			},
			Logf: logf,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		st, err := store.Open(store.Options{Logf: logf})
		if err != nil {
			c.Close()
			return nil, err
		}
		sched := scheduler.New(st, nil, scheduler.Options{IDPrefix: node.IDPrefix(), OnStored: node.OnStored})
		sched.Start()
		node.Bind(sched)
		inner := transport.NewHandler(sched, transport.Options{Cluster: node.InfoDoc, OwnerOf: node.OwnerOf})
		swaps[i].mu.Lock()
		swaps[i].h = cluster.NewHandler(node, inner)
		swaps[i].mu.Unlock()
		node.Start()
		sn.node, sn.sched, sn.prefix = node, sched, node.IDPrefix()
	}
	return c, nil
}

// Close stops every node and waits for its server and workers to end.
func (c *serveCluster) Close() {
	for _, sn := range c.Nodes {
		if sn.node != nil {
			sn.node.Close()
		}
		_ = sn.srv.Close() // the listener error, if any, is irrelevant at shutdown
		<-sn.done
		if sn.sched != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = sn.sched.Drain(ctx) // in-memory store: Persist has nothing to write
			cancel()
		}
	}
}

// keyFor is the content address a node computes for the submission.
func (c *serveCluster) keyFor(j jobDesc) (string, error) {
	k, err := c.Nodes[0].sched.KeyFor(j.spec())
	if err != nil {
		return "", err
	}
	return k.String(), nil
}

// forwarded reports whether a job accepted by the node at url ran on
// another node: every node prefixes the IDs of the jobs it runs with its
// own IDPrefix, and a forwarded submission returns the owner's job.
func (c *serveCluster) forwarded(url, jobID string) bool {
	for _, sn := range c.Nodes {
		if sn.URL == url {
			return !strings.HasPrefix(jobID, sn.prefix)
		}
	}
	return false
}

// serveStats are the per-node counters the serve workload reports.
type serveStats struct {
	SimsRun     uint64
	Rejected    uint64
	CacheHits   uint64
	CacheMisses uint64
	ForwardsOut uint64
}

func (c *serveCluster) stats() serveStats {
	var s serveStats
	for _, sn := range c.Nodes {
		s.SimsRun += sn.sched.SimsRun()
		s.Rejected += sn.sched.Rejected()
		cs := sn.sched.CacheStats()
		s.CacheHits += cs.Hits
		s.CacheMisses += cs.Misses
		s.ForwardsOut += sn.node.Info().ForwardsOut
	}
	return s
}

// jobTimes are the scheduler's own timestamps for a finished job.
type jobTimes struct {
	QueueWait, Run time.Duration
	Ran            bool // false for cache hits and piggybacked jobs
}

// jobTimesOf reads a job's timestamps from the node that ran it.
func (c *serveCluster) jobTimesOf(id string) (jobTimes, bool) {
	for _, sn := range c.Nodes {
		j, ok := sn.sched.Job(id)
		if !ok {
			continue
		}
		st := j.Status()
		if st.CacheHit || st.Deduped || st.StartedAt == nil || st.FinishedAt == nil {
			return jobTimes{}, true
		}
		return jobTimes{QueueWait: st.StartedAt.Sub(st.CreatedAt), Run: st.FinishedAt.Sub(*st.StartedAt), Ran: true}, true
	}
	return jobTimes{}, false
}

// benchClient is the serving client one closed-loop user drives. It
// waits on job event streams rather than polling, and counts every
// retry and queue-full refusal through the client's log hook.
type benchClient struct {
	hc *http.Client
}

func newBenchClient() *benchClient {
	return &benchClient{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
}

func (b *benchClient) close() { b.hc.CloseIdleConnections() }

// opStats is what one operation saw of the client's retry loop.
type opStats struct {
	Retries, Refusals int
}

func (b *benchClient) client(base string, ops *opStats) *client.Client {
	var mu sync.Mutex
	return client.New(base, client.Options{
		MaxAttempts:  3,
		BaseDelay:    20 * time.Millisecond,
		MaxDelay:     200 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
		HTTPClient:   b.hc,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			mu.Lock()
			ops.Retries++
			if strings.Contains(line, "returned 429") {
				ops.Refusals++
			}
			mu.Unlock()
		},
	})
}

// jobReply is the part of a job status the benchmark checks.
type jobReply struct {
	ID       string
	Terminal bool
	Done     bool // finished with a complete document
	CacheHit bool
	Error    string
}

func replyOf(st scheduler.JobStatus) jobReply {
	return jobReply{ID: st.ID, Terminal: st.State.Terminal(), Done: st.State == scheduler.StateDone, CacheHit: st.CacheHit, Error: st.Error}
}

// timedCalls are the durations of one operation's client calls.
type timedCalls struct {
	Submit, Wait, Result time.Duration
}

// runJob submits j to base, waits for the job on its event stream when
// it is not finished at once, and fetches the result document.
func (b *benchClient) runJob(ctx context.Context, base string, j jobDesc) (jobReply, []byte, timedCalls, opStats, error) {
	var ops opStats
	var tc timedCalls
	c := b.client(base, &ops)
	t0 := time.Now()
	st, err := c.Submit(ctx, j.spec())
	tc.Submit = time.Since(t0)
	if err != nil {
		return jobReply{}, nil, tc, ops, err
	}
	rep := replyOf(st)
	if !rep.Terminal {
		t1 := time.Now()
		rep, err = awaitEvents(ctx, c, st.ID)
		tc.Wait = time.Since(t1)
		if err != nil {
			return rep, nil, tc, ops, err
		}
	}
	if !rep.Done {
		return rep, nil, tc, ops, fmt.Errorf("job %s did not finish with a result: %s", rep.ID, rep.Error)
	}
	t2 := time.Now()
	doc, err := c.Result(ctx, rep.ID)
	tc.Result = time.Since(t2)
	return rep, doc, tc, ops, err
}

// awaitEvents follows the job's SSE stream to its terminal event, whose
// payload is the final status.
func awaitEvents(ctx context.Context, c *client.Client, id string) (jobReply, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for ev := range c.Events(ctx, id) {
		if !scheduler.State(ev.Type).Terminal() {
			continue
		}
		var st scheduler.JobStatus
		if err := json.Unmarshal(ev.Data, &st); err != nil {
			return jobReply{}, fmt.Errorf("decode terminal event: %w", err)
		}
		rep := replyOf(st)
		rep.ID = id
		return rep, nil
	}
	if err := ctx.Err(); err != nil {
		return jobReply{}, err
	}
	return jobReply{}, errors.New("event stream ended without a terminal event")
}

// runBatch submits a batch, waits for it with a short poll (the client
// has no batch event follower) and fetches the matrix document.
func (b *benchClient) runBatch(ctx context.Context, base string, bd batchDesc) ([]byte, opStats, error) {
	var ops opStats
	c := b.client(base, &ops)
	st, err := c.SubmitBatch(ctx, bd.wire())
	if err != nil {
		return nil, ops, err
	}
	if !st.State.Terminal() {
		if st, err = c.AwaitBatch(ctx, st.ID); err != nil {
			return nil, ops, err
		}
	}
	doc, err := c.BatchResult(ctx, st.ID)
	return doc, ops, err
}
