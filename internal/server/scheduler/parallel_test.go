package scheduler

import (
	"bytes"
	"context"
	"testing"

	"ndpext/internal/server/result"
	"ndpext/internal/server/store"
	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// TestParallelSchedulerByteIdentical pins the property that lets the
// serving layer run every simulation epoch-pipelined: the scheduler's
// document must equal the serial oracle's (system.Run over the same
// spec), and — because the cache key does not see the execution mode — a
// second scheduler over the same store must serve the spec as a cache
// hit with the same bytes.
func TestParallelSchedulerByteIdentical(t *testing.T) {
	spec := JobSpec{Workload: "pr", Seed: 9, Accesses: 2000}

	// Serial oracle: the trace built exactly as the scheduler builds it.
	n := spec.normalize()
	cfg, err := n.build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloads.Get(n.Workload)
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = n.Accesses
	sc.Mult = n.Scale
	tr, err := gen(cfg.NumUnits(), n.Seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := result.Encode(res)
	if err != nil {
		t.Fatal(err)
	}

	shared := newTestStore(t, store.Options{})
	first := New(shared, nil, Options{Workers: 1})
	first.Start()
	defer first.Drain(context.Background())
	j, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if !bytes.Equal(j.Status().Result, want) {
		t.Fatal("pipelined scheduler produced a different result document than the serial oracle")
	}

	second := New(shared, nil, Options{Workers: 1})
	second.Start()
	defer second.Drain(context.Background())
	cj, err := second.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, cj)
	st := cj.Status()
	if st.State != StateDone {
		t.Fatalf("cached job failed: %s", st.Error)
	}
	if !st.CacheHit {
		t.Fatal("second scheduler missed the cache entry the first stored")
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatal("cache served different bytes than the serial oracle")
	}
}
