package ndpext_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ndpext"
)

// smallConfig shrinks the machine so API tests run in milliseconds.
func smallConfig(d ndpext.Design) ndpext.Config {
	cfg := ndpext.DefaultConfig(d)
	cfg.NoC.StacksX, cfg.NoC.StacksY = 2, 1
	cfg.NoC.UnitsX, cfg.NoC.UnitsY = 2, 2
	cfg.UnitRows = 64
	cfg.Sampler.MinBytes = 2 << 10
	cfg.Sampler.MaxBytes = 8 * cfg.UnitCacheBytes()
	cfg.EpochCycles = 100_000
	cfg.HostCores = 4
	return cfg
}

func TestPublicAPIEndToEnd(t *testing.T) {
	tr, err := ndpext.GenerateTrace("recsys", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ndpext.Simulate(smallConfig(ndpext.DesignNDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Accesses == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if hr := res.CacheHitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("implausible hit rate %v", hr)
	}
}

func TestWorkloadsListed(t *testing.T) {
	if got := len(ndpext.Workloads()); got != 14 {
		t.Fatalf("%d workloads, want the paper's 13 plus phased", got)
	}
	if _, err := ndpext.GenerateTrace("not-a-workload", 8, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDesignsCoverPaperFigure5(t *testing.T) {
	ds := ndpext.Designs()
	if len(ds) != 6 {
		t.Fatalf("%d designs, want 6", len(ds))
	}
	if ds[len(ds)-1] != ndpext.DesignNDPExt {
		t.Fatal("NDPExt should be the last (headline) design")
	}
}

func TestCustomWorkloadBuilder(t *testing.T) {
	// A tiny custom kernel: each core scans a shared read-only table and
	// gathers from it through an index array.
	const cores = 8
	b := ndpext.NewBuilder("custom", cores, 500)
	table := b.Indirect(1024, 64)
	index := b.Affine(4096, 4)
	out := b.Affine(4096, 4)
	for c := 0; c < cores; c++ {
		for i := 0; !b.Full(c); i++ {
			b.Read(c, index, i%4096, 1)
			b.Read(c, table, (i*37)%1024, 2)
			b.Write(c, out, i%4096, 1)
		}
	}
	tr := b.Build()
	if tr.TotalAccesses() == 0 {
		t.Fatal("builder produced an empty trace")
	}
	res, err := ndpext.Simulate(smallConfig(ndpext.DesignNDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != uint64(tr.TotalAccesses()) {
		t.Fatal("not all accesses simulated")
	}
}

func TestAffine2DOrderExposed(t *testing.T) {
	b := ndpext.NewBuilder("order", 2, 100)
	m := b.Affine2D(16, 16, 4, ndpext.OrderYXZ)
	if m.Order != ndpext.OrderYXZ {
		t.Fatal("order not preserved")
	}
}

func TestHMCConfig(t *testing.T) {
	if ndpext.HMCConfig(ndpext.DesignNDPExt).Mem.Name != "HMC2" {
		t.Fatal("HMC config wrong memory")
	}
}

func TestExperimentScales(t *testing.T) {
	q, f := ndpext.QuickExperiments(), ndpext.FullExperiments()
	if len(q.Workloads) >= len(f.Workloads) {
		t.Fatal("quick scale not smaller than full")
	}
	if len(f.Workloads) != 13 {
		t.Fatalf("full scale covers %d workloads", len(f.Workloads))
	}
}

// smallTrace is an 8-core pr trace (pr writes its rank vectors, so a run
// clears read-only bits in its stream table).
func smallTrace(t *testing.T) *ndpext.Trace {
	t.Helper()
	tr, err := ndpext.GenerateTraceN("pr", 8, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSaveLoadTraceRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	path := filepath.Join(t.TempDir(), "pr.ndptrc")
	if err := ndpext.SaveTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	got, err := ndpext.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
	}
	if !reflect.DeepEqual(got.PerCore, tr.PerCore) {
		t.Fatal("per-core access sequences changed in the round trip")
	}
	want := tr.Table.All()
	streams := got.Table.All()
	if len(streams) != len(want) {
		t.Fatalf("%d streams, want %d", len(streams), len(want))
	}
	for i := range want {
		if *streams[i] != *want[i] {
			t.Fatalf("stream %d: got %+v, want %+v", i, *streams[i], *want[i])
		}
	}
}

// examples/tracereplay generates the trace when LoadTrace reports a
// missing file, so that error must satisfy os.IsNotExist.
func TestLoadTraceMissingIsNotExist(t *testing.T) {
	_, err := ndpext.LoadTrace(filepath.Join(t.TempDir(), "absent.ndptrc"))
	if !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want os.IsNotExist", err)
	}
}

// A file in the retired gob format (magic "NDPWL") is rejected with an
// error, not a panic.
func TestLoadTraceRejectsLegacyFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(path, []byte("NDPWL\x01\x3f\xff\x81\x03\x01\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, err := ndpext.LoadTrace(path); err == nil {
		t.Fatalf("legacy file accepted: %+v", tr)
	}
}

// A trace saved after a run (whose writes cleared read-only bits in the
// stream table) must load freshly configured, and simulate to the same
// result as a fresh Clone of the original.
func TestLoadTraceAfterRunIsFreshlyConfigured(t *testing.T) {
	tr := smallTrace(t)
	cfg := smallConfig(ndpext.DesignNDPExt)
	want, err := ndpext.Simulate(cfg, tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ndpext.Simulate(cfg, tr); err != nil {
		t.Fatal(err)
	}
	cleared := false
	for _, s := range tr.Table.All() {
		cleared = cleared || !s.ReadOnly
	}
	if !cleared {
		t.Fatal("the run cleared no read-only bit; the test needs a trace with writes")
	}
	path := filepath.Join(t.TempDir(), "used.ndptrc")
	if err := ndpext.SaveTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ndpext.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range loaded.Table.All() {
		if !s.ReadOnly {
			t.Fatalf("stream %d loaded with its read-only bit cleared", s.SID)
		}
	}
	got, err := ndpext.Simulate(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded trace simulated differently:\ngot  %+v\nwant %+v", got, want)
	}
}
