package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig() runConfig {
	return runConfig{Seed: 7, Budget: 1500 * time.Millisecond, Tiny: true}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at test scale in
// both modes and checks each emits exactly the declared metrics, with
// their units, and passes its own output checks.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, tinyConfig(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v detail=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Checks, res.Detail["failures"])
			}
		}
	}
}

// TestMetricNames checks every name the benchmark prints and that
// BENCHMARK.json declares the same metrics and workloads.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or duplicate metric name %q", d.Name)
		}
		seen[d.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: bad unit %q or direction %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, w := range workloadList {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("bad workload %q", w.Name)
		}
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	for _, pair := range []struct {
		json, code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark %d", len(pair.json), len(pair.code))
			continue
		}
		for i := range pair.json {
			if pair.json[i] != pair.code[i] {
				t.Errorf("BENCHMARK.json metric %+v, benchmark %+v", pair.json[i], pair.code[i])
			}
		}
	}
}

// TestCorruptedDocumentFails feeds the correctness checks a document
// with one byte changed.
func TestCorruptedDocumentFails(t *testing.T) {
	in, err := generate(recsys.Tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	good, ok := pass(r, in, false, nil)
	if !ok {
		t.Fatalf("oracle pass failed: %+v", r.Checks)
	}
	bad := append([]byte(nil), good.Doc...)
	i := bytes.Index(bad, []byte(`"accesses":`)) + len(`"accesses":`)
	bad[i]++
	if _, ok := pass(r, in, true, bad); ok || r.correct() || r.Failed != 1 {
		t.Fatalf("pipelined pass against a corrupted oracle passed: failed=%d checks=%+v", r.Failed, r.Checks)
	}

	s := &serveRun{docs: map[jobDesc][]byte{}}
	j := jobDesc{Workload: "mv", Design: "NDPExt", Seed: 1}
	if !s.sameAsFirst(j, good.Doc) || !s.sameAsFirst(j, good.Doc) {
		t.Fatal("identical documents compared unequal")
	}
	if s.sameAsFirst(j, bad) {
		t.Fatal("a corrupted served document compared equal to the first")
	}
}

// TestProfileAttribution profiles a small run and checks the decoded
// profile: flat shares sum to at most 100%, and the simulator's entry
// points are found.
func TestProfileAttribution(t *testing.T) {
	in, err := generate(recsys.Tiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profileCPU(func() error {
		for i := 0; i < 3; i++ {
			if _, err := runSim(in, false, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Samples) == 0 || prof.TotalNS <= 0 {
		t.Fatal("empty profile")
	}
	r := newReport()
	attribute(prof).fracs(r)
	sum := 0.0
	for _, p := range flatPackages {
		sum += r.Metrics["flat."+p+"_frac"]
	}
	if sum > 1+1e-9 || sum < 0.999 {
		t.Errorf("flat shares sum to %v", sum)
	}
	for _, ep := range entryPoints {
		if f := r.Metrics[ep.Metric]; f < 0 || f > 1 {
			t.Errorf("%s = %v", ep.Metric, f)
		}
	}
	if r.Metrics["sim.resource_acquire_cpu_frac"]+r.Metrics["sampler.observe_cpu_frac"] == 0 {
		t.Error("no samples attributed to the simulator's per-access path")
	}
}

func TestFlatPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"ndpext/internal/sampler.(*Sampler).Observe":   "sampler",
		"ndpext/internal/server/scheduler.(*S).runJob": "scheduler",
		"ndpext/internal/nothere.F":                    "other",
		"runtime.mallocgc":                             "runtime",
		"net/http.(*conn).serve":                       "net",
		"encoding/json.(*decodeState).object":          "encoding",
		"internal/poll.(*FD).Read":                     "syscall",
		"main.main":                                    "other",
		"":                                             "other",
	} {
		if got := flatPackage(fn); got != want {
			t.Errorf("flatPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 2}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if p := tailPercentile(1000); p != 99 {
		t.Errorf("tailPercentile(1000) = %v", p)
	}
	if p := tailPercentile(30); p != 50 {
		t.Errorf("tailPercentile(30) = %v", p)
	}
}

func TestJudge(t *testing.T) {
	a := map[uint64]float64{}
	for s := uint64(1); s <= 10; s++ {
		a[s] = 100 + float64(s%3)
	}
	shift := func(d float64) map[uint64]float64 {
		b := map[uint64]float64{}
		for s, v := range a {
			b[s] = v + d
		}
		return b
	}
	for _, c := range []struct {
		b      map[uint64]float64
		better string
		want   string
	}{
		{a, "lower", "unchanged (identical)"},
		{shift(30), "lower", "worse"},
		{shift(30), "higher", "better"},
		{shift(1), "lower", "unchanged"},
		{shift(-10), "lower", "better"},
	} {
		if got := judge(a, c.b, c.better, 0.1, false).Verdict; got != c.want {
			t.Errorf("judge(better=%s) = %s, want %s", c.better, got, c.want)
		}
	}
	noisy := map[uint64]float64{1: 50, 2: 150, 3: 100, 4: 60, 5: 140}
	if got := judge(noisy, noisy, "lower", 0.1, false).Verdict; got != "unchanged (identical)" {
		t.Errorf("identical noisy sets: %s", got)
	}
	if got := judge(noisy, map[uint64]float64{1: 60, 2: 140, 3: 100, 4: 50, 5: 150}, "lower", 0.1, false).Verdict; got != "unresolved" {
		t.Errorf("noisy sets: %s", got)
	}
	// An exact metric: identical per seed, or changed however small the
	// difference.
	if got := judge(a, a, "lower", 0.1, true).Verdict; got != "unchanged (identical)" {
		t.Errorf("exact, identical: %s", got)
	}
	if got := judge(a, shift(0.001), "lower", 0.1, true).Verdict; got != "changed" {
		t.Errorf("exact, shifted: %s", got)
	}
}

// TestCompareRefusesOtherMachine checks the compare mode's provenance
// guard.
func TestCompareRefusesOtherMachine(t *testing.T) {
	mk := func(dir, cpu string) {
		r := resultFile{Provenance: provenance{NProc: 2, GOMAXPROCS: 2, CPUModel: cpu, GoVersion: "go1", Seed: 1},
			Workload: "recsys", Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"setup_s": {1, "s"}}}
		if err := r.save(dir); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	mk(a, "cpu-x")
	mk(b, "cpu-x")
	mk(c, "cpu-y")
	var out, errb bytes.Buffer
	if code := compareMain("../BENCHMARK.json", []string{a, b}, &out, &errb); code != 0 {
		t.Fatalf("same machine: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "unchanged (identical)") {
		t.Errorf("same machine output:\n%s", out.String())
	}
	errb.Reset()
	if code := compareMain("../BENCHMARK.json", []string{a, c}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "refusing") {
		t.Fatalf("other machine: exit %d: %s", code, errb.String())
	}
}
