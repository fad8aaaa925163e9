package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says where and on what a result was measured. The machine
// fields must match before two result sets are compared.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Started    string `json:"started"`
}

// machine is the part of the provenance that must be equal on both
// sides of a comparison.
func (p provenance) machine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", p.NProc, p.GOMAXPROCS, p.CPUModel, p.GoVersion)
}

func collectProvenance(seed uint64, traced bool) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Traced:     traced,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func runtimeSys() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}

// resultFile is what one run writes: the printed metrics plus the
// provenance, the checks and the detail behind them.
type resultFile struct {
	Provenance provenance             `json:"provenance"`
	Workload   string                 `json:"workload"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Checks     []check                `json:"checks"`
	Absent     map[string]string      `json:"absent,omitempty"`
	Detail     map[string]any         `json:"detail"`
	spans      *spanLog
}

// save writes the result file, and the span log of a traced run, into
// dir under a name that does not collide with earlier runs.
func (r *resultFile) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	mode := "e2e"
	if r.Provenance.Traced {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%d", r.Workload, mode, r.Provenance.Seed, time.Now().UnixNano()))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if !r.Provenance.Traced || r.spans == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := r.spans.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("results: %w", err)
	}
	return f.Close()
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Provenance.Traced {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json the compare mode uses.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict compares side B against side A for one metric.
type verdict struct {
	MedA, Q1A, Q3A float64
	MedB, Q1B, Q3B float64
	Change         float64 // relative change of the median, positive = B worse
	Verdict        string
}

// exactMetrics are the end-to-end metrics every run of a seed
// reproduces exactly. Their bound in BENCHMARK.json covers only their
// spread across seeds; compare reports any seed-paired difference.
var exactMetrics = map[string]bool{"sim_time_us": true}

// judge applies the benchmark's rule: B is worse when its median is
// worse than A's by more than the bound; a spread wider than the bound
// leaves the metric unresolved unless every B run beats every A run;
// B is better when it wins nine tenths of the seed-paired runs and the
// medians differ by more than A's own quartile spread. An exact metric
// whose seed-paired values differ at all is changed.
func judge(a, b map[uint64]float64, better string, bound float64, exact bool) verdict {
	va, vb := values(a), values(b)
	v := verdict{MedA: median(va), MedB: median(vb)}
	v.Q1A, v.Q3A = quartiles(va)
	v.Q1B, v.Q3B = quartiles(vb)
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	v.Change = sign * ratio(v.MedB-v.MedA, math.Abs(v.MedA))
	spread := math.Max(ratio(v.Q3A-v.Q1A, math.Abs(v.MedA)), ratio(v.Q3B-v.Q1B, math.Abs(v.MedB)))
	wins, pairs, identical := 0, 0, true
	for seed, x := range a {
		y, ok := b[seed]
		if !ok {
			continue
		}
		pairs++
		if x != y {
			identical = false
		}
		if sign*(x-y) > 0 {
			wins++
		}
	}
	bAllBetter := len(va) > 0 && len(vb) > 0 && sign*(maxOf(vb, sign)-maxOf(va, -sign)) < 0
	switch {
	case pairs > 0 && identical && pairs == len(a) && pairs == len(b):
		v.Verdict = "unchanged (identical)"
	case exact && pairs > 0 && !identical:
		v.Verdict = "changed"
	case spread > bound && bAllBetter:
		v.Verdict = "better"
	case spread > bound:
		v.Verdict = "unresolved"
	case v.Change > bound:
		v.Verdict = "worse"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(v.MedB-v.MedA) > v.Q3A-v.Q1A && v.Change < 0:
		v.Verdict = "better"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// maxOf returns the worst value of xs for sign=+1 (largest), the best
// for sign=-1 (smallest) -- with "worse" meaning larger after sign.
func maxOf(xs []float64, sign float64) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		if sign*x > sign*best {
			best = x
		}
	}
	return best
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// compareMain implements `perfbench compare A B`, judging against the
// bounds in the spec file (BENCHMARK.json at the root of the tree). It
// exits 2 when the sets cannot be compared, 1 when a metric got worse or
// an exact one changed, 0 otherwise.
func compareMain(spec string, dirs []string, stdout, stderr io.Writer) int {
	if len(dirs) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <result-dir-A> <result-dir-B>")
		return 2
	}
	bs, err := loadBenchSpec(spec)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	sides := make([][]resultFile, 2)
	for i, d := range dirs {
		if sides[i], err = loadResults(d); err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
	}
	if err := sameMachine(sides[0], sides[1]); err != nil {
		fmt.Fprintf(stderr, "compare: refusing: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-11s %-19s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, m := range bs.EndToEnd {
			a, b := byseed(sides[0], w, m.Name), byseed(sides[1], w, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, m.Better, m.Bound, exactMetrics[m.Name])
			if v.Verdict == "worse" || v.Verdict == "changed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-11s %-19s %-32s %-32s %+7.2f%% %5.1f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.MedA, v.Q1A, v.Q3A),
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.MedB, v.Q1B, v.Q3B),
				100*v.Change, 100*m.Bound, v.Verdict)
		}
		for i, side := range sides {
			if bad := incorrect(side, w); bad > 0 {
				fmt.Fprintf(stdout, "%-11s side %c has %d incorrect run(s)\n", w, 'A'+i, bad)
				code = 1
			}
		}
	}
	return code
}

// sameMachine refuses result sets measured on different machines.
func sameMachine(a, b []resultFile) error {
	want := a[0].Provenance.machine()
	for _, r := range append(append([]resultFile(nil), a...), b...) {
		if got := r.Provenance.machine(); got != want {
			return errors.New("machine fields differ: " + want + " vs " + got)
		}
	}
	return nil
}

func byseed(rs []resultFile, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out[r.Provenance.Seed] = m.Value
		}
	}
	return out
}

func incorrect(rs []resultFile, workload string) int {
	n := 0
	for _, r := range rs {
		if r.Workload == workload && (!r.Correct || r.Failed > 0) {
			n++
		}
	}
	return n
}
