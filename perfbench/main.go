// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks the program's outputs, writes a result file
// with its provenance, and prints the metrics as one JSON line:
//
//	perfbench --workload recsys --seed 1 --seconds 36 --trace 0
//	perfbench compare <result-dir-A> <result-dir-B>
//
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	Seed   uint64
	Budget time.Duration
	Tiny   bool // test scale: small traces, for the benchmark's own tests
}

// workload is one traffic mix; run is the untraced measurement of the
// end-to-end metrics, traced the per-layer run. README.md and
// BENCHMARK.json say why each workload is in the benchmark.
type workload struct {
	Name   string
	run    func(runConfig) (*report, error)
	traced func(runConfig) (*report, error)
}

var (
	recsys = simWorkload{
		Case: simCase{Workload: "recsys", Design: "NDPExt"},
		Tiny: simCase{Workload: "recsys", Design: "NDPExt", AccessesPerCore: 300, ScaleMult: 0.12},
		Pair: 16 * time.Second,
	}
	phasedMAB = simWorkload{
		Case: simCase{Workload: "phased", Design: "NDPExt-MAB", EpochCycles: 50_000, AccessesPerCore: 12_000},
		Tiny: simCase{Workload: "phased", Design: "NDPExt-MAB", EpochCycles: 50_000, AccessesPerCore: 300, ScaleMult: 0.12},
		Pair: 14 * time.Second,
	}
)

var workloadList = []workload{
	{"recsys", recsys.run, recsys.traced},
	{"phased-mab", phasedMAB.run, phasedMAB.traced},
	{"serve", serveWorkload{}.run, serveWorkload{}.traced},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain("BENCHMARK.json", os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: recsys, phased-mab or serve")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 36, "measurement time of one run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result files")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	w, ok := findWorkload(*name)
	if !ok || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seed >= 1, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rc := runConfig{Seed: *seed, Budget: time.Duration(*seconds * float64(time.Second))}
	res, err := runWorkload(w, rc, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	if err := res.save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.printTable(os.Stderr)
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload runs w once and assembles its result.
func runWorkload(w workload, rc runConfig, traced bool) (*resultFile, error) {
	fn, defs := w.run, endToEnd
	if traced {
		fn, defs = w.traced, perLayer
	}
	rep, err := fn(rc)
	if err != nil {
		return nil, err
	}
	if !traced {
		rep.Metrics["host_mem_mb"] = peakRSSMB()
	}
	if missing := rep.finish(defs); len(missing) > 0 {
		rep.check("every declared metric measured", false, "missing %s", strings.Join(missing, ", "))
	}
	res := &resultFile{
		Provenance: collectProvenance(rc.Seed, traced),
		Workload:   w.Name,
		Correct:    rep.correct(),
		Attempted:  rep.Attempted,
		Failed:     rep.Failed,
		Metrics:    map[string]metricValue{},
		Checks:     rep.Checks,
		Detail:     rep.Detail,
		Absent:     rep.Absent,
		spans:      rep.spans,
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: rep.Metrics[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set (VmHWM), or the Go
// runtime's footprint where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(l, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return float64(runtimeSys()) / (1 << 20)
}

// line is the last line of standard output.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *resultFile) line() outputLine {
	attempted := r.Attempted
	if attempted < 1 {
		attempted, r.Correct = 1, false // a run that attempted nothing measured nothing
	}
	return outputLine{Correct: r.Correct, Attempted: attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *resultFile) printTable(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Provenance.Seed, r.Provenance.Traced, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if why, ok := r.Absent[n]; ok {
			note = "  (absent: " + why + ")"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED CHECK %s: %s\n", c.Name, c.Detail)
		}
	}
	if f, ok := r.Detail["failures"]; ok {
		fmt.Fprintf(w, "  failures: %v\n", f)
	}
}
