package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef declares one metric: its name, unit and which direction is
// better. BENCHMARK.json lists the same set; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are what a user of the simulator sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_rate_serial", "1/s", "higher"},
	{"sim_rate_pipelined", "1/s", "higher"},
	{"sim_time_us", "us", "lower"},
	{"host_mem_mb", "MB", "lower"},
}

// stdGroups bucket the standard library's self time.
var stdGroups = []struct {
	name     string
	prefixes []string
}{
	{"runtime", []string{"runtime"}},
	{"syscall", []string{"syscall", "internal/poll", "internal/runtime/syscall"}},
	{"net", []string{"net"}},
	{"encoding", []string{"encoding"}},
	{"crypto", []string{"crypto"}},
}

// flatPackages are the buckets of the traced run's self (flat) CPU
// time: the repository's packages, the standard library groups, and
// "other" for the rest.
var flatPackages = func() []string {
	p := []string{
		"system", "sampler", "streamcache", "sim", "noc", "dram", "cxl", "cache", "nuca",
		"policy", "adapt", "maxflow", "telemetry", "stream", "workloads", "graph",
		"scheduler", "store", "transport", "result", "cluster", "client", "simcache",
	}
	for _, g := range stdGroups {
		p = append(p, g.name)
	}
	return append(p, "other")
}()

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it and says why in its result file.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sampler.observe_cpu_frac", "frac", "lower"},
		{"sampler.observe_ns_per_access", "ns", "lower"},
		{"sampler.covered_streams", "count", "higher"},
		{"sampler.missrateat_cpu_frac", "frac", "lower"},
		{"streamcache.lookup_cpu_frac", "frac", "lower"},
		{"streamcache.lookup_ns_per_access", "ns", "lower"},
		{"streamcache.apply_cpu_frac", "frac", "lower"},
		{"streamcache.hit_ratio", "ratio", "higher"},
		{"streamcache.slb_hit_ratio", "ratio", "higher"},
		{"sim.resource_acquire_cpu_frac", "frac", "lower"},
		{"sim.eventqueue_cpu_frac", "frac", "lower"},
		{"noc.route_cpu_frac", "frac", "lower"},
		{"noc.messages", "count", "lower"},
		{"noc.hops_per_message", "hops", "lower"},
		{"dram.access_cpu_frac", "frac", "lower"},
		{"dram.row_hit_ratio", "ratio", "higher"},
		{"cxl.access_cpu_frac", "frac", "lower"},
		{"cxl.accesses", "count", "lower"},
		{"cache.l1_access_cpu_frac", "frac", "lower"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"policy.optimize_cpu_frac", "frac", "lower"},
		{"policy.optimize_ms_per_epoch", "ms", "lower"},
		{"maxflow.cpu_frac", "frac", "lower"},
		{"adapt.decide_cpu_frac", "frac", "lower"},
		{"adapt.decide_ms_per_epoch", "ms", "lower"},
		{"adapt.switches", "count", "lower"},
		{"adapt.migrated_rows", "count", "lower"},
		{"system.epochs", "count", "lower"},
		{"system.epoch_wall_p50_ms", "ms", "lower"},
		{"system.epoch_wall_p99_ms", "ms", "lower"},
		{"system.epoch_boundary_cpu_frac", "frac", "lower"},
		{"system.reconfig_kept_ratio", "ratio", "higher"},
		{"workloads.gen_s", "s", "lower"},
		{"scheduler.keyfor_us_p50", "us", "lower"},
		{"scheduler.queue_wait_ms_p50", "ms", "lower"},
		{"scheduler.queue_wait_ms_p99", "ms", "lower"},
		{"scheduler.run_ms_p50", "ms", "lower"},
		{"scheduler.sims_run", "count", "lower"},
		{"scheduler.rejected", "count", "lower"},
		{"simcache.hit_ratio", "ratio", "higher"},
		{"client.submit_ms_p50", "ms", "lower"},
		{"client.result_ms_p50", "ms", "lower"},
		{"client.batch_ms_p50", "ms", "lower"},
		{"client.retries", "count", "lower"},
		{"cluster.forward_share", "ratio", "lower"},
		{"cluster.forwarded_hit_p50_ms", "ms", "lower"},
		{"cluster.local_hit_p50_ms", "ms", "lower"},
		{"tracing.overhead_frac", "frac", "lower"},
	}
	for _, p := range flatPackages {
		defs = append(defs, metricDef{"flat." + p + "_frac", "frac", "lower"})
	}
	return defs
}()

// report is one run's outcome: the metrics printed on the last line,
// the operation counts, the output checks, and the detail that goes
// only into the result file.
type report struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	Checks    []check
	Detail    map[string]any
	Absent    map[string]string // per-layer metric -> why this workload reports 0
	spans     *spanLog
}

// check is one output-correctness assertion.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newReport() *report {
	return &report{Metrics: map[string]float64{}, Detail: map[string]any{}, Absent: map[string]string{}, spans: newSpanLog()}
}

// op counts one attempted operation and whether it failed.
func (r *report) op(failed bool) {
	r.Attempted++
	if failed {
		r.Failed++
	}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// correct is true when every check passed and no operation failed.
func (r *report) correct() bool {
	if r.Failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// absent marks the per-layer metrics with the given name prefixes as
// not exercised by this workload.
func (r *report) absent(why string, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				if _, ok := r.Metrics[d.Name]; !ok {
					r.Absent[d.Name] = why
				}
			}
		}
	}
}

// finish fills every declared metric of the mode, reporting 0 for the
// absent ones, and returns the names the workload did not set and did
// not explain.
func (r *report) finish(defs []metricDef) (unexplained []string) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if _, ok := r.Absent[d.Name]; !ok {
			unexplained = append(unexplained, d.Name)
		}
		r.Metrics[d.Name] = 0
	}
	sort.Strings(unexplained)
	return unexplained
}
