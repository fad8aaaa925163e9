package main

import (
	"bytes"
	"runtime"
	"syscall"
	"time"
)

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simWorkload drives the simulator directly: generate a trace, then
// run it serially (the oracle) and epoch-pipelined, one pair of passes
// per Pair of the run's budget.
type simWorkload struct {
	Case simCase
	Tiny simCase       // the same shape at test scale
	Pair time.Duration // nominal time of one serial plus pipelined pair
}

// setupRepeats is how many times a run sets up, so setup_s is a median.
const setupRepeats = 3

// setup generates the trace setupRepeats times and keeps the last one.
func (w simWorkload) setup(rc runConfig, r *report) (*simInput, error) {
	c := w.caseFor(rc)
	var in *simInput
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		in = nil
		runtime.GC()
		t0 := time.Now()
		next, err := generate(c, rc.Seed)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		r.spans.add("workloads.generate", 0, t0, t1)
		times = append(times, t1.Sub(t0).Seconds())
		in = next
	}
	r.Metrics["setup_s"] = median(times)
	r.Detail["setup_s_samples"] = times
	r.Detail["accesses"] = in.accesses()
	r.Detail["streams"] = in.streams()
	return in, nil
}

func (w simWorkload) caseFor(rc runConfig) simCase {
	if rc.Tiny {
		return w.Tiny
	}
	return w.Case
}

// pass runs one timed simulation after collecting the previous pass's
// garbage, and checks it against the oracle document.
func pass(r *report, in *simInput, pipelined bool, oracle []byte) (simOutcome, bool) {
	runtime.GC()
	c0 := processCPU()
	out, err := runSim(in, pipelined, nil)
	out.CPU = processCPU() - c0
	mode := map[bool]string{false: "serial", true: "pipelined"}[pipelined]
	switch {
	case err != nil:
		r.op(true)
		r.check(mode+" run", false, "%v", err)
		return out, false
	case out.Truncated:
		r.op(true)
		r.check(mode+" not truncated", false, "result truncated")
		return out, false
	case oracle != nil && !bytes.Equal(out.Doc, oracle):
		r.op(true)
		r.check(mode+" document equals serial", false, "%d bytes differ from the serial document", len(out.Doc))
		return out, false
	}
	r.op(false)
	return out, true
}

// run is the untraced measurement: a fixed number of serial/pipelined
// pairs for the budget.
func (w simWorkload) run(rc runConfig) (*report, error) {
	r := newReport()
	in, err := w.setup(rc, r)
	if err != nil {
		return nil, err
	}
	var oracle []byte
	var serial, piped, serialCPU, pipedCPU []float64
	var simTime float64
	for pairs := workCount(rc.Budget, w.Pair, 1); pairs > 0; pairs-- {
		s, ok := pass(r, in, false, oracle)
		if !ok {
			break
		}
		if oracle == nil {
			oracle, simTime = s.Doc, s.SimTimeUS
		}
		serial = append(serial, float64(s.Accesses)/s.Wall.Seconds())
		serialCPU = append(serialCPU, float64(s.Accesses)/s.CPU.Seconds())
		p, ok := pass(r, in, true, oracle)
		if !ok {
			break
		}
		piped = append(piped, float64(p.Accesses)/p.Wall.Seconds())
		pipedCPU = append(pipedCPU, float64(p.Accesses)/p.CPU.Seconds())
	}
	r.check("serial and pipelined documents byte-identical", r.Failed == 0 && len(piped) > 0, "see failed checks")
	r.Metrics["sim_rate_serial"] = median(serial)
	r.Metrics["sim_rate_pipelined"] = median(piped)
	r.Metrics["sim_time_us"] = simTime
	r.Detail["sim_rate_serial_samples"] = serial
	r.Detail["sim_rate_pipelined_samples"] = piped
	r.Detail["sim_rate_serial_cpu_samples"] = serialCPU
	r.Detail["sim_rate_pipelined_cpu_samples"] = pipedCPU
	return r, nil
}

// traced is the per-layer run: an untraced serial pass for the
// baseline rate, then a serial pass under the CPU profiler with an
// OnEpoch hook timing the epochs.
func (w simWorkload) traced(rc runConfig) (*report, error) {
	r := newReport()
	in, err := w.setup(rc, r)
	if err != nil {
		return nil, err
	}
	r.Metrics["workloads.gen_s"] = r.Metrics["setup_s"]
	delete(r.Metrics, "setup_s")

	base, ok := pass(r, in, false, nil)
	if !ok {
		return r, nil
	}
	runtime.GC()
	var marks []time.Time
	var out simOutcome
	t0 := time.Now()
	prof, err := profileCPU(func() error {
		var err error
		out, err = runSim(in, false, func(at time.Time) { marks = append(marks, at) })
		return err
	})
	t1 := time.Now()
	ok = err == nil && !out.Truncated && bytes.Equal(out.Doc, base.Doc)
	r.op(!ok)
	r.check("traced serial document equals untraced", ok, "err=%v truncated=%v", err, out.Truncated)
	if err != nil {
		return r, nil
	}
	runID := r.spans.add("system.Run", 0, t0, t1)
	prev := t0
	var epochMS []float64
	for _, at := range marks {
		r.spans.add("epoch", runID, prev, at)
		epochMS = append(epochMS, ms(at.Sub(prev)))
		prev = at
	}

	a := attribute(prof)
	a.fracs(r)
	n := float64(out.Accesses)
	epochs := float64(len(marks))
	c := out.Counts
	r.Metrics["sampler.observe_ns_per_access"] = ratio(float64(a.CumNS["sampler.observe_cpu_frac"]), n)
	r.Metrics["streamcache.lookup_ns_per_access"] = ratio(float64(a.CumNS["streamcache.lookup_cpu_frac"]), n)
	r.Metrics["policy.optimize_ms_per_epoch"] = ratio(float64(a.CumNS["policy.optimize_cpu_frac"])/1e6, epochs)
	r.Metrics["adapt.decide_ms_per_epoch"] = ratio(float64(a.CumNS["adapt.decide_cpu_frac"])/1e6, epochs)
	r.Metrics["sampler.covered_streams"] = float64(c.SamplerCovered)
	r.Metrics["streamcache.hit_ratio"] = ratio(float64(c.StreamHits), float64(c.StreamLookups))
	r.Metrics["streamcache.slb_hit_ratio"] = ratio(float64(c.SLBHits), float64(c.SLBLookups))
	r.Metrics["noc.messages"] = float64(c.NoCMessages)
	r.Metrics["noc.hops_per_message"] = ratio(float64(c.NoCHops), float64(c.NoCMessages))
	r.Metrics["dram.row_hit_ratio"] = ratio(float64(c.DRAMRowHits), float64(c.DRAMAccesses))
	r.Metrics["cxl.accesses"] = float64(c.CXLAccesses)
	r.Metrics["cache.l1_hit_ratio"] = ratio(float64(c.L1Hits), n)
	r.Metrics["adapt.switches"] = float64(c.AdaptSwitches)
	r.Metrics["adapt.migrated_rows"] = float64(c.AdaptMigrated)
	r.Metrics["system.epochs"] = epochs
	ep := summarize(epochMS, "ms")
	r.Metrics["system.epoch_wall_p50_ms"] = ep.P50
	r.Metrics["system.epoch_wall_p99_ms"] = ep.P99
	r.Detail["epoch_wall_ms"] = ep
	r.Metrics["system.reconfig_kept_ratio"] = ratio(float64(c.ReconfigKept), float64(c.ReconfigKept+c.ReconfigDropped))
	r.Metrics["tracing.overhead_frac"] = out.Wall.Seconds()/base.Wall.Seconds() - 1
	r.Detail["untraced_serial_rate"] = n / base.Wall.Seconds()
	r.Detail["traced_serial_rate"] = n / out.Wall.Seconds()
	r.absent("the serving stack is not exercised by a direct simulator run",
		"scheduler.", "simcache.", "client.", "cluster.")
	return r, nil
}
