package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// cpuProfile is a decoded runtime/pprof CPU profile: one stack of
// function names (leaf first, inlined frames expanded) per sample, with
// the sample's CPU nanoseconds.
type cpuProfile struct {
	Samples []profSample
	TotalNS int64
}

type profSample struct {
	Stack []string
	NS    int64
}

// profileCPU runs fn under the process CPU profiler and decodes the
// profile.
func profileCPU(fn func() error) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	return decodeProfile(buf.Bytes())
}

// decodeProfile parses the gzipped profile.proto that runtime/pprof
// writes. Only the fields attribution needs are read: samples,
// locations with their (inlined) lines, functions and the string table.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1] // CPU profiles: [samples, cpu nanoseconds]
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.Samples = append(p.Samples, profSample{Stack: stack, NS: ns})
		p.TotalNS += ns
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number, wire type and its varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field in either encoding: one varint,
// or a packed run of them.
func pbUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// entryPoint maps a per-layer metric to the functions whose cumulative
// CPU time it reports. A name ending in "." matches a whole package.
type entryPoint struct {
	Metric string
	Funcs  []string
}

const mod = "ndpext/internal/"

var entryPoints = []entryPoint{
	{"sampler.observe_cpu_frac", []string{mod + "sampler.(*Sampler).Observe", mod + "sampler.ObservePair"}},
	{"sampler.missrateat_cpu_frac", []string{mod + "sampler.Curve.MissRateAt"}},
	{"streamcache.lookup_cpu_frac", []string{mod + "streamcache.(*Controller).Lookup"}},
	{"streamcache.apply_cpu_frac", []string{mod + "streamcache.(*Controller).Apply"}},
	{"sim.resource_acquire_cpu_frac", []string{mod + "sim.(*Resource).Acquire"}},
	{"sim.eventqueue_cpu_frac", []string{mod + "sim.(*EventQueue).Push", mod + "sim.(*EventQueue).Pop"}},
	{"noc.route_cpu_frac", []string{mod + "noc.(*Network).Route", mod + "noc.(*Network).RouteCXL"}},
	{"dram.access_cpu_frac", []string{mod + "dram.(*Device).Access"}},
	{"cxl.access_cpu_frac", []string{mod + "cxl.(*Device).Access"}},
	{"cache.l1_access_cpu_frac", []string{mod + "cache.(*Cache).Access"}},
	{"policy.optimize_cpu_frac", []string{mod + "policy.Optimize"}},
	{"maxflow.cpu_frac", []string{mod + "maxflow."}},
	{"adapt.decide_cpu_frac", []string{mod + "adapt.(*Controller).Decide"}},
	{"system.epoch_boundary_cpu_frac", []string{mod + "system.(*ndpSim).epochBoundary"}},
}

// attribution is a profile reduced to the benchmark's layers.
type attribution struct {
	TotalNS int64
	CumNS   map[string]int64 // entry-point metric -> CPU ns of samples under it
	FlatNS  map[string]int64 // package -> self CPU ns
}

func attribute(p *cpuProfile) attribution {
	a := attribution{TotalNS: p.TotalNS, CumNS: map[string]int64{}, FlatNS: map[string]int64{}}
	for _, s := range p.Samples {
		for _, ep := range entryPoints {
			if stackHas(s.Stack, ep.Funcs) {
				a.CumNS[ep.Metric] += s.NS
			}
		}
		leaf := ""
		if len(s.Stack) > 0 {
			leaf = s.Stack[0]
		}
		a.FlatNS[flatPackage(leaf)] += s.NS
	}
	return a
}

func stackHas(stack, funcs []string) bool {
	for _, fr := range stack {
		for _, f := range funcs {
			if fr == f || (strings.HasSuffix(f, ".") && strings.HasPrefix(fr, f)) {
				return true
			}
		}
	}
	return false
}

// flatPackage maps a function name to one of flatPackages: the
// repository's own packages by their last path element, a few standard
// library groups, and "other".
func flatPackage(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if strings.HasPrefix(pkg, mod) {
		last := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, p := range flatPackages[:len(flatPackages)-len(stdGroups)-1] {
			if p == last {
				return p
			}
		}
		return "other"
	}
	for _, g := range stdGroups {
		for _, prefix := range g.prefixes {
			if pkg == prefix || strings.HasPrefix(pkg, prefix+"/") {
				return g.name
			}
		}
	}
	return "other"
}

// fracs writes the attribution's shares into the report.
func (a attribution) fracs(r *report) {
	for _, ep := range entryPoints {
		r.Metrics[ep.Metric] = ratio(float64(a.CumNS[ep.Metric]), float64(a.TotalNS))
	}
	for _, p := range flatPackages {
		r.Metrics["flat."+p+"_frac"] = ratio(float64(a.FlatNS[p]), float64(a.TotalNS))
	}
	r.Detail["profile_cpu_s"] = float64(a.TotalNS) / 1e9
}

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the span log's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its id, for children.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))})
	return id
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
