package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateWindows is how many runs of consecutive operations throughput is
// computed over; the reported rate is their median, so a burst of
// interference on a shared host moves one window, not the figure.
const rateWindows = 10

// windowRate returns the median over rateWindows runs of consecutive
// samples of units completed per second, each sample being one operation
// that took samplesMS[i] milliseconds and completed units.
func windowRate(samplesMS []float64, units float64) float64 {
	n := len(samplesMS)
	w := min(rateWindows, n)
	rates := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		chunk := samplesMS[i*n/w : (i+1)*n/w]
		var total float64
		for _, s := range chunk {
			total += s
		}
		rates = append(rates, 1000*units*float64(len(chunk))/total)
	}
	return quantile(rates, 0.5)
}

// windowQuantile returns the median over rateWindows runs of consecutive
// samples of each run's q-quantile. A high quantile of the whole run moves
// with a single burst of interference; the median of the windows' does not.
func windowQuantile(samples []float64, q float64) float64 {
	n := len(samples)
	w := min(rateWindows, n)
	qs := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		qs = append(qs, quantile(samples[i*n/w:(i+1)*n/w], q))
	}
	return quantile(qs, 0.5)
}

// timedSetup runs build reps times, spread evenly over span, and returns
// the median wall time in seconds and the last build's result; every
// earlier result is released before the next build starts, and the heap is
// collected, both outside the timing. On a shared host the speed of such
// short work changes in periods of a few hundred milliseconds; spreading
// the repetitions samples many periods instead of one. The pause before
// each repetition also makes each set-up start from an idle process, as a
// real one does, which settles the ring's dial race: set-ups made back to
// back often find the peer already listening, set-ups after a pause almost
// always wait for the dial retry.
func timedSetup[T any](reps int, span time.Duration, build func() (T, error), release func(T)) (float64, T, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC()
		time.Sleep(span / time.Duration(reps))
		t0 := time.Now()
		v, err := build()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return 0, last, err
		}
		last = v
	}
	return quantile(times, 0.5), last, nil
}

// runtimeSampler reads the runtime/metrics counters the traced run
// reports, in this order: live heap, allocated bytes, allocated objects,
// GC CPU time, total CPU time.
type runtimeSampler struct {
	samples []metrics.Sample
}

func newRuntimeSampler() *runtimeSampler {
	names := []string{
		"/gc/heap/live:bytes", "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
		"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
	}
	s := &runtimeSampler{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		s.samples[i].Name = n
	}
	return s
}

// runtimeCounters is one reading of the sampler's counters.
type runtimeCounters struct {
	heapLive, allocBytes, allocObjs uint64
	gcCPU, totalCPU                 float64
}

func (s *runtimeSampler) read() runtimeCounters {
	metrics.Read(s.samples)
	return runtimeCounters{
		heapLive:   s.samples[0].Value.Uint64(),
		allocBytes: s.samples[1].Value.Uint64(),
		allocObjs:  s.samples[2].Value.Uint64(),
		gcCPU:      s.samples[3].Value.Float64(),
		totalCPU:   s.samples[4].Value.Float64(),
	}
}

// runtimeLayer reports the runtime/metrics deltas of a traced phase of ops
// operations.
func runtimeLayer(rep *report, before, after runtimeCounters, ops int) {
	n := float64(ops)
	rep.add("runtime.alloc_bytes_per_step", float64(after.allocBytes-before.allocBytes)/n, "B")
	rep.add("runtime.allocs_per_step", float64(after.allocObjs-before.allocObjs)/n, "count")
	gcFrac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	rep.add("runtime.gc_cpu_frac", gcFrac, "ratio")
}

// cpuPackages are the packages whose self time the traced run reports, as
// cpu.<name>_frac.
var cpuPackages = []string{"tensor", "nn", "kfac", "engine", "transport", "schedule", "pipeline", "runtime"}

// cpuProfile records a CPU profile of the traced phase into a temporary
// directory (under TMPDIR, which run.sh points into the checkout).
type cpuProfile struct {
	dir, path string
	f         *os.File
}

func startCPUProfile() (*cpuProfile, error) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{dir: dir, path: filepath.Join(dir, "cpu.pprof")}
	if p.f, err = os.Create(p.path); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := pprof.StartCPUProfile(p.f); err != nil {
		p.f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return p, nil
}

// stop ends the profile and reports each package's share of self time in
// it, as summarised by the toolchain's `go tool pprof -top`. It returns that
// summary or, given a -tagfocus expression, the summary of only the samples
// whose profiler labels match it.
func (p *cpuProfile) stop(rep *report, tagFocus string) (*pprofTop, error) {
	pprof.StopCPUProfile()
	defer os.RemoveAll(p.dir)
	if err := p.f.Close(); err != nil {
		return nil, fmt.Errorf("writing CPU profile: %w", err)
	}
	top, err := p.top()
	if err != nil {
		return nil, err
	}
	for _, pkg := range cpuPackages {
		rep.add("cpu."+pkg+"_frac", ratio(top.self[pkg], top.total), "ratio")
	}
	if tagFocus == "" {
		return top, nil
	}
	return p.top("-tagfocus=" + tagFocus)
}

func (p *cpuProfile) top(args ...string) (*pprofTop, error) {
	args = append([]string{"tool", "pprof", "-top", "-nodefraction=0", "-unit=ms"}, args...)
	out, err := exec.Command("go", append(args, p.path)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofTop(out)
}

// pprofTop is a parsed `pprof -top -unit=ms` listing.
type pprofTop struct {
	self  map[string]float64 // flat milliseconds per layer (see layerOf)
	cum   map[string]float64 // cumulative milliseconds per function
	total float64            // flat milliseconds over every listed function
}

// parsePprofTop parses a `pprof -top -unit=ms` listing.
func parsePprofTop(out []byte) (*pprofTop, error) {
	top := &pprofTop{self: map[string]float64{}, cum: map[string]float64{}}
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 5 && fields[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(fields[3], "ms"), 64)
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		fn := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
		top.total += flat
		top.cum[fn] += cum
		if layer := layerOf(fn); layer != "" {
			top.self[layer] += flat
		}
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top printed no table:\n%s", out)
	}
	return top, sc.Err()
}

// layerOf maps a profiled function name to the layer it belongs to.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	}
	return ""
}
