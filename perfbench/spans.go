package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanLabel is the pprof label key carrying the span a goroutine's
// work belongs to; goroutines started inside a span inherit it.
const spanLabel = "span"

// Span names. Each wraps one kind of public call the benchmark makes.
const (
	spanSetup     = "setup"     // input generation, cache warm-up, daemon boot
	spanReference = "reference" // sequential-path reference outputs
	spanRun       = "run"       // the timed operation
	spanCheck     = "check"     // output canonicalisation and comparison
	spanDaemon    = "daemon"    // the live hided and every goroutine it starts
	spanGen       = "gen"       // the daemon workload's load generator
	spanAssoc     = "assoc"     // one association round trip
	spanInject    = "inject"    // one POST /v1/inject
)

// span is one recorded interval, relative to the tracer's start.
type span struct {
	name, parent string
	start, end   time.Duration
}

// tracer records spans in memory and the CPU profile over the traced
// intervals. Disabled, do runs fn directly and record does nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	profiling bool
	buf       bytes.Buffer
	cpu0      time.Duration // process CPU when the window opened
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// do runs fn inside the named span: its goroutine, and any goroutine it
// starts, carry the span label in the CPU profile.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context)) {
	if !t.on.Load() {
		fn(ctx)
		return
	}
	start := now()
	pprof.Do(ctx, pprof.Labels(spanLabel, name), fn)
	t.record(name, "", start, now())
}

// label runs fn with the span label set but records no interval: for
// spans that own long-lived goroutines, labelled whether or not the
// interval is traced.
func label(ctx context.Context, name string, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(spanLabel, name), fn)
}

// record stores a span measured by the caller.
func (t *tracer) record(name, parent string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// profileHz is the requested CPU sampling rate. pprof's default of
// 100 Hz leaves the lightly loaded daemon with a handful of samples per
// run. Setting the rate first makes StartCPUProfile keep it (the
// runtime prints one "cannot set cpu profile rate" line to standard
// error when it does). The kernel may deliver fewer samples than
// requested, so profiles are used for shares only and scaled by the
// CPU the process measured over the same window.
const profileHz = 500

// startProfile begins a CPU profile window.
func (t *tracer) startProfile() error {
	t.buf.Reset()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.profiling = true
	t.cpu0 = processCPU()
	return nil
}

// window is one closed profile window with the process CPU it spanned.
type window struct {
	prof *Profile
	cpu  time.Duration
}

// scale converts the window's profiled CPU nanoseconds into
// measured CPU nanoseconds.
func (w window) scale() float64 {
	var total int64
	for _, ns := range SpanTotals(w.prof) {
		total += ns
	}
	if total == 0 {
		return 0
	}
	return float64(w.cpu) / float64(total)
}

// stopProfile ends the window and returns its decoded profile.
func (t *tracer) stopProfile() (window, error) {
	if !t.profiling {
		return window{prof: &Profile{}}, nil
	}
	pprof.StopCPUProfile()
	t.profiling = false
	cpu := processCPU() - t.cpu0
	p, err := ParseProfile(t.buf.Bytes())
	return window{prof: p, cpu: cpu}, err
}

// spanSummary is the report line of one span name.
type spanSummary struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// summary groups the recorded spans by name.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[string][]float64{}
	parent := map[string]string{}
	for _, s := range t.spans {
		by[s.name] = append(by[s.name], ms(s.end-s.start))
		parent[s.name] = s.parent
	}
	var out []spanSummary
	for name, d := range by {
		var total float64
		for _, x := range d {
			total += x
		}
		out = append(out, spanSummary{Name: name, Parent: parent[name], Count: len(d), TotalMS: total, P50MS: median(d)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
