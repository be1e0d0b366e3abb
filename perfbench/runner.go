package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
)

// simulations are the batch workloads.
var simulations = map[string]func() simulation{
	"figures":  func() simulation { return &figures{} },
	"million":  func() simulation { return &million{} },
	"ess-roam": func() simulation { return &essRoam{} },
}

// runner measures one workload.
type runner func(context.Context, options, *tracer) (*result, error)

func runnerFor(workload string) (runner, bool) {
	if workload == "daemon" {
		return runDaemon, true
	}
	mk, ok := simulations[workload]
	if !ok {
		return nil, false
	}
	return func(ctx context.Context, o options, tr *tracer) (*result, error) {
		return runSimulation(ctx, mk, o, tr)
	}, true
}

// Set-up is repeated and its median reported: at least minSetups
// repetitions lasting minSetupTime together: a set-up of a millisecond
// or two is timed a thousand times or more, and even the slowest
// (figures, ~18 ms) over a long enough stretch that a burst of CPU
// stolen by the host moves its median little.
const (
	minSetups    = 5
	minSetupTime = 2 * time.Second
)

// references computes every input's sequential-path output.
func references(ctx context.Context, w simulation) ([]any, error) {
	out := make([]any, w.inputs())
	for i := range out {
		var err error
		if out[i], err = w.reference(ctx, i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// referenceFingerprint computes the sequential-path fingerprint of a
// batch workload's outputs for one seed.
func referenceFingerprint(ctx context.Context, workload string, seed uint64) (string, error) {
	mk, ok := simulations[workload]
	if !ok {
		return "", fmt.Errorf("workload %q has no deterministic output", workload)
	}
	w := mk()
	if err := w.prepare(seed); err != nil {
		return "", err
	}
	outs, err := references(ctx, w)
	if err != nil {
		return "", err
	}
	fp, _, err := fingerprint(outs)
	return fp, err
}

// checkCommitted recomputes the sequential-path output of every seed
// fingerprinted in fingerprints.json and, for the default seed's
// figures, compares them with the golden snapshots.
func checkCommitted(ctx context.Context, o options, tr *tracer, r *result) error {
	fps, err := loadFingerprints(o.workload)
	if err != nil {
		return err
	}
	seeds := make([]uint64, 0, len(fps))
	for s := range fps {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		w := simulations[o.workload]()
		var outs []any
		tr.do(ctx, spanReference, func(ctx context.Context) {
			if err = w.prepare(s); err == nil {
				outs, err = references(ctx, w)
			}
		})
		if err != nil {
			return fmt.Errorf("reference for seed %d: %w", s, err)
		}
		fp, _, err := fingerprint(outs)
		if err != nil {
			return err
		}
		r.Attempted++
		if fp != fps[s] {
			r.fail("seed %d: sequential output fingerprint %s, committed %s", s, fp, fps[s])
		}
		if o.workload == "figures" && s == core.DefaultSeed {
			r.Attempted++
			if err := goldenFigures(outs[0]); err != nil {
				r.fail("golden: %v", err)
			}
		}
	}
	return nil
}

// phase is one stretch of timed operations.
type phase struct {
	walls []float64 // ms per operation
	total cost
	cnt   counters
	ops   int
}

// runOps runs checked operations, cycling through the inputs, until
// dur has passed and every input has run equally often (at least one
// round).
func runOps(ctx context.Context, w simulation, refs [][]byte, dur time.Duration, tr *tracer, r *result) phase {
	var p phase
	for deadline := now().Add(dur); p.ops == 0 || p.ops%len(refs) != 0 || now().Before(deadline); {
		i := p.ops % len(refs)
		before := readUsage()
		var out any
		var err error
		tr.do(ctx, spanRun, func(ctx context.Context) { out, err = w.run(ctx, i, &p.cnt) })
		c := readUsage().since(before)
		p.walls = append(p.walls, ms(c.wall))
		p.total.add(c)
		p.ops++
		r.Attempted++
		if err != nil {
			r.fail("operation: %v", err)
			continue
		}
		tr.do(ctx, spanCheck, func(context.Context) {
			_, got, err := fingerprint(out)
			switch {
			case err != nil:
				r.fail("canonical output: %v", err)
			case !bytes.Equal(got, refs[i]):
				r.fail("input %d: output differs from the sequential reference", i)
			}
		})
	}
	return p
}

// perOp divides a total by an operation count.
func perOp[T int | int64 | uint64 | float64](v T, ops int) float64 {
	return float64(v) / float64(max(ops, 1))
}

// ratio is a/b, or 0 when b is 0.
func ratio[T int | int64 | float64 | time.Duration](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEndMetrics fills the shared end-to-end metrics from one phase
// of ops operations with the given latency samples.
func (r *result) endToEndMetrics(lat []float64, total cost, ops int) {
	r.Metrics["op_ms_p50"] = quantile(lat, 0.5)
	r.Extra["op_ms_p90"] = quantile(lat, 0.9)
	r.Metrics["cpu_ms_per_op"] = perOp(ms(total.cpu), ops)
	r.Metrics["allocs_per_op"] = perOp(total.allocs, ops)
	r.Extra["alloc_mb_per_op"] = perOp(float64(total.bytes)/1e6, ops)
	r.Metrics["live_heap_mb"] = liveHeapMB()
	r.Samples["op"] = len(lat)
	r.Extra["error_rate"] = ratio(r.Failed, r.Attempted)
}

func runSimulation(ctx context.Context, mk func() simulation, o options, tr *tracer) (*result, error) {
	r := newResult(o)
	if o.trace {
		tr.on.Store(true)
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	if err := checkCommitted(ctx, o, tr, r); err != nil {
		return nil, err
	}
	w := mk()
	var setups []float64
	for start := now(); len(setups) < minSetups || now().Sub(start) < minSetupTime; {
		t0 := now()
		var err error
		tr.do(ctx, spanSetup, func(context.Context) { err = w.prepare(o.seed) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	var refs [][]byte
	var err error
	tr.do(ctx, spanReference, func(ctx context.Context) {
		var outs []any
		if outs, err = references(ctx, w); err != nil {
			return
		}
		for _, out := range outs {
			var b []byte
			if _, b, err = fingerprint(out); err != nil {
				return
			}
			refs = append(refs, b)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	setupProf, err := tr.stopProfile()
	if err != nil {
		return nil, err
	}
	tr.on.Store(false)

	runOps(ctx, w, refs, 0, tr, r) // warm-up
	if !o.trace {
		p := runOps(ctx, w, refs, o.seconds, tr, r)
		r.endToEndMetrics(p.walls, p.total, p.ops)
		r.Metrics["setup_s"] = median(setups)
		r.Samples["setup"] = len(setups)
		r.Extra["sim_speed"] = w.traceSeconds() / (r.Metrics["op_ms_p50"] / 1e3)
		return r, nil
	}

	plain := runOps(ctx, w, refs, o.seconds/3, tr, r)
	tr.on.Store(true)
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	p := runOps(ctx, w, refs, o.seconds-o.seconds/3, tr, r)
	runProf, err := tr.stopProfile()
	if err != nil {
		return nil, err
	}
	tr.on.Store(false)

	// Layer counts are per operation; cn is the operations behind c.
	n, c, cn := p.ops, p.cnt, p.ops
	if cw, ok := w.(counter); ok {
		// Every input ran equally often, so the per-operation count is
		// the mean over the inputs.
		c, cn = counters{}, w.inputs()
		for i := 0; i < w.inputs(); i++ {
			if err := cw.count(i, &c); err != nil {
				return nil, fmt.Errorf("counts: %w", err)
			}
		}
	}
	r.setModules([]window{runProf}, spanRun, n)
	r.Metrics["trace.setup_ms"] = perOp(float64(Attribute(setupProf.prof, spanSetup).SelfNS["trace"])*setupProf.scale()/1e6, len(setups))
	r.Metrics["sim.events"] = perOp(c.events, cn)
	r.Metrics["medium.transmissions"] = perOp(c.transmissions, cn)
	r.Metrics["medium.deliveries_per_tx"] = ratio(c.deliveries, c.transmissions)
	r.Metrics["station.beacons_heard"] = perOp(c.beaconsHeard, cn)
	r.Metrics["station.useful_ratio"] = ratio(c.groupUseful, c.groupReceived)
	r.Metrics["ap.dtims"] = perOp(c.dtims, cn)
	r.Metrics["ap.port_msgs"] = perOp(c.portMsgs, cn)
	r.Metrics["ap.btim_bytes"] = perOp(c.btimBytes, cn)
	r.Metrics["energy.arrivals"] = perOp(c.arrivals, cn)
	r.Metrics["ess.roams"] = perOp(c.roams, cn)
	r.Metrics["ess.cores_used"] = ratio(c.essCPU, c.essWall)
	r.Metrics["runtime.gc_ms"] = perOp(p.total.gcCPU*1e3, n)
	r.Metrics["runtime.alloc_mb"] = perOp(float64(p.total.bytes)/1e6, n)
	r.Metrics["bench.trace_overhead"] = ratio(perOp(ms(p.total.cpu), n), perOp(ms(plain.total.cpu), plain.ops)) - 1
	r.Samples["op"] = n
	r.Samples["untraced_op"] = plain.ops
	r.Spans = tr.summary()
	return r, nil
}

// daemonBoots is how many times the daemon workload boots hided for
// set-up; the last instance carries the untraced load.
const daemonBoots = 5

// tracedInstances is how many fresh hided instances the traced run
// drives, one traced phase each: at tracedLoad one phase holds a few
// hundred profile samples in hided, and the cheapest modules need
// several phases to collect a dozen or more.
const tracedInstances = 3

// warmUp is the unmeasured (but checked) load before the first phase
// on each instance.
const warmUp = 500 * time.Millisecond

func runDaemon(ctx context.Context, o options, tr *tracer) (*result, error) {
	if planned := (warmUp + o.seconds).Seconds() * assocRate; planned > aidBudget {
		return nil, fmt.Errorf("daemon: %.0f associations planned, over the %d one hided can serve (it never reuses AIDs); use --seconds %d or less",
			planned, aidBudget, int(aidBudget/assocRate-warmUp.Seconds()))
	}
	r := newResult(o)
	if o.trace {
		tr.on.Store(true)
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	var l *liveDaemon
	var setups []float64
	for i := 0; i < daemonBoots; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return nil, err
			}
		}
		t0 := now()
		var err error
		tr.do(ctx, spanSetup, func(ctx context.Context) { l, err = bootDaemon(ctx, tr, o.seed) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	r.Metrics["setup_s"] = median(setups)
	r.Samples["setup"] = len(setups)
	if _, err := tr.stopProfile(); err != nil {
		return nil, errors.Join(err, l.stop())
	}
	tr.on.Store(false)
	err := measureDaemon(ctx, &l, o, tr, r)
	if l != nil {
		err = errors.Join(err, l.stop())
	}
	return r, err
}

// account adds one load phase's operations and failures to r.
func (r *result) account(st *loadStats) {
	r.Attempted += st.requests()
	failures := []struct {
		n    int
		what string
	}{
		{st.refused, "associations refused"},
		{st.dupAID, "associations given an AID already in use"},
		{st.noReply, "associations unanswered by their deadline"},
		{st.postFailed, "inject POSTs rejected"},
		{st.lost, "injected frames no station received"},
		{st.unacked, "port updates not acknowledged"},
		{st.bad, "malformed frames off the air"},
	}
	for _, f := range failures {
		if f.n > 0 {
			r.failN(f.n, "%d %s", f.n, f.what)
		}
	}
}

// measureDaemon offers the load to *l and fills r. The traced run
// replaces *l with fresh instances as it goes; the caller stops the
// last one.
func measureDaemon(ctx context.Context, l **liveDaemon, o options, tr *tracer, r *result) error {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Second,
	}
	defer client.CloseIdleConnections()
	port := 0
	ld := baseLoad
	if o.trace {
		ld = tracedLoad
	}
	drive := func(d time.Duration) (*loadStats, error) {
		st, err := (*l).drive(ctx, tr, client, &port, ld, d)
		if err != nil {
			return nil, err
		}
		r.account(st)
		return st, nil
	}
	if _, err := drive(warmUp); err != nil {
		return err
	}
	if !o.trace {
		st, err := drive(o.seconds)
		if err != nil {
			return err
		}
		r.endToEndMetrics(st.assocLatency, st.cost, st.assocs)
		r.Metrics["cpu_ms_per_op"] = st.cpuPerAssoc()
		r.Extra["assoc_ms_p50"] = quantile(st.assocLatency, 0.5)
		r.Extra["assoc_ms_p99"] = quantile(st.assocLatency, 0.99)
		r.Extra["daemon_cpu_util"] = ratio(st.cost.cpu, st.cost.wall)
		r.Samples["assoc"] = len(st.assocLatency)
		return nil
	}

	plain, err := drive(o.seconds / 3)
	if err != nil {
		return err
	}
	st := &loadStats{}
	var windows []window
	for i := 0; i < tracedInstances; i++ {
		if i > 0 {
			// A fresh instance: the AP never reuses AIDs.
			client.CloseIdleConnections()
			err := (*l).stop()
			*l = nil
			if err != nil {
				return err
			}
			if *l, err = bootDaemon(ctx, tr, o.seed); err != nil {
				return err
			}
			if _, err := drive(warmUp); err != nil {
				return err
			}
		}
		tr.on.Store(true)
		if err := tr.startProfile(); err != nil {
			return err
		}
		phase, err := drive(o.seconds - o.seconds/3)
		if err != nil {
			return err
		}
		w, err := tr.stopProfile()
		if err != nil {
			return err
		}
		tr.on.Store(false)
		windows = append(windows, w)
		st.add(phase)
	}

	// Per request: the traced load is mostly AID-free requests.
	n := st.requests()
	r.setModules(windows, spanDaemon, n)
	r.Metrics["ap.dtims"] = perOp(st.counters["dtims_sent_total"], n)
	r.Metrics["ap.port_msgs"] = perOp(st.counters["port_msgs_received_total"], n)
	r.Metrics["ap.btim_bytes"] = perOp(st.counters["btim_bytes_sent_total"], n)
	r.Metrics["ap.aid_high_water"] = float64(st.aidHigh)
	r.Metrics["airlink.frames_in"] = perOp(st.counters["air_frames_in_total"], n)
	r.Metrics["airlink.frames_out"] = perOp(st.counters["air_frames_out_total"], n)
	r.Metrics["daemon.beacon_late_ms_p99"] = quantile(st.beaconLate, 0.99)
	r.Metrics["control.inject_ms_p50"] = quantile(st.injectRTT, 0.5)
	r.Metrics["runtime.gc_ms"] = perOp(st.cost.gcCPU*1e3, n)
	r.Metrics["runtime.alloc_mb"] = perOp(float64(st.cost.bytes)/1e6, n)
	r.Metrics["bench.trace_overhead"] = ratio(perOp(ms(st.cost.cpu), n), perOp(ms(plain.cost.cpu), plain.requests())) - 1
	r.Metrics["bench.gen_late_ms_p99"] = quantile(st.genLate, 0.99)
	r.Samples["op"] = n
	r.Samples["untraced_op"] = plain.requests()
	r.Samples["assoc"] = st.assocs
	r.Samples["port_update"] = st.ports
	r.Samples["beacon"] = len(st.beaconLate)
	r.Samples["inject"] = len(st.injectRTT)
	r.Samples["gen"] = len(st.genLate)
	r.Samples["instances"] = tracedInstances
	r.Spans = tr.summary()
	return nil
}
