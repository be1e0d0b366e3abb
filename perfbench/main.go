// Command perfbench is the repository's benchmark. It drives one
// workload through the program's public packages for a fixed time,
// checks every operation's output, and prints its metrics: the
// end-to-end ones with --trace 0, the per-layer ones (from a CPU
// profile attributed to repro/internal modules) with --trace 1.
//
//	bash perfbench/run.sh --workload million --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines
// before it name every metric with its unit, and one
// "perfbench-report" line records the run's metadata, sample counts,
// per-module table and spans. README.md defines the workloads and
// metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/check"
	"repro/internal/core"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// names; main_test.go holds the two lists equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, for every workload.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// modules are the repro/internal packages the workloads run, in
// ROADMAP's layer order; each gets a <module>.self_ms metric.
var modules = []string{
	"sim", "medium", "dot11", "porttable", "station", "ap", "energy",
	"policy", "engine", "core", "trace", "ess",
	"airlink", "netmedium", "daemon", "control",
}

// busyModules are, per workload, the modules that do enough work in
// its traced window to hold profile samples on every run (the baseline
// tables give each at least 1 % of the program's samples). A traced
// run in which one of them holds none fails: its table would be
// missing a layer.
var busyModules = map[string][]string{
	"figures":  {"energy", "policy", "trace", "sim", "core"},
	"million":  {"dot11", "sim", "station", "medium", "porttable", "ap"},
	"ess-roam": {"dot11", "sim", "station", "porttable", "medium", "ap", "engine", "ess"},
	"daemon":   {"airlink", "netmedium", "daemon", "control", "ap", "porttable", "dot11", "sim"},
}

// layerCounts are the per-layer metrics beside the self times.
var layerCounts = []metricDef{
	{"sim.events", "count"},
	{"medium.transmissions", "count"},
	{"medium.deliveries_per_tx", "ratio"},
	{"station.beacons_heard", "count"},
	{"station.useful_ratio", "ratio"},
	{"ap.dtims", "count"},
	{"ap.port_msgs", "count"},
	{"ap.btim_bytes", "bytes"},
	{"ap.aid_high_water", "count"},
	{"energy.arrivals", "count"},
	{"trace.setup_ms", "ms"},
	{"ess.roams", "count"},
	{"ess.cores_used", "cores"},
	{"airlink.frames_in", "count"},
	{"airlink.frames_out", "count"},
	{"daemon.beacon_late_ms_p99", "ms"},
	{"control.inject_ms_p50", "ms"},
	{"runtime.gc_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"bench.internal_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.gen_late_ms_p99", "ms"},
}

// perLayer is the full metric list of a traced run.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range modules {
		out = append(out, metricDef{m + ".self_ms", "ms"})
	}
	return append(out, layerCounts...)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// meta describes where and how a result was measured.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

// topFunctions is how many functions the traced report lists.
const topFunctions = 10

// shareRow is one line of the traced per-module or per-function table.
type shareRow struct {
	Name   string  `json:"name"`
	SelfMS float64 `json:"self_ms_per_op"`
	Share  float64 `json:"share_of_internal"`
}

// result is everything one run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Meta      meta               `json:"meta"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Samples   map[string]int     `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	// Extra holds figures printed beside the gated metrics: the
	// issue-facing views the fixed metric set cannot carry for every
	// workload, and the ones too noisy on a shared host to gate.
	Extra   map[string]float64 `json:"extra"`
	Modules []shareRow         `json:"modules,omitempty"`
	// Functions lists the functions holding most self time.
	Functions []shareRow    `json:"functions,omitempty"`
	Spans     []spanSummary `json:"spans,omitempty"`
	// SpanCPUMS is the traced window's CPU per span label, per operation
	// ("" is time outside every span).
	SpanCPUMS map[string]float64 `json:"span_cpu_ms,omitempty"`
}

func newResult(o options) *result {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &result{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds.Seconds(),
		Meta: meta{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: commit,
		},
		Samples: map[string]int{}, Metrics: map[string]float64{}, Extra: map[string]float64{},
	}
}

// fail records a failed check; the first few messages are kept.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations under one message.
func (r *result) failN(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// setModules fills <module>.self_ms and the module table from one
// span's attribution over the traced windows, per operation.
func (r *result) setModules(ws []window, span string, ops int) {
	self, funcs, spans := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var internal float64
	for _, w := range ws {
		a := Attribute(w.prof, span)
		scale := w.scale()
		for m, ns := range a.SelfNS {
			self[m] += float64(ns) * scale
		}
		for fn, ns := range a.FuncNS {
			funcs[fn] += float64(ns) * scale
		}
		for label, ns := range SpanTotals(w.prof) {
			spans[label] += float64(ns) * scale
		}
		internal += float64(a.InternalNS) * scale
		r.Samples["profile"] += int(a.Samples)
	}
	per := func(ns float64) float64 { return ns / 1e6 / float64(max(ops, 1)) }
	rows := func(by map[string]float64) []shareRow {
		var out []shareRow
		for name, ns := range by {
			out = append(out, shareRow{Name: name, SelfMS: per(ns), Share: ratio(ns, internal)})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
		return out
	}
	for _, m := range modules {
		r.Metrics[m+".self_ms"] = per(self[m])
	}
	r.Modules = rows(self)
	r.Functions = rows(funcs)
	r.Functions = r.Functions[:min(len(r.Functions), topFunctions)]
	r.Metrics["bench.internal_ms"] = per(internal)
	r.SpanCPUMS = map[string]float64{}
	for label, ns := range spans {
		r.SpanCPUMS[label] = per(ns)
	}
	for _, m := range busyModules[r.Workload] {
		if self[m] == 0 {
			r.fail("module %s holds no profile sample in the traced window", m)
		}
	}
	for m := range self {
		if !slices.Contains(modules, m) {
			r.fail("profile charged unlisted module %q", m)
		}
	}
}

// fingerprint is the SHA-256 of an output's canonical JSON.
func fingerprint(v any) (string, []byte, error) {
	b, err := check.MarshalCanonical(v)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b, nil
}

// fingerprintsPath holds the committed sequential-path fingerprints,
// per workload and seed.
const fingerprintsPath = "perfbench/fingerprints.json"

func loadFingerprints(workload string) (map[uint64]string, error) {
	data, err := os.ReadFile(fingerprintsPath)
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", fingerprintsPath, err)
	}
	out := map[uint64]string{}
	seeds := make([]string, 0, len(all[workload]))
	for s := range all[workload] {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	for _, s := range seeds {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: seed %q: %w", fingerprintsPath, s, err)
		}
		out[seed] = all[workload][s]
	}
	return out, nil
}

// print writes the human-readable metric lines, the report line and the
// result line.
func (r *result) print(defs []metricDef) error {
	for _, d := range defs {
		fmt.Printf("perfbench %-8s %-28s %14.6g %s\n", r.Workload, d.name, r.Metrics[d.name], d.unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("perfbench %-8s %-28s %14.6g %s\n", r.Workload, k, r.Extra[k], extraUnits[k])
	}
	report, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench-report %s\n", report)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

// extraUnits are the units of result.Extra.
var extraUnits = map[string]string{
	"op_ms_p90":       "ms",
	"alloc_mb_per_op": "MB",
	"sim_speed":       "x",
	"error_rate":      "ratio",
	"assoc_ms_p50":    "ms",
	"assoc_ms_p99":    "ms",
	"daemon_cpu_util": "cores",
}

func main() {
	var o options
	var seconds int
	var traced int
	var printFP bool
	flag.StringVar(&o.workload, "workload", "", "workload: figures, million, ess-roam or daemon")
	flag.Uint64Var(&o.seed, "seed", core.DefaultSeed, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traced, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.BoolVar(&printFP, "fingerprint", false, "print the sequential-path output fingerprint for --workload/--seed and exit")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = traced == 1
	run, ok := runnerFor(o.workload)
	if !ok || seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload figures|million|ess-roam|daemon, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	ctx := context.Background()
	if printFP {
		fp, err := referenceFingerprint(ctx, o.workload, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(fp)
		return
	}
	res, err := run(ctx, o, newTracer())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	if err := res.print(defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
