package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/ap"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/station"
	"repro/internal/trace"
)

// simulation is one batch workload: an operation that turns generated
// inputs into a deterministic output, run on the parallel path while
// timed and on the sequential path for the reference. A seed generates
// a pool of inputs that the operations cycle through, so one run's
// cost averages over several inputs instead of resting on one draw.
type simulation interface {
	// prepare generates the input pool for a seed. It is the set-up
	// that setup_s times.
	prepare(seed uint64) error
	// inputs is the pool size.
	inputs() int
	// reference computes input i's output on the sequential path.
	reference(ctx context.Context, i int) (any, error)
	// run is the timed operation on input i; it adds the layer counts
	// it can read from the program's public Stats to c, unless the
	// workload is a counter.
	run(ctx context.Context, i int, c *counters) (any, error)
	// traceSeconds is the mean simulated time one operation covers.
	traceSeconds() float64
}

// counter is a simulation whose timed operation exposes no layer
// counts; the traced run collects them with count, once per input.
type counter interface {
	count(i int, c *counters) error
}

// subSeed derives input i's seed from the workload seed.
func subSeed(seed uint64, i int) uint64 { return seed*0x100 + uint64(i) }

// counters are the per-layer work counts read at the operation's
// boundary.
type counters struct {
	arrivals                                 int
	beaconsHeard, groupReceived, groupUseful int
	events                                   uint64
	transmissions, deliveries                int
	dtims, portMsgs, btimBytes               int
	roams                                    int
	essCPU, essWall                          time.Duration
}

func (c *counters) addAP(s ap.Stats) {
	c.dtims += s.DTIMsSent
	c.portMsgs += s.PortMsgsReceived
	c.btimBytes += s.BTIMBytesSent
}

func (c *counters) addStation(s station.Stats) {
	c.beaconsHeard += s.BeaconsHeard
	c.groupReceived += s.GroupReceived
	c.groupUseful += s.GroupUseful
}

func (c *counters) addNetwork(n *core.Network) {
	c.events += n.Engine.Fired()
	c.transmissions += n.Medium.Stats.Transmissions
	c.deliveries += n.Medium.Stats.Deliveries
	c.addAP(n.AP.Stats())
}

// workers is the parallelism of the timed path: every core the
// runtime may use.
func workers() int { return runtime.GOMAXPROCS(0) }

// seededTrace generates a scenario trace from the workload seed,
// trimmed to d.
func seededTrace(s trace.Scenario, seed uint64, d time.Duration) (*trace.Trace, error) {
	cfg := trace.ScenarioConfig(s)
	cfg.Seed ^= seed * 0x9e3779b97f4a7c15
	cfg.Duration = d
	return trace.Generate(cfg)
}

// sortedPorts returns the trace's destination ports in ascending order.
func sortedPorts(set map[uint16]int) []uint16 {
	out := make([]uint16, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// figures regenerates Figures 7/8/9 for both devices, as hidesim does.
// Its inputs differ in the usefulness-tagging seed; the first is the
// workload seed itself, so the default seed reproduces the golden
// figures.
type figures struct {
	opts   []core.Options
	traceS float64
}

// figuresInputs is the figures workload's pool size.
const figuresInputs = 4

func (f *figures) prepare(seed uint64) error {
	// A fresh cache makes every repetition pay the cold warm-up a new
	// hidesim process pays.
	engine.Traces = &engine.TraceCache{}
	f.opts = f.opts[:0]
	for i := 0; i < figuresInputs; i++ {
		s := seed
		if i > 0 {
			s = subSeed(seed, i)
		}
		f.opts = append(f.opts, core.Options{}.WithSeed(s))
	}
	f.traceS = 0
	for _, sc := range trace.Scenarios {
		tr, err := engine.Traces.Scenario(sc)
		if err != nil {
			return err
		}
		f.traceS += tr.Duration.Seconds() * float64(len(devices))
	}
	return nil
}

var devices = []energy.Profile{energy.NexusOne, energy.GalaxyS4}

func (f *figures) suites(ctx context.Context, opts core.Options, c *counters) ([]*core.Suite, error) {
	var out []*core.Suite
	for _, dev := range devices {
		s, err := core.RunSuiteContext(ctx, dev, opts)
		if err != nil {
			return nil, err
		}
		for _, cmp := range s.Comparisons {
			c.arrivals += cmp.ReceiveAll.Breakdown.Received + cmp.ClientSide.Breakdown.Received
			for _, h := range cmp.HIDE {
				c.arrivals += h.Breakdown.Received
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func (f *figures) inputs() int { return len(f.opts) }

func (f *figures) reference(ctx context.Context, i int) (any, error) {
	o := f.opts[i]
	o.Workers = 1
	return f.suites(ctx, o, &counters{})
}

func (f *figures) run(ctx context.Context, i int, c *counters) (any, error) {
	o := f.opts[i]
	o.Workers = workers()
	return f.suites(ctx, o, c)
}

func (f *figures) traceSeconds() float64 { return f.traceS }

// goldenFigures checks the default-seed figures against the snapshots
// TestGolden pins.
func goldenFigures(out any) error {
	suites, ok := out.([]*core.Suite)
	if !ok || len(suites) != 2 {
		return fmt.Errorf("figures: unexpected output %T", out)
	}
	dir := filepath.Join("internal", "check", "testdata", "golden")
	if err := check.CompareGolden(filepath.Join(dir, "figure7_nexusone.json"), suites[0].Comparisons, check.GoldenRelTol); err != nil {
		return fmt.Errorf("figure 7: %w", err)
	}
	if err := check.CompareGolden(filepath.Join(dir, "figure8_galaxys4.json"), suites[1].Comparisons, check.GoldenRelTol); err != nil {
		return fmt.Errorf("figure 8: %w", err)
	}
	return nil
}

// million replays seeded 2-minute WRL traces against 10⁶ HIDE clients
// folded into one cohort per port class.
type million struct {
	trs []*trace.Trace
}

const (
	millionClients = 1_000_000
	millionCohort  = 1 << 30
	millionInputs  = 16
)

// seededTraces generates n scenario traces of length d from sub-seeds
// of seed.
func seededTraces(s trace.Scenario, seed uint64, n int, d time.Duration) ([]*trace.Trace, error) {
	var out []*trace.Trace
	for i := 0; i < n; i++ {
		tr, err := seededTrace(s, subSeed(seed, i), d)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// meanSeconds is the traces' mean duration in seconds.
func meanSeconds(trs []*trace.Trace) float64 {
	var sum float64
	for _, tr := range trs {
		sum += tr.Duration.Seconds()
	}
	return sum / float64(len(trs))
}

func (m *million) prepare(seed uint64) error {
	var err error
	m.trs, err = seededTraces(trace.WRL, seed, millionInputs, 2*time.Minute)
	return err
}

func (m *million) inputs() int { return len(m.trs) }

// scale is the library's scaling entry point, as a scale study calls it.
func (m *million) scale(i int) (any, error) {
	pts, err := core.ScaleClientsOptions(m.trs[i], energy.NexusOne, []int{millionClients}, core.Options{Cohort: millionCohort})
	if err != nil {
		return nil, err
	}
	return pts[0], nil
}

// reference is the same call: ScaleClientsOptions has no parallel path
// for cohorts (Options.Workers does not apply), so the reference pins
// the output of the first run of each input for the later ones.
func (m *million) reference(_ context.Context, i int) (any, error) { return m.scale(i) }

func (m *million) run(_ context.Context, i int, _ *counters) (any, error) { return m.scale(i) }

// count replays input i once through the Network API, which exposes
// the engine, medium, AP and cohort counters that ScaleClientsOptions
// keeps to itself; it assembles the population the way
// ScaleClientsOptions does. The counts are deterministic, so the traced
// run collects them once per input, outside the timed operations.
func (m *million) count(i int, c *counters) error {
	tr := m.trs[i]
	n, err := core.NewNetwork(core.NetworkConfig{HIDE: true})
	if err != nil {
		return err
	}
	ports := sortedPorts(tr.PortHistogram())
	if len(ports) == 0 {
		return fmt.Errorf("million: trace has no ports")
	}
	var cohorts []*station.CohortStation
	for i, p := range ports {
		size := millionClients / len(ports)
		if i < millionClients%len(ports) {
			size++
		}
		for off := 0; off < size; off += millionCohort {
			co, err := n.AddCohort(station.HIDE, []uint16{p}, min(millionCohort, size-off), 1)
			if err != nil {
				return err
			}
			cohorts = append(cohorts, co)
		}
	}
	if err := n.Replay(tr); err != nil {
		return err
	}
	for _, co := range cohorts {
		member, _, err := n.CohortEnergy(co, energy.NexusOne, tr.Duration, true)
		if err != nil {
			return err
		}
		c.arrivals += member.Received
		c.addStation(co.MemberStats())
	}
	c.addNetwork(n)
	return nil
}

func (m *million) traceSeconds() float64 { return meanSeconds(m.trs) }

// essRoam replays seeded 2-minute Classroom traces through an 8-AP
// ESS of individually modelled, roaming, hardened HIDE stations.
type essRoam struct {
	seed uint64
	trs  []*trace.Trace
	open [][]uint16
}

const (
	essAPs      = 8
	essStations = 64
	essRoamRate = 2
	essInputs   = 8
)

// essOutput is the canonical result of one ESS run.
type essOutput struct {
	Stats  ess.Stats
	Energy []energy.Breakdown
}

func (e *essRoam) prepare(seed uint64) error {
	trs, err := seededTraces(trace.Classroom, seed, essInputs, 2*time.Minute)
	if err != nil {
		return err
	}
	e.seed, e.trs, e.open = seed, trs, e.open[:0]
	for _, tr := range trs {
		set := map[uint16]int{}
		for p := range trace.OpenPortsForFraction(tr, 0.10) {
			set[p] = 1
		}
		e.open = append(e.open, sortedPorts(set))
	}
	return nil
}

func (e *essRoam) inputs() int { return len(e.trs) }

func (e *essRoam) simulate(ctx context.Context, i, workers int, c *counters) (any, error) {
	seed, tr := subSeed(e.seed, i), e.trs[i]
	sys, err := ess.New(ess.Config{
		APs:       essAPs,
		Network:   core.NetworkConfig{HIDE: true, Harden: true, Seed: seed},
		Replicate: true,
		RoamRate:  essRoamRate,
		RoamSeed:  seed ^ 0xa24baed4963ee407,
		Workers:   workers,
	})
	if err != nil {
		return nil, err
	}
	for k := 0; k < essStations; k++ {
		if _, err := sys.AddStation(station.HIDE, e.open[i], 1); err != nil {
			return nil, err
		}
	}
	wall, cpu := now(), processCPU()
	if err := sys.RunContext(ctx, tr); err != nil {
		return nil, err
	}
	c.essWall += now().Sub(wall)
	c.essCPU += processCPU() - cpu
	out := essOutput{Stats: sys.Stats()}
	for _, st := range sys.Stations() {
		b, err := sys.StationEnergy(st, energy.NexusOne, tr.Duration, true)
		if err != nil {
			return nil, err
		}
		out.Energy = append(out.Energy, b)
		c.arrivals += b.Received
		c.addStation(st.Stats())
	}
	for _, sh := range sys.Shards() {
		c.addNetwork(sh.Net)
	}
	c.roams += out.Stats.Roams
	return out, nil
}

func (e *essRoam) reference(ctx context.Context, i int) (any, error) {
	return e.simulate(ctx, i, 1, &counters{})
}

func (e *essRoam) run(ctx context.Context, i int, c *counters) (any, error) {
	return e.simulate(ctx, i, workers(), c)
}

func (e *essRoam) traceSeconds() float64 { return meanSeconds(e.trs) }
