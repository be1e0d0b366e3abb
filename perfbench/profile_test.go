package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// update rewrites testdata/cpu.pb.gz from fixtureSpec:
//
//	go test -run TestProfileFixture -update
var update = flag.Bool("update", false, "rewrite the profile fixture")

const fixturePath = "testdata/cpu.pb.gz"

// fixtureSpec is the fixture's content. Location 5 holds an inlined
// frame (rxDuration inside Compute), sample 1 has a non-internal leaf
// (mallocgc) above its internal frames, sample 5 has no internal frame
// at all, and sample 6 lies in another span.
var fixtureSpec = struct {
	funcs   []string   // function id i+1
	locs    [][]uint64 // location id i+1: function ids, innermost first
	samples []fixtureSample
}{
	funcs: []string{
		"runtime.mallocgc",
		"repro/internal/dot11.UnmarshalBeacon",
		"repro/internal/station.(*Station).handleBeacon",
		"repro/internal/sim.(*Engine).Step",
		"repro/internal/energy.Arrival.rxDuration",
		"repro/internal/energy.Compute",
		"main.main",
	},
	locs: [][]uint64{{1}, {2}, {3}, {4}, {5, 6}, {7}},
	samples: []fixtureSample{
		{locs: []uint64{1, 2, 3, 4}, count: 5, span: "run"},
		{locs: []uint64{3, 4}, count: 2, span: "run"},
		{locs: []uint64{4}, count: 1, span: "run"},
		{locs: []uint64{5, 6}, count: 1, span: "run"},
		{locs: []uint64{1, 6}, count: 1, span: "run"},
		{locs: []uint64{2}, count: 3, span: "check"},
	},
}

type fixtureSample struct {
	locs  []uint64
	count int64
	span  string
}

// fixturePeriod is the fixture's nanoseconds per sample.
const fixturePeriod = 10_000_000

// protoBuf is a minimal protocol buffer encoder for the fixture.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *protoBuf) uint(field int, x uint64) {
	p.varint(uint64(field)<<3 | wireVarint)
	p.varint(x)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// packed writes a repeated integer field packed, as runtime/pprof does
// for more than two values.
func (p *protoBuf) packed(field int, xs []uint64) {
	var in protoBuf
	for _, x := range xs {
		in.varint(x)
	}
	p.bytes(field, in.b)
}

func encodeFixture() []byte {
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var out protoBuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m protoBuf
		m.uint(fValueTypeType, str(vt[0]))
		m.uint(fValueTypeUnit, str(vt[1]))
		out.bytes(fProfileSampleType, m.b)
	}
	for i, s := range fixtureSpec.samples {
		var m protoBuf
		if i%2 == 0 {
			m.packed(fSampleLocation, s.locs)
			m.packed(fSampleValue, []uint64{uint64(s.count), uint64(s.count * fixturePeriod)})
		} else {
			for _, l := range s.locs {
				m.uint(fSampleLocation, l)
			}
			m.uint(fSampleValue, uint64(s.count))
			m.uint(fSampleValue, uint64(s.count*fixturePeriod))
		}
		var lab protoBuf
		lab.uint(fLabelKey, str(spanLabel))
		lab.uint(fLabelStr, str(s.span))
		m.bytes(fSampleLabel, lab.b)
		out.bytes(fProfileSample, m.b)
	}
	for i, fns := range fixtureSpec.locs {
		var m protoBuf
		m.uint(fLocationID, uint64(i+1))
		for _, f := range fns {
			var line protoBuf
			line.uint(fLineFunction, f)
			m.bytes(fLocationLine, line.b)
		}
		out.bytes(fProfileLocation, m.b)
	}
	for i, name := range fixtureSpec.funcs {
		var m protoBuf
		m.uint(fFunctionID, uint64(i+1))
		m.uint(fFunctionName, str(name))
		out.bytes(fProfileFunction, m.b)
	}
	for _, s := range strs {
		out.bytes(fProfileStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(out.b); err != nil {
		panic(err)
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return gz.Bytes()
}

// TestProfileFixture decodes the checked-in fixture and checks the
// module shares its spec implies.
func TestProfileFixture(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, encodeFixture(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != len(fixtureSpec.samples) {
		t.Fatalf("decoded %d samples, want %d", len(p.Samples), len(fixtureSpec.samples))
	}
	if got := p.Samples[3].Stack; len(got) != 3 || got[0] != "repro/internal/energy.Arrival.rxDuration" || got[1] != "repro/internal/energy.Compute" {
		t.Errorf("inlined stack = %q, want rxDuration, Compute, ...", got)
	}

	a := Attribute(p, "run")
	const ms = 1_000_000
	want := map[string]int64{"dot11": 50 * ms, "station": 20 * ms, "sim": 10 * ms, "energy": 10 * ms}
	if len(a.SelfNS) != len(want) {
		t.Errorf("modules = %v, want %v", a.SelfNS, want)
	}
	for m, ns := range want {
		if a.SelfNS[m] != ns {
			t.Errorf("%s self = %d ns, want %d", m, a.SelfNS[m], ns)
		}
	}
	if a.InternalNS != 90*ms || a.TotalNS != 100*ms || a.Samples != 10 {
		t.Errorf("internal %d, total %d, samples %d; want %d, %d, 10", a.InternalNS, a.TotalNS, a.Samples, 90*ms, 100*ms)
	}
	if share := float64(a.SelfNS["dot11"]) / float64(a.InternalNS); math.Abs(share-5.0/9) > 1e-12 {
		t.Errorf("dot11 share = %v, want 5/9", share)
	}
	if got := a.FuncNS["repro/internal/energy.Arrival.rxDuration"]; got != 10*ms {
		t.Errorf("rxDuration self = %d, want %d", got, 10*ms)
	}
	if got := SpanTotals(p); got["check"] != 30*ms || got["run"] != 100*ms {
		t.Errorf("span totals = %v", got)
	}
}

// TestParseRuntimeProfile reads a profile runtime/pprof just wrote and
// finds the labelled busy loop in it.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels(spanLabel, "spin"), func(context.Context) {
		x := 1.0
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			x = math.Sqrt(x + 1)
		}
		sink = x
	})
	pprof.StopCPUProfile()
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpuColumn(p) < 0 || p.SampleTypes[cpuColumn(p)].Unit != "nanoseconds" {
		t.Fatalf("sample types = %v", p.SampleTypes)
	}
	if SpanTotals(p)["spin"] == 0 {
		t.Errorf("no samples in the labelled span: %v", SpanTotals(p))
	}
}

var sink float64

// TestVarint covers the decoder's edge cases.
func TestVarint(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 300, 1<<63 + 5} {
		var p protoBuf
		p.varint(x)
		got, n := varint(p.b)
		if got != x || n != len(p.b) {
			t.Errorf("varint(%d) = %d, %d bytes; want %d bytes", x, got, n, len(p.b))
		}
	}
	if _, n := varint([]byte{0x80, 0x80}); n != 0 {
		t.Error("truncated varint decoded")
	}
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated length-delimited field decoded")
	}
}
