package core

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/netmedium"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

func TestReplayRealtimeRejectsBadSpeed(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, time.Second, 1)
	if err := n.ReplayRealtime(context.Background(), tr, 0); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestReplayRealtimeMatchesVirtualReplay(t *testing.T) {
	tr := shortTrace(t, 10*time.Second, 2)

	run := func(realtime bool) station.Stats {
		n, err := NewNetwork(NetworkConfig{HIDE: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.AddStation(station.HIDE, []uint16{5353})
		if err != nil {
			t.Fatal(err)
		}
		if realtime {
			// 10 s of virtual time in ~10 ms of wall time.
			if err := n.ReplayRealtime(context.Background(), tr, 1000); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := n.Replay(tr); err != nil {
				t.Fatal(err)
			}
		}
		return st.Stats()
	}

	virtual := run(false)
	realtime := run(true)
	if virtual != realtime {
		t.Fatalf("realtime run diverged from virtual run:\n  virtual  %+v\n  realtime %+v", virtual, realtime)
	}
}

func TestReplayRealtimeCancellation(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, time.Hour, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Speed 1: an hour of virtual time would take an hour; cancellation
	// must interrupt it quickly.
	start := time.Now()
	err = n.ReplayRealtime(ctx, tr, 1)
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation took too long")
	}
}

func TestLiveMonitorStreamsAndInjects(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.AddStation(station.HIDE, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mon := n.ServeMonitor(pc)
	defer mon.Close()

	tap, err := netmedium.Dial(mon.Server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	deadline := time.Now().Add(10 * time.Second)
	for mon.Server.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tap never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// Inject a useful broadcast frame via the tap, then run. Poll the
	// server's inject counter rather than sleeping: the replay below
	// only drains injects that have already landed.
	if err := tap.Inject(netmedium.InjectRequest{DstPort: 5353, PayloadSize: 32}); err != nil {
		t.Fatal(err)
	}
	for mon.Server.Stats().Injects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("inject never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	tr := shortTrace(t, 3*time.Second, 1)
	if err := n.ReplayRealtime(context.Background(), tr, 2000); err != nil {
		t.Fatal(err)
	}

	// The tap observed beacons (and data); find at least one of each.
	sawBeacon, sawData := false, false
	for !sawBeacon || !sawData {
		ev, err := tap.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			break
		}
		switch dot11.Classify(ev.Raw) {
		case dot11.KindBeacon:
			sawBeacon = true
		case dot11.KindData:
			sawData = true
		}
	}
	if !sawBeacon {
		t.Error("tap never saw a beacon")
	}
	if !sawData {
		t.Error("tap never saw a data frame")
	}
	// The injected frame reached the station (its port matched).
	if st.Stats().GroupUseful == 0 {
		t.Error("injected frame never received by the station")
	}
	if mon.Server.Stats().Injects != 1 {
		t.Errorf("Injects = %d, want 1", mon.Server.Stats().Injects)
	}
}

func TestCaptureClosesTheLoop(t *testing.T) {
	// Generate → simulate → capture to pcap → re-import: the re-imported
	// broadcast trace must contain exactly the group frames the AP sent,
	// at their on-air times.
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddStation(station.HIDE, []uint16{5353}); err != nil {
		t.Fatal(err)
	}
	cap := n.StartCapture()
	tr := shortTrace(t, 2*time.Minute, 2)
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}
	if cap.Frames() == 0 {
		t.Fatal("capture recorded nothing")
	}

	var buf bytes.Buffer
	if err := cap.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadPCAP(&buf, trace.PCAPOptions{Name: "capture"})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the group data frames survive re-import (beacons, ACKs,
	// port messages, assoc frames are skipped).
	if len(got.Frames) != n.AP.Stats().GroupFramesSent {
		t.Fatalf("re-imported %d frames, AP sent %d group frames",
			len(got.Frames), n.AP.Stats().GroupFramesSent)
	}
	// Same port multiset as the source trace.
	want := tr.PortHistogram()
	have := got.PortHistogram()
	for p, n := range want {
		if have[p] != n {
			t.Fatalf("port %d: %d frames re-imported, want %d", p, have[p], n)
		}
	}
	// The re-imported trace drives the analytic pipeline end to end.
	r, err := EvaluateFractionContext(context.Background(), got, 0.10, energy.NexusOne, policy.ReceiveAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.TotalJ() <= 0 {
		t.Fatal("re-imported trace produced no energy")
	}
}
