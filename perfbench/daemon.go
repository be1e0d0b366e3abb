package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/daemon"
	"repro/internal/dot11"
	"repro/internal/netmedium"
)

// The daemon workload's offered load: an open loop of associations
// from a pool of synthetic station MACs behind one UDP socket, plus an
// open loop of broadcast injections over one HTTP keep-alive
// connection.
//
// The hub sends every group frame once per learned station MAC, all to
// this one socket, so the MAC pool is the smallest that the association
// hold allows (assocRate × assocHold = 7.2 associations overlap) and
// the socket's receive buffer is large: a DTIM burst must not overflow
// it.
//
// The AP hands out AIDs sequentially and never reuses a released one,
// so one hided refuses every association after its 2007th. A run
// offers at most aidBudget associations to one instance (runDaemon
// rejects longer runs); ap.aid_high_water reports how close it came.
const (
	assocRate      = 90                    // associations due per second
	aidBudget      = 1900                  // associations one instance may be offered
	stationMACs    = 8                     // MACs the associations cycle through
	assocHold      = 80 * time.Millisecond // association lifetime; also the response deadline
	injectPortBase = 20000                 // inject k targets port injectPortBase+k
	flushWait      = 2 * time.Second       // bound on waiting for the last DTIM flush
	bootTimeout    = 5 * time.Second
	readBuffer     = 4 << 20 // generator socket receive buffer, bytes
)

// load is the rate of the AID-free requests beside the associations.
type load struct {
	injectRate int // POST /v1/inject per second, one frame each
	portRate   int // UDP Port Messages per second from the anchor station
}

// baseLoad is the load of the untraced run.
var baseLoad = load{injectRate: 10}

// tracedLoad is the load of the traced run. At baseLoad hided uses
// about 1 % of a core, and the kernel delivers a profile sample per
// ~4 ms of CPU, so a traced window would hold a few dozen samples and
// miss the cheap modules (netmedium framing, the daemon glue, the AP
// and its port table) altogether. The traced run therefore adds
// control-plane requests that use no AID: port updates from the
// always-associated anchor station (airlink → netmedium → ap →
// porttable, answered by an ACK) and more inject POSTs (control →
// daemon → ap → airlink). The association loop is unchanged.
var tracedLoad = load{injectRate: 500, portRate: 5000}

// apBSSID is the daemon's AP address.
var apBSSID = dot11.MACAddr{0x02, 0x1d, 0xe0, 0xff, 0x00, 0x01}

// stationBase anchors the synthetic MACs; the anchor station at offset
// 0 stays associated so the hub keeps this socket learned.
var stationBase = dot11.MACAddr{0x02, 0xbe, 0x0c, 0x00, 0x00, 0x00}

// assocRec is one association in flight.
type assocRec struct {
	due      time.Time
	answered bool
	ok       bool
	aid      dot11.AID
}

// liveDaemon is one in-process hided with the generator socket that
// speaks for every synthetic station.
type liveDaemon struct {
	d      *daemon.Daemon
	cancel context.CancelFunc
	done   chan error

	tr     *tracer
	pc     net.PacketConn
	air    net.Addr
	readWG sync.WaitGroup
	firstB chan struct{}

	mu        sync.Mutex
	pending   map[dot11.MACAddr]*assocRec
	aidOwner  map[dot11.AID]dot11.MACAddr
	latencies []float64 // ms from due to response, successful associations
	refused   int
	dupAID    int
	maxAID    dot11.AID // highest AID granted
	beacons   []beaconSeen
	injected  map[uint16]bool // ports whose frame arrived
	acks      int             // ACKs to the anchor station (port updates)
	badFrames int
}

// beaconSeen pairs a beacon's TSF with its arrival.
type beaconSeen struct {
	tsf uint64
	at  time.Time
}

// bootDaemon starts hided on loopback sockets and returns once the
// generator socket has heard its first beacon.
func bootDaemon(ctx context.Context, tr *tracer, seed uint64) (*liveDaemon, error) {
	d, err := daemon.New(daemon.Config{
		Listen:        "127.0.0.1:0",
		Control:       "127.0.0.1:0",
		BSSID:         apBSSID.String(),
		Scenario:      "none",
		Seed:          seed,
		DrainDeadline: daemon.Duration(time.Second),
	})
	if err != nil {
		return nil, err
	}
	d.SetLogf(func(string, ...any) {})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	if udp, ok := pc.(*net.UDPConn); ok {
		//lint:ignore errdrop the kernel caps the size at rmem_max; a smaller buffer still works at this load
		_ = udp.SetReadBuffer(readBuffer)
	}
	runCtx, cancel := context.WithCancel(ctx)
	l := &liveDaemon{
		d: d, cancel: cancel, done: make(chan error, 1),
		pc: pc, air: d.AirAddr(), firstB: make(chan struct{}), tr: tr,
		pending:  map[dot11.MACAddr]*assocRec{},
		aidOwner: map[dot11.AID]dot11.MACAddr{},
		injected: map[uint16]bool{},
	}
	label(ctx, spanDaemon, func(ctx context.Context) {
		go func() { l.done <- d.Run(runCtx) }()
	})
	l.readWG.Add(1)
	label(ctx, spanGen, func(context.Context) {
		go l.read()
	})
	if err := l.associate(stationBase, now()); err != nil {
		return nil, errors.Join(err, l.stop())
	}
	select {
	case <-l.firstB:
		return l, nil
	case <-time.After(bootTimeout):
		return nil, errors.Join(errors.New("daemon: no beacon within boot timeout"), l.stop())
	}
}

// stop drains the daemon, closes the generator socket and waits for
// every goroutine the boot started.
func (l *liveDaemon) stop() error {
	l.cancel()
	err := <-l.done
	cerr := l.pc.Close()
	l.readWG.Wait()
	if err != nil {
		return fmt.Errorf("daemon run: %w", err)
	}
	return cerr
}

// send frames one 802.11 frame as a netmedium datagram to the hub.
func (l *liveDaemon) send(raw []byte) error {
	msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: raw}.Marshal()
	if err != nil {
		return err
	}
	_, err = l.pc.WriteTo(msg, l.air)
	return err
}

// associate sends a HIDE association request for mac, due at due.
func (l *liveDaemon) associate(mac dot11.MACAddr, due time.Time) error {
	off, _ := dot11.AddrOffset(stationBase, mac)
	req := &dot11.AssocRequest{
		Header: dot11.MACHeader{Addr1: apBSSID, Addr2: mac, Addr3: apBSSID},
		SSID:   l.d.Config().SSID,
		Ports:  []uint16{uint16(5000 + off%16)},
	}
	raw, err := req.Marshal()
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.pending[mac] = &assocRec{due: due}
	l.mu.Unlock()
	return l.send(raw)
}

// disassociate settles mac's association and sends the
// disassociation; it reports whether the association had been
// answered by then.
func (l *liveDaemon) disassociate(mac dot11.MACAddr) (answered bool, err error) {
	l.mu.Lock()
	rec := l.pending[mac]
	delete(l.pending, mac)
	if rec != nil && rec.ok && l.aidOwner[rec.aid] == mac {
		delete(l.aidOwner, rec.aid)
	}
	l.mu.Unlock()
	d := &dot11.Disassoc{
		Header: dot11.MACHeader{Addr1: apBSSID, Addr2: mac, Addr3: apBSSID},
		Reason: dot11.ReasonStationLeft,
	}
	return rec != nil && rec.answered, l.send(d.Marshal())
}

// read serves the generator socket until it closes: pongs to liveness
// pings, and bookkeeping for beacons, association responses and
// injected broadcasts.
func (l *liveDaemon) read() {
	defer l.readWG.Done()
	buf := make([]byte, 8192)
	var lastGroup []byte // the last group datagram decoded
	for {
		n, from, err := l.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		// The hub writes each group frame once per learned MAC, back to
		// back and byte for byte; only the first copy is decoded.
		if bytes.Equal(buf[:n], lastGroup) {
			continue
		}
		arrived := now()
		m, err := netmedium.Unmarshal(buf[:n])
		if err != nil {
			l.bad()
			continue
		}
		switch m.Type {
		case netmedium.MsgPing:
			if pong, err := (netmedium.Message{Type: netmedium.MsgPong}).Marshal(); err == nil {
				//lint:ignore errdrop a lost pong looks like a lost packet; the hub tolerates misses
				_, _ = l.pc.WriteTo(pong, from)
			}
		case netmedium.MsgFrame:
			if len(m.Payload) >= dot11.MACHeaderLen && m.Payload[4]&1 == 1 { // Addr1 is a group address
				lastGroup = append(lastGroup[:0], buf[:n]...)
			}
			l.frame(m.Payload, arrived)
		}
	}
}

func (l *liveDaemon) bad() {
	l.mu.Lock()
	l.badFrames++
	l.mu.Unlock()
}

// frame handles the first copy of one frame off the air.
func (l *liveDaemon) frame(raw []byte, now time.Time) {
	switch dot11.Classify(raw) {
	case dot11.KindBeacon:
		b, err := dot11.UnmarshalBeacon(raw)
		if err != nil {
			l.bad()
			return
		}
		l.mu.Lock()
		if len(l.beacons) == 0 {
			close(l.firstB)
		}
		l.beacons = append(l.beacons, beaconSeen{tsf: b.Timestamp, at: now})
		l.mu.Unlock()
	case dot11.KindAssocResponse:
		r, err := dot11.UnmarshalAssocResponse(raw)
		if err != nil {
			l.bad()
			return
		}
		mac := r.Header.Addr1
		l.mu.Lock()
		defer l.mu.Unlock()
		rec := l.pending[mac]
		if rec == nil || rec.answered {
			return
		}
		rec.answered, rec.aid = true, r.AID
		switch {
		case r.Status != dot11.StatusSuccess:
			l.refused++
		case l.aidOwner[r.AID] != (dot11.MACAddr{}) && l.aidOwner[r.AID] != mac:
			l.dupAID++
		default:
			rec.ok = true
			l.aidOwner[r.AID] = mac
			l.maxAID = max(l.maxAID, r.AID)
			l.latencies = append(l.latencies, ms(now.Sub(rec.due)))
			l.tr.record(spanAssoc, spanGen, rec.due, now)
		}
	case dot11.KindACK:
		a, err := dot11.UnmarshalACK(raw)
		if err != nil {
			l.bad()
			return
		}
		if a.RA == stationBase {
			l.mu.Lock()
			l.acks++
			l.mu.Unlock()
		}
	case dot11.KindData:
		f, err := dot11.UnmarshalDataFrame(raw)
		if err != nil || !f.Header.Addr1.IsMulticast() {
			return
		}
		u, err := dot11.ParseUDP(f.Payload)
		if err != nil {
			l.bad()
			return
		}
		l.mu.Lock()
		l.injected[u.DstPort] = true
		l.mu.Unlock()
	}
}

// loadStats is what one phase of offered load produced.
type loadStats struct {
	cost                     cost
	assocs, injects, ports   int
	assocLatency             []float64
	genLate, injectRTT       []float64
	beaconLate               []float64
	refused, dupAID, noReply int
	postFailed, lost, bad    int
	unacked                  int
	aidHigh                  int
	cpuMarks                 []time.Duration  // process CPU at each second of the schedule
	counters                 map[string]int64 // daemon counter deltas over the phase
}

// requests is every request the phase made of hided.
func (s *loadStats) requests() int { return s.assocs + s.injects + s.ports }

// drive offers the open-loop load for dur: association i is due at
// start + i/assocRate and disassociates assocHold later; inject k is
// due at start + k/ld.injectRate, port update k at start +
// k/ld.portRate. It returns after the last disassociation, the last
// ACK and the last injected frame's DTIM flush.
func (l *liveDaemon) drive(ctx context.Context, tr *tracer, client *http.Client, nextPort *int, ld load, dur time.Duration) (*loadStats, error) {
	st := &loadStats{}
	counters0, err := l.d.Counters()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.latencies, l.refused, l.dupAID = l.latencies[:0], 0, 0
	beacons0, bad0, acks0 := len(l.beacons), l.badFrames, l.acks
	l.mu.Unlock()

	before := readUsage()
	start := now()
	var wg sync.WaitGroup
	var injErr, portErr error
	var wanted []uint16
	wg.Add(2)
	label(ctx, spanGen, func(ctx context.Context) {
		go func() {
			defer wg.Done()
			wanted, injErr = l.injectLoop(ctx, tr, client, start, ld.injectRate, dur, nextPort, st)
		}()
		go func() {
			defer wg.Done()
			st.ports, portErr = l.portLoop(start, ld.portRate, dur)
		}()
	})
	var genErr error
	label(ctx, spanGen, func(ctx context.Context) {
		genErr = l.assocLoop(start, dur, st)
	})
	wg.Wait()
	if err := errors.Join(genErr, injErr, portErr); err != nil {
		return nil, err
	}
	// Injected frames go out at the next DTIM; wait for the flush and
	// for the last ACK.
	flushBy := now().Add(flushWait)
	for {
		l.mu.Lock()
		st.lost = 0
		for _, p := range wanted {
			if !l.injected[p] {
				st.lost++
			}
		}
		st.unacked = st.ports - (l.acks - acks0)
		l.mu.Unlock()
		if (st.lost == 0 && st.unacked <= 0) || now().After(flushBy) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st.cost = readUsage().since(before)
	if st.counters, err = l.d.Counters(); err != nil {
		return nil, err
	}
	for k, v := range counters0 {
		st.counters[k] -= v
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	st.assocLatency = append([]float64(nil), l.latencies...)
	st.refused, st.dupAID, st.aidHigh = l.refused, l.dupAID, int(l.maxAID)
	st.bad = l.badFrames - bad0
	seen := l.beacons[beacons0:]
	if len(seen) > 0 {
		// Lateness of beacon k: its arrival offset from the AP's TSF,
		// less the smallest offset seen (the on-time baseline).
		offs := make([]float64, len(seen))
		minOff := 0.0
		for i, b := range seen {
			offs[i] = ms(b.at.Sub(start)) - float64(b.tsf)/1e3
			if i == 0 || offs[i] < minOff {
				minOff = offs[i]
			}
		}
		for _, o := range offs {
			st.beaconLate = append(st.beaconLate, o-minOff)
		}
	}
	return st, nil
}

// assocLoop sends the association schedule and each disassociation
// assocHold after its association was due.
func (l *liveDaemon) assocLoop(start time.Time, dur time.Duration, st *loadStats) error {
	n := int(dur.Seconds() * assocRate)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / assocRate * float64(time.Second))) }
	mac := func(i int) dot11.MACAddr { return dot11.AddrAdd(stationBase, 1+i%stationMACs) }
	next, leave := 0, 0
	for leave < n {
		if next < n && !due(next).After(due(leave).Add(assocHold)) {
			at := due(next)
			time.Sleep(at.Sub(now()))
			if next%assocRate == 0 {
				st.cpuMarks = append(st.cpuMarks, processCPU())
			}
			st.genLate = append(st.genLate, ms(now().Sub(at)))
			if err := l.associate(mac(next), at); err != nil {
				return err
			}
			next++
			st.assocs++
			continue
		}
		at := due(leave).Add(assocHold)
		time.Sleep(at.Sub(now()))
		answered, err := l.disassociate(mac(leave))
		if err != nil {
			return err
		}
		if !answered {
			st.noReply++
		}
		leave++
	}
	return nil
}

// portTick is how often portLoop sends the port updates that fell due.
const portTick = time.Millisecond

// portLoop sends UDP Port Messages from the anchor station, each
// reporting one of its 16 port sets, at rate per second; it returns how
// many it sent.
func (l *liveDaemon) portLoop(start time.Time, rate int, dur time.Duration) (int, error) {
	n := int(dur.Seconds() * float64(rate))
	sent := 0
	for sent < n {
		time.Sleep(portTick)
		due := min(n, int(now().Sub(start).Seconds()*float64(rate)))
		for ; sent < due; sent++ {
			m := &dot11.UDPPortMessage{
				Header: dot11.MACHeader{Addr1: apBSSID, Addr2: stationBase, Addr3: apBSSID},
				Ports:  []uint16{uint16(5000 + sent%16)},
			}
			raw, err := m.Marshal()
			if err != nil {
				return sent, err
			}
			if err := l.send(raw); err != nil {
				return sent, err
			}
		}
	}
	return sent, nil
}

// injectLoop posts one single-frame inject per tick over the keep-alive
// connection and returns the ports the daemon accepted.
func (l *liveDaemon) injectLoop(ctx context.Context, tr *tracer, client *http.Client, start time.Time, rate int, dur time.Duration, nextPort *int, st *loadStats) ([]uint16, error) {
	url := "http://" + l.d.ControlAddr().String() + "/v1/inject"
	n := int(dur.Seconds() * float64(rate))
	var wanted []uint16
	for k := 0; k < n; k++ {
		at := start.Add(time.Duration(float64(k) / float64(rate) * float64(time.Second)))
		time.Sleep(at.Sub(now()))
		port := uint16(injectPortBase + *nextPort)
		*nextPort++
		body, err := json.Marshal(control.InjectRequest{Port: port, Count: 1})
		if err != nil {
			return nil, err
		}
		sent := now()
		ok := post(ctx, client, url, body)
		done := now()
		tr.record(spanInject, spanGen, sent, done)
		st.injectRTT = append(st.injectRTT, ms(done.Sub(sent)))
		st.injects++
		if !ok {
			st.postFailed++
			continue
		}
		wanted = append(wanted, port)
	}
	return wanted, nil
}

// post sends one inject request and reports whether the daemon
// accepted it.
func post(ctx context.Context, client *http.Client, url string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	//lint:ignore errdrop the body is only read; a close error cannot change the verdict
	defer resp.Body.Close()
	var reply struct {
		OK bool `json:"ok"`
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return json.Unmarshal(data, &reply) == nil && reply.OK
}

// cpuPerAssoc is the median over one-second windows of the process
// CPU per association: the load is fixed, so a window hit by a host
// hiccup is an outlier, not a trend.
func (s *loadStats) cpuPerAssoc() float64 {
	var per []float64
	for i := 1; i < len(s.cpuMarks); i++ {
		per = append(per, ms(s.cpuMarks[i]-s.cpuMarks[i-1])/assocRate)
	}
	if len(per) == 0 {
		return perOp(ms(s.cost.cpu), s.assocs)
	}
	return median(per)
}

// add merges another phase's figures into s.
func (s *loadStats) add(o *loadStats) {
	s.cost.add(o.cost)
	s.assocs += o.assocs
	s.injects += o.injects
	s.ports += o.ports
	s.assocLatency = append(s.assocLatency, o.assocLatency...)
	s.genLate = append(s.genLate, o.genLate...)
	s.injectRTT = append(s.injectRTT, o.injectRTT...)
	s.beaconLate = append(s.beaconLate, o.beaconLate...)
	s.aidHigh = max(s.aidHigh, o.aidHigh)
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	for k, v := range o.counters {
		s.counters[k] += v
	}
}
