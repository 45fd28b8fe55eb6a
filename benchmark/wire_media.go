package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mos"
	"repro/internal/rtp"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// wire_media: concurrent calls ramped up slowly, then a steady window
// of bidirectional paced G.711 through the server's relay — every leg
// sends one 172-byte RTP packet each 20 ms and an RTCP sender report
// each 5 s — then teardown. Open loop: the pacing never waits for the
// server. Each payload starts with its send time, so the generator,
// which is both ends, reads the one-way delay through the relay off
// one clock.
const (
	mediaCalls    = 60
	mediaRampRate = 4 // calls/s; see the ramp note in README.md
	frameInterval = 20 * time.Millisecond
	frameSamples  = 160 // G.711 samples, and payload bytes, per frame
	srInterval    = 5 * time.Second
	// jitterBuffer is the playout delay the generator's E-model score
	// assumes. Packets later than it are counted and, past 1 % of the
	// window, flag the run's timing invalid — but they are not scored as
	// loss: this sandbox's hypervisor freezes every process for 50-600 ms
	// a few times a minute, all 120 streams are late together when it
	// does, and a score that failed the run on it would say nothing
	// about pbxd. Packets pbxd loses or drops fail their own checks.
	jitterBuffer = 60 * time.Millisecond
	mediaSettle  = 300 * time.Millisecond
)

// epoch is the one clock every send stamp and arrival is read from.
var epoch = time.Now()

// mediaWindow is the steady window in epoch nanoseconds; a packet
// belongs to the window if it was sent inside it.
type mediaWindow struct{ start, end atomic.Int64 }

func (w *mediaWindow) contains(stamp int64) bool {
	s := w.start.Load()
	return s != 0 && stamp >= s && stamp < w.end.Load()
}

// mediaLeg is one party of one call: a UDP socket that sends paced RTP
// to the relay port the server advertised and receives the other
// party's stream back from it.
type mediaLeg struct {
	tr     *transport.UDPTransport
	remote string
	win    *mediaWindow

	// Send side: touched by the side's pacer only.
	phase   time.Duration
	ssrc    uint32
	seq     uint16
	ts      uint32
	nextDue time.Time
	nextSR  time.Time
	sent    uint32
	sentInW int

	// Receive side: written by the socket's read loop.
	mu       sync.Mutex
	recv     *rtp.Receiver
	recvInW  int             // sent inside the window (loss accounting)
	arrived  int             // arrived inside the window (delivered rate)
	delays   []time.Duration // one-way, packets sent inside the window
	minDelay time.Duration
	tooLate  int // arrived after the jitter buffer would have played them
	rtcpIn   int
	bad      int
}

func (l *mediaLeg) receive(_ string, data []byte) {
	now := time.Since(epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	if rtp.IsRTCP(data) {
		l.rtcpIn++
		return
	}
	var p rtp.Packet
	if p.Unmarshal(data) != nil || len(p.Payload) < 8 {
		l.bad++
		return
	}
	stamp := int64(binary.BigEndian.Uint64(p.Payload))
	delay := now - time.Duration(stamp)
	l.recv.Observe(now, &p)
	if l.minDelay == 0 || delay < l.minDelay {
		l.minDelay = delay
	}
	if delay > jitterBuffer {
		l.tooLate++
	}
	if l.win.contains(int64(now)) {
		l.arrived++
	}
	if l.win.contains(stamp) {
		l.recvInW++
		l.delays = append(l.delays, delay)
	}
}

// legHeap orders a side's legs by their next due time.
type legHeap []*mediaLeg

func (h legHeap) Len() int           { return len(h) }
func (h legHeap) Less(i, j int) bool { return h[i].nextDue.Before(h[j].nextDue) }
func (h legHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *legHeap) Push(x any)        { *h = append(*h, x.(*mediaLeg)) }
func (h *legHeap) Pop() any {
	old := *h
	l := old[len(old)-1]
	*h = old[:len(old)-1]
	return l
}

// mediaSide is all the legs of one party (uac or uas) and the single
// goroutine that paces them. Legs arrive from the phone's SIP receive
// path as calls are established.
type mediaSide struct {
	win *mediaWindow

	mu      sync.Mutex
	joining []*mediaLeg
	all     []*mediaLeg
	err     error

	legs legHeap
	late []time.Duration
	quit chan struct{}
	done chan struct{}
}

func newMediaSide(win *mediaWindow) *mediaSide {
	s := &mediaSide{win: win, quit: make(chan struct{}), done: make(chan struct{})}
	go s.pace()
	return s
}

// join opens the socket the call's SDP advertised and queues the leg
// for the pacer. phase places the leg's frames within the 20 ms frame
// interval.
func (s *mediaSide) join(c *sip.Call, ssrc uint32, capacity int, phase time.Duration) {
	mi := c.Media()
	tr, err := transport.ListenUDPConfig(fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort),
		transport.UDPConfig{DisableBatch: true}) // one 50 pps stream per socket: nothing to batch
	if err != nil {
		s.mu.Lock()
		s.err = fmt.Errorf("media bind: %w", err)
		s.mu.Unlock()
		return
	}
	l := &mediaLeg{
		tr: tr, remote: fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), win: s.win,
		ssrc: ssrc, recv: rtp.NewReceiver(), delays: make([]time.Duration, 0, capacity),
		phase: phase,
	}
	tr.SetReceiver(l.receive)
	s.mu.Lock()
	s.joining = append(s.joining, l)
	s.all = append(s.all, l)
	s.mu.Unlock()
}

func (s *mediaSide) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.all)
}

// pace is the side's one sending goroutine: it sleeps until the
// earliest due time among its legs, sends that leg's packet, and moves
// the leg's due time on by exactly one frame, so a late wake-up is
// caught up, not carried forward.
func (s *mediaSide) pace() {
	defer close(s.done)
	payload := make([]byte, frameSamples)
	for i := range payload {
		payload[i] = 0xd5 // A-law silence; the first 8 bytes are overwritten by the stamp
	}
	buf := make([]byte, 0, rtp.HeaderLen+frameSamples)
	var sr []byte
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		s.mu.Lock()
		for _, l := range s.joining {
			// First frame at the leg's phase of the next frame interval,
			// counted from the epoch: where a leg's frames fall does not
			// depend on when its call happened to be answered.
			frames := (time.Since(epoch)-l.phase)/frameInterval + 1
			l.nextDue = epoch.Add(frames*frameInterval + l.phase)
			l.nextSR = l.nextDue.Add(srInterval)
			heap.Push(&s.legs, l)
		}
		s.joining = s.joining[:0]
		s.mu.Unlock()
		if len(s.legs) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		l := s.legs[0]
		// Wake at least every 5 ms so joins and quit are seen promptly.
		if wait := time.Until(l.nextDue); wait > 5*time.Millisecond {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		late := sleepUntil(l.nextDue)
		stamp := int64(time.Since(epoch))
		binary.BigEndian.PutUint64(payload, uint64(stamp))
		pkt := rtp.Packet{PayloadType: 0, Sequence: l.seq, Timestamp: l.ts, SSRC: l.ssrc, Payload: payload}
		buf = pkt.Marshal(buf[:0])
		l.tr.Send(l.remote, buf)
		l.seq++
		l.ts += frameSamples
		l.sent++
		if s.win.contains(stamp) {
			l.sentInW++
			s.late = append(s.late, late)
		}
		if !l.nextDue.Before(l.nextSR) {
			report := rtp.SenderReport{
				SSRC: l.ssrc, NTPTime: rtp.NTPTime(time.Duration(stamp)), RTPTime: l.ts,
				PacketCount: l.sent, OctetCount: l.sent * frameSamples,
			}
			sr = report.Marshal(sr[:0])
			l.tr.Send(l.remote, sr)
			l.nextSR = l.nextSR.Add(srInterval)
		}
		l.nextDue = l.nextDue.Add(frameInterval)
		heap.Fix(&s.legs, 0)
	}
}

// stop ends the pacer and waits for it.
func (s *mediaSide) stop() {
	close(s.quit)
	<-s.done
}

func (s *mediaSide) closeSockets() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.all {
		l.tr.Close()
	}
}

func runWireMedia(srv server, ag *agents, p params) (*outcome, error) {
	o := newOutcome("wire_media", p)
	n := p.scaled(mediaCalls)
	perLeg := int(p.seconds/frameInterval.Seconds()) + 64
	win := &mediaWindow{}
	uacSide, uasSide := newMediaSide(win), newMediaSide(win)
	sides := []*mediaSide{uacSide, uasSide}
	stopped := false
	stopPacers := func() {
		if !stopped {
			stopped = true
			uacSide.stop()
			uasSide.stop()
		}
	}
	defer func() {
		stopPacers()
		uacSide.closeSockets()
		uasSide.closeSockets()
	}()

	// SSRCs come from the seed, so the streams of a run are the same
	// streams on every host.
	var ssrc atomic.Uint32
	ssrc.Store(uint32(p.seed)<<8 | 1)
	// The 2n legs' frames are spread evenly over the frame interval —
	// the k-th call's caller at slot 2k, its callee at slot 2k+1 — so
	// the server sees one packet every 20 ms / 2n, the same on every
	// run: how packets bunch decides how many the server handles per
	// wake-up, and so its cost per packet.
	slot := frameInterval / time.Duration(2*n)
	var uasJoined atomic.Int64
	ag.uas.Sync(func() {
		ag.uas.OnIncoming = func(c *sip.Call) {
			c.OnEstablished = func(c *sip.Call) {
				k := uasJoined.Add(1) - 1
				uasSide.join(c, ssrc.Add(1), perLeg, time.Duration(2*k+1)*slot)
			}
		}
	})

	idle, err := takeReading(srv, false)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()

	// Ramp: one call every 1/mediaRampRate seconds on an absolute
	// schedule; each starts its media the moment it is established.
	var (
		mu          sync.Mutex
		calls       []*sip.Call
		ended       atomic.Int64
		established atomic.Int64
		refused     atomic.Int64
	)
	t0 := time.Now()
	for _, off := range uniformSchedule(mediaRampRate, n) {
		sleepUntil(t0.Add(off))
		ag.uac.InviteWithHandlers("uas", nil,
			func(c *sip.Call) {
				k := established.Add(1) - 1
				mu.Lock()
				calls = append(calls, c)
				mu.Unlock()
				uacSide.join(c, ssrc.Add(1), perLeg, time.Duration(2*k)*slot)
			},
			func(c *sip.Call) {
				if c.Cause() != sip.EndCompleted || c.RejectStatus() != sip.StatusOK {
					refused.Add(1)
				}
				ended.Add(1)
			})
	}
	deadline := time.Now().Add(drainTimeout)
	for (uacSide.count() < n || uasSide.count() < n) && ended.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, s := range sides {
		s.mu.Lock()
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return o, err
		}
	}
	if uacSide.count() < n || uasSide.count() < n {
		return o, fmt.Errorf("wire_media: only %d/%d calls established (%d refused)", established.Load(), n, refused.Load())
	}
	time.Sleep(mediaSettle)

	// Steady window.
	before, err := takeReading(srv, false)
	if err != nil {
		return nil, err
	}
	start := time.Since(epoch)
	win.end.Store(int64(start + p.dur(1)))
	win.start.Store(int64(start))
	sleepUntil(epoch.Add(start + p.dur(1)))
	after, err := takeReading(srv, true)
	if err != nil {
		return nil, err
	}
	// Stop sending, then let the window's last packets arrive: a moment
	// on a quiet host, as long as it takes (within the drain timeout)
	// when the host froze generator and server with packets between them.
	stopPacers()
	inFlight := func() int {
		n := 0
		for _, s := range sides {
			for _, l := range s.all {
				l.mu.Lock()
				n += l.sentInW - l.recvInW
				l.mu.Unlock()
			}
		}
		return n
	}
	for deadline := time.Now().Add(drainTimeout); inFlight() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	gen := selfCPU().sub(gen0)

	// Teardown: the uac hangs every call up.
	mu.Lock()
	for _, c := range calls {
		ag.uac.Hangup(c)
	}
	mu.Unlock()
	deadline = time.Now().Add(drainTimeout)
	for ended.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	uacSide.closeSockets()
	uasSide.closeSockets()
	awaitIdle(srv)
	final, err := takeReading(srv, true)
	if err != nil {
		return nil, err
	}

	// Books.
	var sent, received, arrived, tooLate, bad, rtcpIn int
	var delays []time.Duration
	var late []time.Duration
	var jitters, floors []float64
	mosMin := 5.0
	for _, s := range sides {
		late = append(late, s.late...)
		for _, l := range s.all {
			l.mu.Lock()
			sent += l.sentInW
			received += l.recvInW
			arrived += l.arrived
			tooLate += l.tooLate
			bad += l.bad
			rtcpIn += l.rtcpIn
			delays = append(delays, l.delays...)
			st := l.recv.Snapshot()
			jitters = append(jitters, float64(st.Jitter)/float64(time.Millisecond))
			if len(l.delays) > 0 {
				floors = append(floors, float64(slices.Min(l.delays))/float64(time.Microsecond))
			}
			loss := 0.0
			if st.Expected > 0 && st.Lost > 0 { // Lost goes negative on a duplicate
				loss = float64(st.Lost) / float64(st.Expected)
			}
			score := mos.Score(mos.G711PLC, mos.Metrics{
				OneWayDelay: l.minDelay + jitterBuffer + frameInterval, LossRatio: loss, BurstRatio: 1,
			})
			if score < mosMin {
				mosMin = score
			}
			l.mu.Unlock()
		}
	}
	lost := sent - received
	if lost < 0 {
		lost = 0
	}
	o.Attempted = sent + n
	o.Failed = lost + int(refused.Load()) + n - int(ended.Load())
	if received == 0 {
		return o, fmt.Errorf("wire_media: no packet came back out of %d sent", sent)
	}
	secs := p.dur(1).Seconds()
	o.Metrics["throughput_per_s"] = float64(arrived) / secs
	// The tails and the all-packet median are per-layer figures; the
	// gated latency is the relay's base delay, the median over the legs of
	// each leg's fastest packet. At this packet rate the server's reading
	// thread and the generator's are asleep when most packets arrive, so
	// the median packet's delay (80 µs) is two wake-ups of a halted vCPU —
	// the hypervisor's figure, which moves by half between runs — on top
	// of the 10 µs the relay path takes when both are awake.
	o.latencies(delays)
	o.Layers["media.relay_delay_p50_us"] = o.Metrics["latency_p50_us"]
	o.Samples["media.relay_delay_p50_us"] = len(delays)
	o.Metrics["latency_p50_us"] = stats.Percentile(floors, 50)
	o.Samples["latency_p50_us"] = len(floors)
	cpu := after.cpu.sub(before.cpu)
	o.Metrics["cpu_us_per_op"] = float64(cpu.total().Microseconds()) / float64(received)
	o.Metrics["maxrss_mb"] = final.mem.hwmKB / 1024

	o.lateness(late)
	o.Layers["loadgen.cpu_s"] = gen.total().Seconds()
	o.serverLayers(before, after)
	o.Layers["pbxd.rss_kb_per_live_call"] = (after.mem.rssKB - idle.mem.rssKB) / float64(n)
	o.Layers["media.mos_min"] = mosMin
	o.Layers["media.jitter_p99_ms"] = stats.Percentile(jitters, 99)
	o.Samples["media.jitter_p99_ms"] = len(jitters)

	// Over the whole run (ramp and teardown included) the server must
	// have dropped nothing: its CPU model is synthetic, and a packet it
	// sheds makes the run invalid, not slow.
	whole := final.prom.delta(idle.prom)
	o.equal("server: relay dropped packets", whole.sum("rtp_relay_dropped_total"), 0)
	o.equal("generator: RTP packets sent in window = received back", float64(received), float64(sent))
	o.equal("generator: malformed RTP received", float64(bad), 0)
	o.check("generator: RTCP sender reports relayed", p.dur(1) < srInterval || rtcpIn > 0, "%d received", rtcpIn)
	o.check("generator: media.mos_min >= 4.0", mosMin >= 4.0, "%.3f", mosMin)
	if tooLate*100 > sent {
		o.Invalid = append(o.Invalid, fmt.Sprintf("%d of %d packets arrived later than the %v playout buffer", tooLate, sent, jitterBuffer))
	}
	o.equal("server: INVITEs = calls placed", whole.sum("pbx_invites_total"), float64(n))
	o.equal("server: calls completed = calls placed", whole.sum("pbx_calls_total", "outcome", "completed"), float64(n))
	o.equal("generator: calls ended cleanly", float64(ended.Load()-refused.Load()), float64(n))
	inWindow := after.prom.delta(before.prom)
	o.equal("server: SIP messages in the steady window", inWindow.sum("sip_messages_total"), 0)
	o.quiesced(srv, final.prom, p)
	return o, nil
}
