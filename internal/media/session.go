package media

import (
	"sync"
	"time"

	"repro/internal/codec/g711"
	"repro/internal/mos"
	"repro/internal/rtp"
	"repro/internal/transport"
)

// SessionConfig configures one RTP session (one call leg's media).
type SessionConfig struct {
	// Remote is the peer's RTP address ("host:port") from SDP.
	Remote string
	// PayloadType is the negotiated RTP payload type (0 = PCMU).
	PayloadType uint8
	// SSRC identifies this sender. Zero picks a per-session default.
	SSRC uint32
	// FrameMs is the packetization interval (default 20 ms).
	FrameMs int
	// PayloadBytes sizes the non-synthesized frame for codecs other
	// than G.711 (e.g. 20 for G.729, 38 for iLBC). Zero keeps the
	// default 160-byte G.711 frame.
	PayloadBytes int
	// JitterDepth is the receive playout buffer depth (default 40 ms).
	JitterDepth time.Duration
	// SynthesizeTone, when true, generates a real 440 Hz µ-law tone
	// per frame. When false (the default for load experiments) a
	// precomputed frame is reused — indistinguishable on the wire for
	// capacity purposes, and far cheaper at hundreds of streams.
	SynthesizeTone bool
	// RTCPInterval enables periodic RTCP sender reports multiplexed on
	// the RTP socket (RFC 5761), giving the peer loss feedback and
	// this session a round-trip-time estimate. Zero disables RTCP;
	// the RFC 3550 default is 5 s.
	RTCPInterval time.Duration
	// Metrics, when non-nil, receives per-frame telemetry counts. The
	// bundle is shared by all sessions of an experiment.
	Metrics *Metrics
}

// staticFrame is the shared 20 ms payload for non-synthesized sessions.
var staticFrame = func() []byte {
	g := g711.NewToneGenerator(440, 0.5)
	return g.NextFrameMulaw(nil, 20)
}()

// Session is one bidirectional RTP media endpoint: it transmits a
// frame every FrameMs and feeds received packets through a jitter
// buffer into RFC 3550 receiver statistics.
type Session struct {
	mu    sync.Mutex
	tr    transport.Transport
	clock transport.Clock
	cfg   SessionConfig

	seq     uint16
	ts      uint32
	tsBase  uint32
	sent    uint64
	nextAt  time.Duration
	running bool
	timer   transport.RearmTimer
	tone    *g711.ToneGenerator
	frame   []byte

	// Scratch state reused every frame (guarded by mu): the outbound
	// packet header, its wire form, and the inbound RTP and RTCP parse
	// targets. The transport contract permits reusing the send buffer
	// because Send either copies (netsim) or writes synchronously (UDP).
	outPkt rtp.Packet
	inPkt  rtp.Packet
	rtcpIn rtp.RTCPInfo
	wire   []byte

	recv *rtp.Receiver
	jb   *JitterBuffer
	bad  uint64 // undecodable inbound datagrams

	onDigit    func(digit rune, duration time.Duration)
	digits     []rune
	dtmfSeen   bool
	dtmfSeenTS uint32

	rtcpTimer    transport.RearmTimer
	rtcpSent     uint64
	rtcpReceived uint64
	bytesSent    uint64
	lastRTT      time.Duration
	// peerFraction is the peer's most recent fraction-lost feedback
	// for our outgoing stream, from its report blocks.
	peerFraction float64
}

// NewSession creates a media session on a dedicated RTP transport.
// The session takes over the transport's receiver.
func NewSession(tr transport.Transport, clock transport.Clock, cfg SessionConfig) *Session {
	if cfg.FrameMs == 0 {
		cfg.FrameMs = 20
	}
	if cfg.JitterDepth == 0 {
		cfg.JitterDepth = 40 * time.Millisecond
	}
	if cfg.SSRC == 0 {
		cfg.SSRC = 0x5150
	}
	s := &Session{
		tr:    tr,
		clock: clock,
		cfg:   cfg,
		recv:  rtp.NewReceiver(),
		jb:    &JitterBuffer{Depth: cfg.JitterDepth},
	}
	if cfg.SynthesizeTone {
		s.tone = g711.NewToneGenerator(440, 0.5)
		s.frame = make([]byte, g711.SamplesPerFrame(cfg.FrameMs))
	} else if cfg.PayloadBytes > 0 && cfg.PayloadBytes != len(staticFrame) {
		// Non-G.711 codec: one reusable frame of the codec's size (the
		// content is synthetic either way; capacity cares about bytes).
		s.frame = make([]byte, cfg.PayloadBytes)
		for i := range s.frame {
			s.frame[i] = 0x55
		}
	}
	// Align the RTP timestamp base with the shared clock so receivers
	// can measure one-way transit (see rtp.Stats.MinTransit).
	s.tsBase = uint32(clock.Now() * rtp.ClockRate / time.Second)
	s.ts = s.tsBase
	s.timer = transport.NewRearmTimer(clock, s.onFrameTimer)
	tr.SetReceiver(s.handleInbound)
	return s
}

// onFrameTimer is the fixed pacing callback; keeping it a method means
// re-arming the frame timer never allocates a closure.
func (s *Session) onFrameTimer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		s.sendFrameLocked()
	}
}

// Start begins transmitting until Stop.
func (s *Session) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.nextAt = s.clock.Now()
	s.sendFrameLocked()
	if s.cfg.RTCPInterval > 0 {
		s.armRTCPLocked()
	}
}

// Stop halts transmission. The receive side stays live so trailing
// packets still count.
func (s *Session) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running = false
	s.timer.Stop()
	if s.rtcpTimer != nil {
		s.rtcpTimer.Stop()
	}
}

// Close stops the session and releases its transport.
func (s *Session) Close() error {
	s.Stop()
	return s.tr.Close()
}

func (s *Session) sendFrameLocked() {
	var payload []byte
	switch {
	case s.tone != nil:
		s.frame = s.tone.NextFrameMulaw(s.frame, s.cfg.FrameMs)
		payload = s.frame
	case s.frame != nil:
		payload = s.frame
	default:
		payload = staticFrame
	}
	s.outPkt = rtp.Packet{
		PayloadType: s.cfg.PayloadType,
		Marker:      s.sent == 0,
		Sequence:    s.seq,
		Timestamp:   s.ts,
		SSRC:        s.cfg.SSRC,
		Payload:     payload,
	}
	s.wire = s.outPkt.Marshal(s.wire[:0])
	s.tr.Send(s.cfg.Remote, s.wire)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.FramesSent.Inc()
	}
	s.bytesSent += uint64(s.outPkt.Size())
	s.seq++
	s.ts += uint32(g711.SamplesPerFrame(s.cfg.FrameMs))
	s.sent++
	// Pace against an absolute timeline so real-clock timer overhead
	// does not accumulate as drift between wall time and the RTP
	// timestamps (which would push every packet late at the peer's
	// jitter buffer). Virtual clocks fire exactly, so delay == frame.
	frame := time.Duration(s.cfg.FrameMs) * time.Millisecond
	s.nextAt += frame
	delay := s.nextAt - s.clock.Now()
	if delay < 0 {
		delay = 0
	}
	s.timer.Schedule(delay)
}

// armRTCPLocked schedules the next periodic report.
func (s *Session) armRTCPLocked() {
	if s.rtcpTimer == nil {
		s.rtcpTimer = transport.NewRearmTimer(s.clock, s.onRTCPTimer)
	}
	s.rtcpTimer.Schedule(s.cfg.RTCPInterval)
}

func (s *Session) onRTCPTimer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.sendRTCPLocked()
	s.rtcpTimer.Schedule(s.cfg.RTCPInterval)
}

// sendRTCPLocked emits a sender report with a reception block for the
// peer's stream, multiplexed on the RTP socket.
func (s *Session) sendRTCPLocked() {
	now := s.clock.Now()
	sr := rtp.SenderReport{
		SSRC:        s.cfg.SSRC,
		NTPTime:     rtp.NTPTime(now),
		RTPTime:     s.ts,
		PacketCount: uint32(s.sent),
		OctetCount:  uint32(s.bytesSent),
	}
	if s.recv.Snapshot().Received > 0 {
		sr.Blocks = append(sr.Blocks, s.recv.ReportBlock(now))
	}
	s.rtcpSent++
	s.tr.Send(s.cfg.Remote, sr.Marshal(nil))
}

func (s *Session) handleInbound(src string, data []byte) {
	now := s.clock.Now()
	if rtp.IsRTCP(data) {
		s.handleRTCP(now, data)
		return
	}
	s.mu.Lock()
	// Decode into the session's scratch packet: the consumers below
	// (receiver stats, jitter buffer, DTMF decode) read values only.
	if err := s.inPkt.Unmarshal(data); err != nil {
		s.bad++
		s.mu.Unlock()
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.BadDatagrams.Inc()
		}
		return
	}
	pkt := &s.inPkt
	if pkt.PayloadType == DTMFPayloadType {
		s.handleDTMFLocked(pkt)
		s.mu.Unlock()
		return
	}
	s.recv.Observe(now, pkt)
	s.jb.Arrive(now, pkt)
	s.mu.Unlock()
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.FramesReceived.Inc()
	}
}

func (s *Session) handleRTCP(now time.Duration, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := &s.rtcpIn
	if rtp.ParseRTCPInfo(data, info) != nil {
		s.bad++
		return
	}
	s.rtcpReceived++
	if info.Type == rtp.RTCPSenderReport {
		s.recv.NoteSR(now, info.SSRC, info.NTPTime)
	}
	for i := 0; i < info.NumBlocks(); i++ {
		b := info.Block(i)
		if b.SSRC != s.cfg.SSRC {
			continue // feedback about someone else's stream
		}
		s.peerFraction = float64(b.FractionLost) / 256
		if rtt := rtp.RoundTrip(now, b); rtt > 0 {
			s.lastRTT = rtt
		}
	}
}

// Report is the per-leg media quality summary a monitor derives.
type Report struct {
	Sent    uint64
	Stream  rtp.Stats
	Late    uint64
	BadData uint64
	// EffectiveLoss combines network loss with late discards — the
	// loss the listener experiences and the MOS input.
	EffectiveLoss float64
	// MOS is the E-model estimate for this leg (G.711).
	MOS float64
	// RTCP feedback state (zero when RTCPInterval is disabled).
	RTCPSent     uint64
	RTCPReceived uint64
	// RTT is the last RTCP-derived round-trip estimate.
	RTT time.Duration
	// PeerLoss is the peer's latest fraction-lost feedback for our
	// outgoing stream.
	PeerLoss float64
}

// Report computes the session's quality report using codec c.
func (s *Session) Report(c mos.Codec) Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recv.Snapshot()
	r := Report{
		Sent:         s.sent,
		Stream:       st,
		Late:         s.jb.Late(),
		BadData:      s.bad,
		RTCPSent:     s.rtcpSent,
		RTCPReceived: s.rtcpReceived,
		RTT:          s.lastRTT,
		PeerLoss:     s.peerFraction,
	}
	if st.Expected > 0 {
		r.EffectiveLoss = float64(uint64(st.Lost)+s.jb.Late()) / float64(st.Expected)
		if r.EffectiveLoss > 1 {
			r.EffectiveLoss = 1
		}
	}
	delay := st.MinTransit
	if delay < 0 {
		delay = 0
	}
	// Mouth-to-ear: network transit + jitter buffer + one frame of
	// packetization.
	delay += s.jb.Depth + time.Duration(s.cfg.FrameMs)*time.Millisecond
	r.MOS = mos.Score(c, mos.Metrics{
		OneWayDelay: delay,
		LossRatio:   r.EffectiveLoss,
		BurstRatio:  1,
	})
	return r
}

// SentPackets returns the number of RTP packets transmitted.
func (s *Session) SentPackets() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// ReceivedPackets returns the number of RTP packets received — cheap
// enough for watchdogs to poll, unlike a full Report.
func (s *Session) ReceivedPackets() uint64 {
	return s.recv.Snapshot().Received
}
