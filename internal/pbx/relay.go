package pbx

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/rtp"
	"repro/internal/sdp"
	"repro/internal/transport"
)

// relay is the per-call RTP media path through the PBX: two dedicated
// ports, one facing each party. Every packet is observed (for
// VoIPmonitor-style per-direction statistics), subjected to the
// overload drop probability of the CPU model, and forwarded out the
// opposite port — the paper's "the Asterisk PBX handles all the VoIP
// messages encapsulated by the RTP protocol".
type relay struct {
	s *Server

	aPort, bPort int
	aTr, bTr     transport.Transport

	// mu guards the mutable fields below: over real UDP the transport's
	// reader races the signalling goroutine that learns media addresses
	// and tears the call down.
	mu sync.Mutex
	// Party media addresses, learned from SDP, in the form a transport
	// reports a datagram's source in (see mediaAddr): where the party's
	// media is sent, and the only address it is accepted from.
	callerAddr string
	calleeAddr string

	// Per-direction QoS sensors (caller→callee and callee→caller):
	// RFC 3550 receiver statistics plus RTCP round-trip tracking,
	// folded into a measured E-model MOS at teardown.
	fromCaller *media.QoSMeter
	fromCallee *media.QoSMeter

	closed bool

	// The relay's counts: written under mu as packets pass, read
	// without it — the server's pull families read them under s.mu,
	// which overloadDrop takes under mu — and folded into Counters at
	// teardown (foldLocked).
	forwarded  atomic.Uint64 // RTP packets sent on
	bytes      atomic.Uint64 // bytes of those packets, as sent
	dropped    atomic.Uint64 // RTP packets shed by the overload model
	transcoded atomic.Uint64 // RTP packets rewritten between codecs
	rtcp       atomic.Uint64 // RTCP reports sent on

	// Negotiated bridge codecs, set once the B leg answered. aPT/bPT
	// are the audio payload types on the caller- and callee-facing
	// legs; when transcode is set the relay rewrites matching audio
	// packets to the opposite leg's codec. All presets share a 20 ms
	// ptime and an 8 kHz RTP clock, so sequence numbers, timestamps and
	// SSRC carry across a rewrite unchanged.
	transcode bool
	aPT, bPT  uint8
	// Synthetic out-leg frames plus reused marshal buffers, sized once
	// at negotiation so the per-packet rewrite stays alloc-free.
	toCalleePayload []byte
	toCallerPayload []byte
	toCalleeBuf     []byte
	toCallerBuf     []byte

	// aCallID names the call in the flight recorder's first-RTP event.
	aCallID string

	// scratch is the per-packet parse target, guarded by mu; the
	// observers read values only, so nothing aliases it after forward
	// returns.
	scratch rtp.Packet
}

// newRelay opens the two relay ports for a call whose caller offered
// the given SDP.
func (s *Server) newRelay(br *bridge, offer *sdp.Session) (*relay, error) {
	if s.factory == nil {
		return nil, fmt.Errorf("pbx: RelayRTP enabled without a transport factory")
	}
	s.mu.Lock()
	aPort := s.allocRelayPortLocked()
	bPort := s.allocRelayPortLocked()
	s.mu.Unlock()

	aTr, err := s.factory(aPort)
	if err != nil {
		s.mu.Lock()
		s.freeRelayPortLocked(aPort)
		s.freeRelayPortLocked(bPort)
		s.mu.Unlock()
		return nil, err
	}
	bTr, err := s.factory(bPort)
	if err != nil {
		aTr.Close()
		s.mu.Lock()
		s.freeRelayPortLocked(aPort)
		s.freeRelayPortLocked(bPort)
		s.mu.Unlock()
		return nil, err
	}

	var callID string
	if br != nil { // relay-only benches exercise the path without a bridge
		callID = br.cdr.CallID
	}
	r := &relay{
		s:          s,
		aPort:      aPort,
		bPort:      bPort,
		aTr:        aTr,
		bTr:        bTr,
		aCallID:    callID,
		callerAddr: mediaAddr(offer.Host, offer.Port),
		fromCaller: media.NewQoSMeter(mos.G711PLC),
		fromCallee: media.NewQoSMeter(mos.G711PLC),
	}
	r.fromCaller.SetRemoteClocks(s.cfg.RemoteMediaClocks)
	r.fromCallee.SetRemoteClocks(s.cfg.RemoteMediaClocks)

	// Caller RTP arrives on the A port and leaves toward the callee
	// from the B port, and vice versa: one send per forwarded packet.
	aTr.SetReceiver(func(src string, data []byte) {
		r.forward(src, data, r.fromCaller, bTr.Send, false)
	})
	bTr.SetReceiver(func(src string, data []byte) {
		r.forward(src, data, r.fromCallee, aTr.Send, true)
	})
	return r, nil
}

// mediaAddr is the address an SDP named, spelled the way transports
// spell a datagram's source — canonical for an IP literal, as given for
// a netsim host name — so that checking a packet's source is one string
// compare.
func mediaAddr(host string, port int) string {
	addr := net.JoinHostPort(host, strconv.Itoa(port))
	if ap, err := netip.ParseAddrPort(addr); err == nil {
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()).String()
	}
	return addr
}

// setBridgeCodecs arms the relay with the negotiated bridge outcome.
// For transcoding bridges it preallocates the per-direction synthetic
// frames (the model does not run real DSPs; what matters to capacity
// is the packet size and the CPU charge) and the marshal buffers the
// rewrite reuses.
func (r *relay) setBridgeCodecs(br codec.Bridge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aPT = uint8(br.APayloadType)
	r.bPT = uint8(br.BPayloadType)
	r.transcode = br.Transcode && br.APayloadType != br.BPayloadType
	a, aKnown := codec.ByPayloadType(br.APayloadType)
	b, bKnown := codec.ByPayloadType(br.BPayloadType)
	// Each direction's measured MOS scores with the codec that leg
	// actually carries: the caller encodes with A, the callee with B.
	if aKnown {
		r.fromCaller.SetProfile(a.MOS())
	}
	if bKnown {
		r.fromCallee.SetProfile(b.MOS())
	}
	if !r.transcode {
		return
	}
	r.toCalleePayload = syntheticFrame(b.PayloadBytes)
	r.toCallerPayload = syntheticFrame(a.PayloadBytes)
	r.toCalleeBuf = make([]byte, 0, rtp.HeaderLen+b.PayloadBytes)
	r.toCallerBuf = make([]byte, 0, rtp.HeaderLen+a.PayloadBytes)
}

// syntheticFrame builds one out-codec frame of the right size.
func syntheticFrame(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = 0x55
	}
	return p
}

// setCalleeMedia records where the callee listens, once its SDP answer
// arrives.
func (r *relay) setCalleeMedia(host string, port int) {
	r.mu.Lock()
	r.calleeAddr = mediaAddr(host, port)
	r.mu.Unlock()
}

// forward observes and forwards one RTP packet that arrived from src,
// applying the overload drop model. toCaller selects the output
// direction. Media is accepted only from the address the sending
// party's SDP named: anything else that finds the port is counted and
// goes no further — it is not shown to the QoS sensor either.
func (r *relay) forward(src string, data []byte, obs *media.QoSMeter, out func(string, []byte), toCaller bool) {
	r.mu.Lock()
	from, dst := r.callerAddr, r.calleeAddr
	if toCaller {
		from, dst = dst, from
	}
	if r.closed || dst == "" {
		r.mu.Unlock()
		return
	}
	if src != from {
		r.mu.Unlock()
		r.s.rejectedPkts.Add(1)
		return
	}
	now := r.s.ep.Clock().Now()
	if rtp.IsRTCP(data) {
		// RTCP is control traffic: forward it unconditionally (it is
		// exempt from the overload drop model, like Asterisk's
		// prioritized handling of control packets) and do not count it
		// against the audio stream statistics — but the QoS sensor taps
		// it for LSR/DLSR round-trip samples on the way through. The
		// report blocks in this packet echo SRs that flowed the other
		// way, so the opposite direction's meter holds the pairing state.
		echo := r.fromCallee
		if toCaller {
			echo = r.fromCaller
		}
		obs.ObserveRTCP(now, data, echo)
		r.rtcp.Add(1)
		r.mu.Unlock()
		out(dst, data)
		return
	}
	// The in-leg audio payload type for this direction (zero until the
	// bridge negotiated, which is before media flows).
	inPT, outPT := r.aPT, r.bPT
	if toCaller {
		inPT, outPT = r.bPT, r.aPT
	}
	// Observe audio only: dynamic payload types (>= 96, e.g. RFC 4733
	// telephone-events) are control-ish payloads whose timestamps do
	// not track the audio clock and would poison loss/transit stats —
	// unless that dynamic type IS this leg's negotiated codec (iLBC).
	parsed := r.scratch.Unmarshal(data) == nil
	observed := parsed && (r.scratch.PayloadType < 96 || r.scratch.PayloadType == inPT)
	if observed {
		obs.ObserveRTP(now, &r.scratch)
	}
	// Overload packet errors: the paper's A=240 row. An observed packet
	// shed here was received by the sensor but never reaches the
	// listener — tell the meter so the measured score carries the loss
	// the downstream party actually experiences.
	if r.overloadDrop() {
		if observed {
			obs.NoteShed()
		}
		r.dropped.Add(1)
		r.mu.Unlock()
		return
	}
	// Transcoding bridge: rewrite the in-leg audio frame into the out
	// leg's codec — payload type and frame swapped, sequence/timestamp/
	// SSRC preserved (every preset runs 20 ms at an 8 kHz RTP clock).
	// The marshal buffer is reused; netsim/UDP transports copy on send.
	wire := data
	if r.transcode && parsed && r.scratch.PayloadType == inPT {
		r.scratch.PayloadType = outPT
		if toCaller {
			r.scratch.Payload = r.toCallerPayload
			wire = r.scratch.Marshal(r.toCallerBuf[:0])
			r.toCallerBuf = wire
		} else {
			r.scratch.Payload = r.toCalleePayload
			wire = r.scratch.Marshal(r.toCalleeBuf[:0])
			r.toCalleeBuf = wire
		}
		r.transcoded.Add(1)
	}
	r.bytes.Add(uint64(len(wire)))
	if r.forwarded.Add(1) == 1 && r.aCallID != "" {
		// Under r.mu while the relay is open: the call's outcome, which
		// removeBridge records after closing the relay, comes later.
		r.s.flight.record(now, r.aCallID, stageFirstRTP)
	}
	r.mu.Unlock()
	out(dst, wire)
}

// overloadDrop samples the CPU model's drop decision. The probability
// is the sampler's last publication; the server lock is taken only to
// draw from the RNG the relays share, and only when there is a chance
// of dropping.
func (r *relay) overloadDrop() bool {
	p := math.Float64frombits(r.s.dropP.Load())
	if p <= 0 {
		return false
	}
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64() < p
}

// foldLocked adds the relay's counts to c, once the relay is closed
// and counts nothing more. Callers hold s.mu.
func (r *relay) foldLocked(c *Counters) {
	c.RelayedPackets += r.forwarded.Load()
	c.RelayedBytes += r.bytes.Load()
	c.DroppedPackets += r.dropped.Load()
	c.TranscodedPkts += r.transcoded.Load()
	c.RelayedRTCP += r.rtcp.Load()
}

func (r *relay) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.aTr.Close()
	r.bTr.Close()
}
