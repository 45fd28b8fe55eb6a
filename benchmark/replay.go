package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/stats"
)

// The replay measurements time one layer's public function at a time
// over the datagrams the traced run captured — the per-operation costs
// that, multiplied by the operations a call (or packet, or REGISTER)
// needs, should add up to the server's measured CPU. What they do not
// add up to is the residual an in-program trace has to explain.

// replayOps is how many operations each measurement times.
const replayOps = 20000

// sink keeps results alive so the compiler cannot drop the calls.
var sink any

// perOp times fn over n calls after a short warm-up and returns the
// mean nanoseconds and heap allocations per call.
func perOp(n int, fn func(i int)) (ns, allocs float64) {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replaySIP times sip.Parse and (*Message).Append over captured SIP
// datagrams, and sdp.Parse / (*Session).Answer over their bodies.
func replaySIP(datagrams [][]byte, o *outcome) {
	if len(datagrams) == 0 {
		return
	}
	var msgs []*sip.Message
	var bodies [][]byte
	for _, d := range datagrams {
		m, err := sip.Parse(d)
		if err != nil {
			continue
		}
		msgs = append(msgs, m)
		if len(m.Body) > 0 {
			bodies = append(bodies, m.Body)
		}
	}
	o.equal("replay: every captured SIP datagram parses", float64(len(msgs)), float64(len(datagrams)))
	if len(msgs) == 0 {
		return
	}
	o.Layers["sip.parse_ns"], o.Layers["sip.parse_allocs"] = perOp(replayOps, func(i int) {
		m, _ := sip.Parse(datagrams[i%len(datagrams)])
		sink = m
	})
	buf := make([]byte, 0, 2048)
	o.Layers["sip.marshal_ns"], o.Layers["sip.marshal_allocs"] = perOp(replayOps, func(i int) {
		buf = msgs[i%len(msgs)].Append(buf[:0])
	})
	// Marshalling what was parsed must give the datagram back.
	o.check("replay: parse then marshal round-trips", bytes.Equal(msgs[0].Append(nil), datagrams[0]),
		"%d bytes in, %d out", len(datagrams[0]), len(msgs[0].Append(nil)))

	if len(bodies) == 0 {
		return
	}
	var offers []*sdp.Session
	for _, b := range bodies {
		if s, err := sdp.Parse(b); err == nil {
			offers = append(offers, s)
		}
	}
	o.Layers["sdp.parse_ns"], _ = perOp(replayOps, func(i int) {
		s, _ := sdp.Parse(bodies[i%len(bodies)])
		sink = s
	})
	if len(offers) > 0 {
		o.Layers["sdp.answer_ns"], _ = perOp(replayOps, func(i int) {
			s, _ := offers[i%len(offers)].Answer("pbx", "127.0.0.1", 10000, []int{0, 8})
			sink = s
		})
	}
}

// replayRTP times (*rtp.Packet).Unmarshal and (*QoSMeter).ObserveRTP
// over captured relay-leg datagrams.
func replayRTP(datagrams [][]byte, o *outcome) {
	var audio [][]byte
	for _, d := range datagrams {
		if !rtp.IsRTCP(d) {
			audio = append(audio, d)
		}
	}
	if len(audio) == 0 {
		return
	}
	var pkt rtp.Packet
	o.Layers["rtp.unmarshal_ns"], _ = perOp(replayOps, func(i int) {
		if err := pkt.Unmarshal(audio[i%len(audio)]); err != nil {
			panic(fmt.Sprintf("replay: captured RTP does not unmarshal: %v", err)) // it unmarshalled in the relay a moment ago
		}
	})
	meter := media.NewQoSMeter(mos.G711PLC)
	meter.SetRemoteClocks(true)
	now := time.Duration(0)
	o.Layers["media.qos_observe_ns"], _ = perOp(replayOps, func(i int) {
		pkt.Sequence = uint16(i)
		pkt.Timestamp = uint32(i) * frameSamples
		now += frameInterval
		meter.ObserveRTP(now, &pkt)
	})
}

// syntheticRTP stands in for captured packets on workloads that relay
// none, so rtp and media still report their per-packet cost there.
func syntheticRTP() [][]byte {
	p := rtp.Packet{PayloadType: 0, SSRC: 1, Payload: make([]byte, frameSamples)}
	return [][]byte{p.Marshal(nil)}
}

// directoryCosts times the registrar store's three hot operations on a
// store of registerUsers AORs, and digest verification on its own.
func directoryCosts(o *outcome) {
	const realm = "unb.br"
	dir := directory.New()
	users := dir.Provision("u", 0, registerUsers)
	now := time.Second
	for _, u := range users {
		if err := dir.Register(u, "127.0.0.1:5060", now, time.Hour); err != nil {
			panic(fmt.Sprintf("replay: register %s: %v", u, err)) // u was provisioned on the line above
		}
	}
	o.Layers["directory.contact_ns"], _ = perOp(replayOps, func(i int) {
		c, _ := dir.Contact(users[(i*7919)%len(users)], now)
		sink = c
	})
	o.Layers["directory.register_ns"], _ = perOp(replayOps, func(i int) {
		now += time.Millisecond
		sink = dir.Register(users[(i*7919)%len(users)], "127.0.0.1:5060", now, time.Hour)
	})

	const uri = "sip:127.0.0.1:5060"
	nonces := directory.NewNonceCache(directory.DefaultShards, 0, 0)
	type cred struct{ user, nonce, response string }
	creds := make([]cred, 4096)
	for i := range creds {
		u := users[i]
		nonce := fmt.Sprintf("n%d-%d", i, i*31)
		nonces.Issue(nonce, u, sip.DigestHA1(u, realm, "pw-"+u), now)
		creds[i] = cred{u, nonce, sip.DigestResponse(u, realm, "pw-"+u, nonce, sip.REGISTER, uri)}
	}
	hits := 0
	o.Layers["directory.nonce_verify_ns"], _ = perOp(replayOps, func(i int) {
		c := creds[i%len(creds)]
		if nonces.Verify(c.nonce, c.user, sip.REGISTER, uri, c.response, now) == directory.NonceHit {
			hits++
		}
	})
	o.check("replay: every issued nonce verifies", hits == replayOps+replayOps/10+1, "%d hits", hits)

	ha1 := sip.DigestHA1("u0", realm, "pw-u0")
	var scratch []byte
	o.Layers["sip.digest_verify_ns"], _ = perOp(replayOps, func(i int) {
		var ok bool
		ok, scratch = sip.VerifyHA1(ha1, creds[0].nonce, sip.REGISTER, uri, creds[0].response, scratch)
		sink = ok
	})
}

// netsimCosts times the simulator's two primitives as its own
// benchmarks do: one Scheduler.After + Run cycle with a cancelled
// far-future timer beside it, and one Network.Send through a 1 ms link
// to its handler.
func netsimCosts() (schedCycleNs, sendDeliverNs float64) {
	s := netsim.NewScheduler()
	ev := func(time.Duration) {}
	schedCycleNs, _ = perOp(replayOps, func(int) {
		s.After(time.Millisecond, ev)
		s.After(time.Hour, ev).Stop()
		if _, err := s.Run(s.Now() + time.Millisecond); err != nil {
			panic(err) // Run fails only on a handler panic; ev has none
		}
	})

	s = netsim.NewScheduler()
	n := netsim.NewNetwork(s, stats.NewRNG(1))
	n.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	src, dst := netsim.Addr{Host: "a", Port: 1}, netsim.Addr{Host: "b", Port: 2}
	n.Bind(dst, netsim.HandlerFunc(func(time.Duration, *netsim.Packet) {}))
	payload := make([]byte, rtp.HeaderLen+frameSamples)
	sendDeliverNs, _ = perOp(replayOps, func(int) {
		n.Send(src, dst, payload)
		if _, err := s.Run(s.Now() + 2*time.Millisecond); err != nil {
			panic(err)
		}
	})
	return schedCycleNs, sendDeliverNs
}
