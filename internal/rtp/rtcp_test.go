package rtp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSenderReportRoundTrip(t *testing.T) {
	in := &SenderReport{
		SSRC:        0xdeadbeef,
		NTPTime:     NTPTime(90 * time.Second),
		RTPTime:     720000,
		PacketCount: 4500,
		OctetCount:  774000,
		Blocks: []ReportBlock{{
			SSRC:             7,
			FractionLost:     25,
			CumulativeLost:   99,
			HighestSeq:       4532,
			Jitter:           42,
			LastSR:           0x12345678,
			DelaySinceLastSR: 65536,
		}},
	}
	wire := in.Marshal(nil)
	if !IsRTCP(wire) {
		t.Fatal("marshalled SR not recognized as RTCP")
	}
	var sr RTCPInfo
	if err := ParseRTCPInfo(wire, &sr); err != nil || sr.Type != RTCPSenderReport {
		t.Fatalf("parse: %+v err=%v", sr, err)
	}
	if sr.SSRC != in.SSRC || sr.NTPTime != in.NTPTime || sr.RTPTime != in.RTPTime ||
		sr.PacketCount != in.PacketCount || sr.OctetCount != in.OctetCount {
		t.Errorf("header: %+v", sr)
	}
	if sr.NumBlocks() != 1 || sr.Block(0) != in.Blocks[0] {
		t.Errorf("blocks: %d, first %+v", sr.NumBlocks(), sr.Block(0))
	}
}

func TestReceiverReportRoundTrip(t *testing.T) {
	f := func(ssrc uint32, frac uint8, lost uint32, seq, jit, lsr, dlsr uint32) bool {
		in := &ReceiverReport{
			SSRC: ssrc,
			Blocks: []ReportBlock{{
				SSRC:             ssrc ^ 1,
				FractionLost:     frac,
				CumulativeLost:   lost & 0xFFFFFF,
				HighestSeq:       seq,
				Jitter:           jit,
				LastSR:           lsr,
				DelaySinceLastSR: dlsr,
			}},
		}
		var rr RTCPInfo
		if err := ParseRTCPInfo(in.Marshal(nil), &rr); err != nil || rr.Type != RTCPReceiverReport {
			return false
		}
		return rr.SSRC == in.SSRC && rr.NumBlocks() == 1 && rr.Block(0) == in.Blocks[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyReceiverReport(t *testing.T) {
	rr := &ReceiverReport{SSRC: 5}
	var out RTCPInfo
	if err := ParseRTCPInfo(rr.Marshal(nil), &out); err != nil || out.Type != RTCPReceiverReport || out.NumBlocks() != 0 {
		t.Fatalf("empty RR: %+v err=%v", out, err)
	}
}

func TestIsRTCPDistinguishesRTP(t *testing.T) {
	rtpPkt := (&Packet{PayloadType: 0, SSRC: 1, Payload: make([]byte, 160)}).Marshal(nil)
	if IsRTCP(rtpPkt) {
		t.Error("G.711 RTP classified as RTCP")
	}
	// PCMU with marker bit: first byte 0x80, second 0x80 — PT 0 with
	// marker must not look like RTCP (type 200+ required).
	rtpPkt[1] = 0x80
	if IsRTCP(rtpPkt) {
		t.Error("marked RTP classified as RTCP")
	}
	if IsRTCP([]byte{0x80}) {
		t.Error("short junk classified as RTCP")
	}
}

func TestParseRTCPErrors(t *testing.T) {
	var info RTCPInfo
	if err := ParseRTCPInfo([]byte{0x80, 200}, &info); err != ErrRTCPTooShort {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, 8)
	bad[0] = 1 << 6
	bad[1] = 200
	if err := ParseRTCPInfo(bad, &info); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	sdes := make([]byte, 8)
	sdes[0] = 2 << 6
	sdes[1] = 202
	if err := ParseRTCPInfo(sdes, &info); err != ErrRTCPType {
		t.Errorf("type: %v", err)
	}
	// Truncated block.
	trunc := (&SenderReport{Blocks: []ReportBlock{{}}}).Marshal(nil)
	if err := ParseRTCPInfo(trunc[:30], &info); err != ErrRTCPTooShort {
		t.Errorf("truncated: %v", err)
	}
}

func TestNTPTimeMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a := time.Duration(aRaw) * time.Millisecond
		b := time.Duration(bRaw) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		return NTPTime(a) <= NTPTime(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNTPTimePrecision(t *testing.T) {
	// Half a second must be ~0x80000000 in the fractional part.
	ntp := NTPTime(1500 * time.Millisecond)
	if ntp>>32 != 1 {
		t.Errorf("seconds = %d", ntp>>32)
	}
	frac := uint32(ntp)
	if frac < 0x7ffff000 || frac > 0x80001000 {
		t.Errorf("fraction = %#x, want ~0x80000000", frac)
	}
}

func TestRoundTripComputation(t *testing.T) {
	// Peer received our SR at t=10s (LSR = middle bits of NTP(10s)),
	// held it 2s (DLSR), we receive the echo at t=12.5s: RTT = 0.5s.
	lsr := MiddleNTP(NTPTime(10 * time.Second))
	b := ReportBlock{LastSR: lsr, DelaySinceLastSR: 2 * 65536}
	rtt := RoundTrip(12500*time.Millisecond, b)
	if rtt < 490*time.Millisecond || rtt > 510*time.Millisecond {
		t.Errorf("rtt = %v, want ~500ms", rtt)
	}
}

func TestRoundTripNoLSR(t *testing.T) {
	if rtt := RoundTrip(time.Minute, ReportBlock{}); rtt != 0 {
		t.Errorf("rtt without LSR = %v", rtt)
	}
}

func TestRoundTripClockSkewClamped(t *testing.T) {
	// An LSR "from the future" yields a negative delta: clamp to 0.
	b := ReportBlock{LastSR: MiddleNTP(NTPTime(100 * time.Second))}
	if rtt := RoundTrip(50*time.Second, b); rtt != 0 {
		t.Errorf("future LSR rtt = %v", rtt)
	}
}

func TestReceiverReportBlockFractionLost(t *testing.T) {
	r := NewReceiver()
	// First interval: 10 packets, no loss.
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		r.Observe(now, &Packet{Sequence: uint16(i), Timestamp: uint32(i) * 160, SSRC: 3})
		now += 20 * time.Millisecond
	}
	b1 := r.ReportBlock(now)
	if b1.FractionLost != 0 {
		t.Errorf("interval 1 fraction = %d", b1.FractionLost)
	}
	if b1.SSRC != 3 {
		t.Errorf("block ssrc = %d", b1.SSRC)
	}
	// Second interval: send seq 10..29 but drop half.
	for i := 10; i < 30; i++ {
		if i%2 == 0 {
			r.Observe(now, &Packet{Sequence: uint16(i), Timestamp: uint32(i) * 160, SSRC: 3})
		}
		now += 20 * time.Millisecond
	}
	b2 := r.ReportBlock(now)
	// ~half lost in the interval: fraction ≈ 128/256.
	if b2.FractionLost < 100 || b2.FractionLost > 156 {
		t.Errorf("interval 2 fraction = %d, want ~128", b2.FractionLost)
	}
	if b2.CumulativeLost == 0 {
		t.Error("cumulative lost = 0 after drops")
	}
}

func TestNoteSenderReportEnablesLSR(t *testing.T) {
	r := NewReceiver()
	r.Observe(0, &Packet{Sequence: 0, SSRC: 9})
	b := r.ReportBlock(time.Second)
	if b.LastSR != 0 {
		t.Errorf("LSR without SR = %#x", b.LastSR)
	}
	ntp := NTPTime(2 * time.Second)
	r.NoteSR(2*time.Second, 9, ntp)
	b = r.ReportBlock(3 * time.Second)
	if b.LastSR != MiddleNTP(ntp) {
		t.Errorf("LSR = %#x, want %#x", b.LastSR, MiddleNTP(ntp))
	}
	if b.DelaySinceLastSR != 65536 {
		t.Errorf("DLSR = %d, want 65536 (1s)", b.DelaySinceLastSR)
	}
	// SRs from foreign SSRCs are ignored.
	r.NoteSR(4*time.Second, 1000, NTPTime(4*time.Second))
	if b := r.ReportBlock(5 * time.Second); b.LastSR != MiddleNTP(ntp) {
		t.Error("foreign SR overwrote LSR state")
	}
}

func BenchmarkSenderReportMarshal(b *testing.B) {
	sr := &SenderReport{SSRC: 1, Blocks: []ReportBlock{{SSRC: 2}}}
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = sr.Marshal(buf[:0])
	}
}

func TestRTPParsersNeverPanic(t *testing.T) {
	var info RTCPInfo
	f := func(data []byte) bool {
		_, _ = Parse(data)
		_ = ParseRTCPInfo(data, &info)
		_ = IsRTCP(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
