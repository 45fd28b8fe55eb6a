package rtp

import (
	"bytes"
	"testing"
	"time"
)

func TestRTCPInfoParseSR(t *testing.T) {
	sr := &SenderReport{
		SSRC:        0x11223344,
		NTPTime:     NTPTime(90 * time.Second),
		RTPTime:     720000,
		PacketCount: 4500,
		OctetCount:  720000,
		Blocks: []ReportBlock{
			{SSRC: 1, FractionLost: 12, CumulativeLost: 34, HighestSeq: 5600,
				Jitter: 78, LastSR: 0x9ABC, DelaySinceLastSR: 0xDEF0},
			{SSRC: 2, CumulativeLost: 0xABCDEF, HighestSeq: 99},
		},
	}
	wire := sr.Marshal(nil)

	var info RTCPInfo
	if err := ParseRTCPInfo(wire, &info); err != nil {
		t.Fatalf("ParseRTCPInfo: %v", err)
	}
	if info.Type != RTCPSenderReport || info.SSRC != sr.SSRC ||
		info.NTPTime != sr.NTPTime || info.RTPTime != sr.RTPTime ||
		info.PacketCount != sr.PacketCount || info.OctetCount != sr.OctetCount {
		t.Errorf("header mismatch: %+v vs %+v", info, sr)
	}
	if info.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", info.NumBlocks())
	}
	for i, want := range sr.Blocks {
		if got := info.Block(i); got != want {
			t.Errorf("block %d = %+v, want %+v", i, got, want)
		}
	}

	// The view carries every field of the marshalled input: rebuilt
	// from it, the report marshals to the same bytes.
	back := &SenderReport{SSRC: info.SSRC, NTPTime: info.NTPTime, RTPTime: info.RTPTime,
		PacketCount: info.PacketCount, OctetCount: info.OctetCount}
	for i := 0; i < info.NumBlocks(); i++ {
		back.Blocks = append(back.Blocks, info.Block(i))
	}
	if got := back.Marshal(nil); !bytes.Equal(got, wire) {
		t.Errorf("view re-marshals to\n %x\nwant the input\n %x", got, wire)
	}
}

func TestRTCPInfoParseRRZeroesSRFields(t *testing.T) {
	var info RTCPInfo
	// Seed the scratch with SR leftovers, as a reused view would carry.
	sr := &SenderReport{SSRC: 7, NTPTime: 1 << 40, RTPTime: 5, PacketCount: 6, OctetCount: 7}
	if err := ParseRTCPInfo(sr.Marshal(nil), &info); err != nil {
		t.Fatalf("SR parse: %v", err)
	}
	rr := &ReceiverReport{SSRC: 0x55, Blocks: []ReportBlock{{SSRC: 9, LastSR: 11}}}
	if err := ParseRTCPInfo(rr.Marshal(nil), &info); err != nil {
		t.Fatalf("RR parse: %v", err)
	}
	if info.Type != RTCPReceiverReport || info.SSRC != 0x55 {
		t.Errorf("RR header: %+v", info)
	}
	if info.NTPTime != 0 || info.RTPTime != 0 || info.PacketCount != 0 || info.OctetCount != 0 {
		t.Errorf("stale SR fields survived RR parse: %+v", info)
	}
	if info.NumBlocks() != 1 || info.Block(0).LastSR != 11 {
		t.Errorf("RR blocks: %+v", info.Block(0))
	}
}

func TestRTCPInfoErrors(t *testing.T) {
	var info RTCPInfo
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", []byte{0x80, 200, 0, 1}, ErrRTCPTooShort},
		{"bad version", append([]byte{0x40, 200}, make([]byte, 26)...), ErrBadVersion},
		{"wrong type", append([]byte{0x80, 203}, make([]byte, 26)...), ErrRTCPType},
		{"sr truncated blocks", (&SenderReport{
			Blocks: []ReportBlock{{SSRC: 1}},
		}).Marshal(nil)[:30], ErrRTCPTooShort},
	}
	for _, tc := range cases {
		if err := ParseRTCPInfo(tc.data, &info); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestRTCPInfoZeroAlloc(t *testing.T) {
	wire := (&SenderReport{
		SSRC:    1,
		NTPTime: NTPTime(time.Second),
		Blocks:  []ReportBlock{{SSRC: 2, LastSR: 3, DelaySinceLastSR: 4}},
	}).Marshal(nil)
	var info RTCPInfo
	if avg := testing.AllocsPerRun(1000, func() {
		if err := ParseRTCPInfo(wire, &info); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < info.NumBlocks(); i++ {
			_ = info.Block(i)
		}
	}); avg != 0 {
		t.Errorf("ParseRTCPInfo allocates %.1f/op, want 0", avg)
	}
}
