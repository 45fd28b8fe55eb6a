package rtp

import (
	"encoding/binary"
	"errors"
	"time"
)

// RTCP packet types (RFC 3550 §12.1).
const (
	RTCPSenderReport   = 200
	RTCPReceiverReport = 201
)

// IsRTCP reports whether a datagram multiplexed on an RTP socket is an
// RTCP packet (RFC 5761 demultiplexing: version 2 and packet type in
// the RTCP range).
func IsRTCP(data []byte) bool {
	return len(data) >= 8 && data[0]>>6 == Version && data[1] >= 200 && data[1] <= 204
}

// ReportBlock is one reception report block (RFC 3550 §6.4.1): the
// receiver's view of one incoming stream since the previous report.
type ReportBlock struct {
	SSRC             uint32 // source this block reports on
	FractionLost     uint8  // fixed-point /256 loss since last report
	CumulativeLost   uint32 // 24-bit total packets lost
	HighestSeq       uint32 // extended highest sequence received
	Jitter           uint32 // interarrival jitter in timestamp units
	LastSR           uint32 // middle 32 bits of last SR's NTP timestamp
	DelaySinceLastSR uint32 // delay since last SR in 1/65536 s
}

// SenderReport is an RTCP SR (optionally with reception blocks).
type SenderReport struct {
	SSRC        uint32
	NTPTime     uint64 // 32.32 fixed-point seconds
	RTPTime     uint32
	PacketCount uint32
	OctetCount  uint32
	Blocks      []ReportBlock
}

// ReceiverReport is an RTCP RR.
type ReceiverReport struct {
	SSRC   uint32
	Blocks []ReportBlock
}

// NTPTime converts a duration since the clock origin to the 32.32
// fixed-point format RTCP carries. (Experiments use virtual time, so
// the absolute epoch is irrelevant; only differences matter.)
func NTPTime(t time.Duration) uint64 {
	secs := uint64(t / time.Second)
	frac := uint64(t%time.Second) << 32 / uint64(time.Second)
	return secs<<32 | frac
}

// MiddleNTP extracts the middle 32 bits used by LSR/DLSR fields.
func MiddleNTP(ntp uint64) uint32 { return uint32(ntp >> 16) }

// Marshal encodes the sender report.
func (sr *SenderReport) Marshal(dst []byte) []byte {
	n := 28 + 24*len(sr.Blocks)
	length := n/4 - 1
	hdr := make([]byte, n)
	hdr[0] = Version<<6 | uint8(len(sr.Blocks))&0x1F
	hdr[1] = RTCPSenderReport
	binary.BigEndian.PutUint16(hdr[2:], uint16(length))
	binary.BigEndian.PutUint32(hdr[4:], sr.SSRC)
	binary.BigEndian.PutUint64(hdr[8:], sr.NTPTime)
	binary.BigEndian.PutUint32(hdr[16:], sr.RTPTime)
	binary.BigEndian.PutUint32(hdr[20:], sr.PacketCount)
	binary.BigEndian.PutUint32(hdr[24:], sr.OctetCount)
	marshalBlocks(hdr[28:], sr.Blocks)
	return append(dst, hdr...)
}

// Marshal encodes the receiver report.
func (rr *ReceiverReport) Marshal(dst []byte) []byte {
	n := 8 + 24*len(rr.Blocks)
	length := n/4 - 1
	hdr := make([]byte, n)
	hdr[0] = Version<<6 | uint8(len(rr.Blocks))&0x1F
	hdr[1] = RTCPReceiverReport
	binary.BigEndian.PutUint16(hdr[2:], uint16(length))
	binary.BigEndian.PutUint32(hdr[4:], rr.SSRC)
	marshalBlocks(hdr[8:], rr.Blocks)
	return append(dst, hdr...)
}

func marshalBlocks(dst []byte, blocks []ReportBlock) {
	for i, b := range blocks {
		off := i * 24
		binary.BigEndian.PutUint32(dst[off:], b.SSRC)
		dst[off+4] = b.FractionLost
		dst[off+5] = byte(b.CumulativeLost >> 16)
		dst[off+6] = byte(b.CumulativeLost >> 8)
		dst[off+7] = byte(b.CumulativeLost)
		binary.BigEndian.PutUint32(dst[off+8:], b.HighestSeq)
		binary.BigEndian.PutUint32(dst[off+12:], b.Jitter)
		binary.BigEndian.PutUint32(dst[off+16:], b.LastSR)
		binary.BigEndian.PutUint32(dst[off+20:], b.DelaySinceLastSR)
	}
}

// RTCP parse errors.
var (
	ErrRTCPTooShort = errors.New("rtp: rtcp packet too short")
	ErrRTCPType     = errors.New("rtp: unsupported rtcp packet type")
)

// RoundTrip computes the RTT from a reception block echoed back to the
// original sender: RTT = now − LSR − DLSR (all in NTP middle-32
// units of 1/65536 s). It returns 0 if the block carries no LSR.
func RoundTrip(now time.Duration, b ReportBlock) time.Duration {
	if b.LastSR == 0 {
		return 0
	}
	nowM := MiddleNTP(NTPTime(now))
	delta := nowM - b.LastSR - b.DelaySinceLastSR
	// Negative or wildly large deltas mean clock mismatch; clamp.
	if int32(delta) < 0 {
		return 0
	}
	return time.Duration(delta) * time.Second / 65536
}
