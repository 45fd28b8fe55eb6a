package rtp

import "encoding/binary"

// RTCPInfo is an in-place view of one SR or RR: the header fields are
// decoded eagerly, the report blocks stay in the wire buffer and are
// decoded on demand by Block. Parsing into a reused RTCPInfo allocates
// nothing, so the relay hot path and every media session decode RTCP
// through it. The view aliases data, so it is only valid until the
// caller releases or reuses the datagram buffer.
type RTCPInfo struct {
	Type        uint8 // RTCPSenderReport or RTCPReceiverReport
	SSRC        uint32
	NTPTime     uint64 // SR only
	RTPTime     uint32 // SR only
	PacketCount uint32 // SR only
	OctetCount  uint32 // SR only

	blocks  []byte // wire bytes of the report blocks
	nBlocks int
}

// ParseRTCPInfo decodes an SR or RR into info without allocating.
func ParseRTCPInfo(data []byte, info *RTCPInfo) error {
	if len(data) < 8 {
		return ErrRTCPTooShort
	}
	if data[0]>>6 != Version {
		return ErrBadVersion
	}
	count := int(data[0] & 0x1F)
	switch data[1] {
	case RTCPSenderReport:
		if len(data) < 28+24*count {
			return ErrRTCPTooShort
		}
		info.Type = RTCPSenderReport
		info.SSRC = binary.BigEndian.Uint32(data[4:])
		info.NTPTime = binary.BigEndian.Uint64(data[8:])
		info.RTPTime = binary.BigEndian.Uint32(data[16:])
		info.PacketCount = binary.BigEndian.Uint32(data[20:])
		info.OctetCount = binary.BigEndian.Uint32(data[24:])
		info.blocks = data[28:]
	case RTCPReceiverReport:
		if len(data) < 8+24*count {
			return ErrRTCPTooShort
		}
		info.Type = RTCPReceiverReport
		info.SSRC = binary.BigEndian.Uint32(data[4:])
		info.NTPTime, info.RTPTime = 0, 0
		info.PacketCount, info.OctetCount = 0, 0
		info.blocks = data[8:]
	default:
		return ErrRTCPType
	}
	info.nBlocks = count
	return nil
}

// NumBlocks returns the number of reception report blocks.
func (info *RTCPInfo) NumBlocks() int { return info.nBlocks }

// Block decodes report block i from the retained wire buffer.
func (info *RTCPInfo) Block(i int) ReportBlock {
	off := i * 24
	d := info.blocks[off : off+24]
	return ReportBlock{
		SSRC:             binary.BigEndian.Uint32(d[0:]),
		FractionLost:     d[4],
		CumulativeLost:   uint32(d[5])<<16 | uint32(d[6])<<8 | uint32(d[7]),
		HighestSeq:       binary.BigEndian.Uint32(d[8:]),
		Jitter:           binary.BigEndian.Uint32(d[12:]),
		LastSR:           binary.BigEndian.Uint32(d[16:]),
		DelaySinceLastSR: binary.BigEndian.Uint32(d[20:]),
	}
}
