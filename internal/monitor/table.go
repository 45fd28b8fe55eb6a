// Package monitor is the measurement plane of the testbed: the role
// Wireshark and VoIPmonitor play in the paper (Sec. III-C). Table I's
// rows — per-method SIP counts, the error-message count and the RTP
// message total — are read off the books the senders already keep
// (Table), so no datagram is parsed a second time to count it; the
// per-second series (Sampler) and its SLO judge (SLO) read the metric
// registry; FlowTrace draws Fig. 2's message ladder from a network tap.
package monitor

import (
	"strconv"

	"repro/internal/sip"
)

// TableRow mirrors the SIP section of Table I for one experiment.
type TableRow struct {
	Invite uint64 // INVITE
	Trying uint64 // 100 TRY
	Ring   uint64 // RING (180)
	OK     uint64 // OK (200)
	Ack    uint64 // ACK
	Bye    uint64 // BYE
	Errors uint64 // Error Msgs
	Total  uint64 // SIP Messages (Total)
	RTP    uint64 // RTP Msg
}

// Table reads Table I off the senders' books: every datagram each SIP
// endpoint handed its transport (Stats.Sent plus Stats.Resent), summed
// by kind, and rtp, the RTP packets the media legs sent plus those the
// relay forwarded. Each datagram on the wire was sent once, by one of
// them, so books naming every sender once count what a capture of the
// wire between them counts.
func Table(rtp uint64, books ...sip.Stats) TableRow {
	row := TableRow{RTP: rtp}
	for _, st := range books {
		for _, tally := range [...]map[string]uint64{st.Sent, st.Resent} {
			for kind, n := range tally {
				row.Total += n
				switch kind {
				case "INVITE":
					row.Invite += n
				case "100":
					row.Trying += n
				case "180":
					row.Ring += n
				case "200":
					row.OK += n
				case "ACK":
					row.Ack += n
				case "BYE":
					row.Bye += n
				}
				if code, err := strconv.Atoi(kind); err == nil && code >= 400 {
					row.Errors += n
				}
			}
		}
	}
	return row
}
