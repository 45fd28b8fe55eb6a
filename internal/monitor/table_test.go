package monitor

import (
	"testing"

	"repro/internal/sip"
)

func TestTableSumsSendersBooks(t *testing.T) {
	// One bridged call (Fig. 2's thirteen messages) from its three
	// senders, plus the caller's digest REGISTER exchange (two
	// REGISTERs, a 401 and a 200), one INVITE the caller retransmitted
	// and one 2xx the PBX did.
	caller := sip.Stats{
		Sent:   map[string]uint64{"INVITE": 1, "ACK": 1, "BYE": 1, "REGISTER": 2},
		Resent: map[string]uint64{"INVITE": 1},
	}
	pbx := sip.Stats{
		Sent:   map[string]uint64{"100": 1, "INVITE": 1, "180": 1, "ACK": 1, "200": 3, "BYE": 1, "401": 1},
		Resent: map[string]uint64{"200": 1},
	}
	callee := sip.Stats{Sent: map[string]uint64{"180": 1, "200": 2}}
	got := Table(3000, caller, pbx, callee)
	want := TableRow{Invite: 3, Trying: 1, Ring: 2, OK: 6, Ack: 2, Bye: 2, Errors: 1, Total: 19, RTP: 3000}
	if got != want {
		t.Errorf("Table = %+v\nwant    %+v", got, want)
	}
	if (Table(0) != TableRow{}) {
		t.Errorf("no books: %+v", Table(0))
	}
}
