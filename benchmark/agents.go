package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sip"
	"repro/internal/transport"
)

// agents is the generator's SIP side for the call workloads: one uac
// and one uas softphone, each on one UDP socket, both registered with
// the server under test. sip.Phone is the user agent the simulator's
// generator and cmd/sipload already drive pbx with; the benchmark adds
// only the pacing around it.
type agents struct {
	uac, uas *sip.Phone
}

// newAgents binds the two phones and registers them. uacMedia and
// uasMedia are the first RTP ports each advertises in SDP (two apart
// per concurrent call).
func newAgents(proxy string, uacMedia, uasMedia int) (*agents, error) {
	clock := transport.NewRealClock()
	phone := func(user string, media int) (*sip.Phone, error) {
		tr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return sip.NewPhone(sip.NewEndpoint(tr, clock), sip.PhoneConfig{
			User: user, Password: "pw-" + user, Proxy: proxy, MediaPort: media,
		}), nil
	}
	uac, err := phone("uac", uacMedia)
	if err != nil {
		return nil, err
	}
	uas, err := phone("uas", uasMedia)
	if err != nil {
		uac.Endpoint().Close()
		return nil, err
	}
	a := &agents{uac: uac, uas: uas}
	registered := make(chan bool, 2) // one result per phone
	uac.Register(time.Hour, func(ok bool) { registered <- ok })
	uas.Register(time.Hour, func(ok bool) { registered <- ok })
	for i := 0; i < 2; i++ {
		select {
		case ok := <-registered:
			if !ok {
				a.close()
				return nil, errors.New("uac/uas registration refused")
			}
		case <-time.After(5 * time.Second):
			a.close()
			return nil, fmt.Errorf("uac/uas registration timed out against %s", proxy)
		}
	}
	return a, nil
}

func (a *agents) close() {
	a.uac.Endpoint().Close()
	a.uas.Endpoint().Close()
}

// retransmits is how many SIP messages the two phones sent again. A
// run with any is still correct, but its message counts are no longer
// the clean 13 per call.
func (a *agents) retransmits() uint64 {
	return a.uac.Endpoint().StatsSnapshot().Retransmissions +
		a.uas.Endpoint().StatsSnapshot().Retransmissions
}
