package pbx

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/sip"
	"repro/internal/transport"
)

// udpTestPort hands out distinct port ranges so repeated runs
// (-count=N) never collide on fixed loopback ports.
var udpTestPort atomic.Int32

func nextPortBase() int {
	return 30000 + int(udpTestPort.Add(1))*100
}

// TestUDPBridgedCall runs a complete registered, authenticated,
// RTP-relayed call through the PBX over real loopback UDP sockets —
// the deployment mode of cmd/pbxd — and checks signalling, media
// accounting and the CDR.
func TestUDPBridgedCall(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	clock := transport.NewRealClock()
	pbxTr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New()
	dir.AddUser(directory.User{Username: "alice", Password: "pw-alice"})
	dir.AddUser(directory.User{Username: "bob", Password: "pw-bob"})
	host, _, _ := strings.Cut(pbxTr.LocalAddr(), ":")
	factory := func(port int) (transport.Transport, error) {
		return transport.ListenUDP(fmt.Sprintf("%s:%d", host, port))
	}
	server := New(sip.NewEndpoint(pbxTr, clock), dir, factory,
		Config{RelayRTP: true, RTPPortBase: nextPortBase(), Journal: NewCDRJournal()})
	defer server.Close()

	mk := func(user string, mediaPort int) *sip.Phone {
		tr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		phone := sip.NewPhone(sip.NewEndpoint(tr, clock), sip.PhoneConfig{
			User: user, Password: "pw-" + user, Proxy: pbxTr.LocalAddr(), MediaPort: mediaPort,
		})
		t.Cleanup(func() { phone.Endpoint().Close() })
		return phone
	}
	alice, bob := mk("alice", nextPortBase()), mk("bob", nextPortBase())
	reg := make(chan bool, 2)
	alice.Register(time.Hour, func(ok bool) { reg <- ok })
	bob.Register(time.Hour, func(ok bool) { reg <- ok })
	for i := 0; i < 2; i++ {
		select {
		case ok := <-reg:
			if !ok {
				t.Fatal("registration failed")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("registration timeout")
		}
	}

	newSession := func(c *sip.Call, ssrc uint32) *media.Session {
		mi := c.Media()
		tr, err := transport.ListenUDP(fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
		if err != nil {
			t.Error(err)
			return nil
		}
		sess := media.NewSession(tr, clock, media.SessionConfig{
			Remote: fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), SSRC: ssrc,
		})
		t.Cleanup(func() { sess.Close() })
		return sess
	}

	done := make(chan struct{})
	var aliceSess, bobSess *media.Session
	bob.Sync(func() {
		bob.OnIncoming = func(c *sip.Call) {
			c.OnEstablished = func(c *sip.Call) {
				bobSess = newSession(c, 2)
				if bobSess != nil {
					bobSess.Start()
				}
			}
		}
	})
	call := alice.InviteWithHandlers("bob", nil,
		func(c *sip.Call) {
			aliceSess = newSession(c, 1)
			if aliceSess != nil {
				aliceSess.Start()
			}
			time.AfterFunc(2*time.Second, func() {
				aliceSess.Stop()
				if bobSess != nil {
					bobSess.Stop()
				}
				alice.Hangup(c)
			})
		},
		func(*sip.Call) { close(done) })

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("call never completed")
	}
	time.Sleep(200 * time.Millisecond)

	if call.Cause() != sip.EndCompleted {
		t.Errorf("cause = %v", call.Cause())
	}
	for name, s := range map[string]*media.Session{"alice": aliceSess, "bob": bobSess} {
		if s == nil {
			t.Fatalf("%s session missing", name)
		}
		r := s.Report(mos.G711)
		// Generous bounds: on a loaded single-core host, wall-clock
		// timer skew can push a few frames past the jitter buffer.
		if r.EffectiveLoss > 0.15 {
			t.Errorf("%s loss %.3f through relay on loopback", name, r.EffectiveLoss)
		}
		if r.MOS < 3.3 {
			t.Errorf("%s MOS %.2f", name, r.MOS)
		}
	}
	c := server.CountersSnapshot()
	if c.Established != 1 || c.Completed != 1 {
		t.Errorf("counters %+v", c)
	}
	if c.RelayedPackets < 150 {
		t.Errorf("relayed %d packets, want ~200", c.RelayedPackets)
	}
	cdrs := server.Journal().Committed()
	if len(cdrs) != 1 || cdrs[0].Disposition != Answered || cdrs[0].MOS < 3.3 {
		t.Errorf("CDRs: %+v", cdrs)
	}
}
