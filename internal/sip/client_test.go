package sip

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// TestAddrURI covers every form the former splitters (the softphone's,
// the B2BUA's, the registration generator's and the balancer's) were
// handed. On host:port, the only form the repository sends, each of
// them returned this host and port.
func TestAddrURI(t *testing.T) {
	for _, c := range []struct {
		addr string
		host string
		port int
	}{
		{"10.0.0.1:5060", "10.0.0.1", 5060},
		{"127.0.0.1:41234", "127.0.0.1", 41234},
		{"pbx:5070", "pbx", 5070},
		{"pbx", "pbx", DefaultPort},
		{"pbx:", "pbx", DefaultPort},
		{"pbx:sip", "pbx", DefaultPort},
		{"[::1]:5062", "[::1]", 5062},
		{"[::1]", "[::1]", DefaultPort},
	} {
		if got := AddrURI("alice", c.addr); got.User != "alice" || got.Host != c.host || got.Port != c.port {
			t.Errorf("AddrURI(%q) = %+v, want host %q port %d", c.addr, got, c.host, c.port)
		}
	}
}

// registrarStub answers REGISTERs at pbx:5060 by script: issue returns
// the challenge a request gets, nil to accept it. It records every
// REGISTER it saw.
type registrarStub struct {
	sched *netsim.Scheduler
	net   *netsim.Network
	clock transport.SimClock
	seen  []*Message
}

func newRegistrarStub(issue func(req *Message) *DigestChallenge) *registrarStub {
	r := &registrarStub{sched: netsim.NewScheduler()}
	r.net = netsim.NewNetwork(r.sched, stats.NewRNG(5))
	r.clock = transport.SimClock{Sched: r.sched}
	ep := NewEndpoint(transport.NewSim(r.net, "pbx:5060"), r.clock)
	ep.Handle(func(tx *ServerTx, req *Message, _ string) {
		r.seen = append(r.seen, req)
		resp := req.Response(StatusOK)
		if ch := issue(req); ch != nil {
			resp.StatusCode = StatusUnauthorized
			resp.WWWAuthenticate = ch.Header()
		}
		tx.Respond(resp)
	})
	return r
}

// nonceOf is the nonce a REGISTER's Authorization answers, "" for none.
func nonceOf(req *Message) string {
	creds, _ := ParseDigestCredentials(req.Authorization)
	return creds.Nonce
}

// TestRegisterAnswersStaleRechallenge: a refresh authorizes
// preemptively with the cached nonce; once the registrar has let that
// nonce go it re-challenges with stale=true, and the retry at CSeq+1
// answers the fresh nonce and binds.
func TestRegisterAnswersStaleRechallenge(t *testing.T) {
	current := DigestChallenge{Realm: "unb.br", Nonce: "n1"}
	r := newRegistrarStub(func(req *Message) *DigestChallenge {
		if got := nonceOf(req); got != current.Nonce {
			ch := current
			ch.Stale = got != ""
			return &ch
		}
		return nil
	})
	alice := NewPhone(NewEndpoint(transport.NewSim(r.net, "alice:5060"), r.clock),
		PhoneConfig{User: "alice", Password: "pw-alice", Proxy: "pbx:5060"})
	register := func() bool {
		var ok, done bool
		alice.Register(time.Hour, func(success bool) { ok, done = success, true })
		r.sched.Run(r.sched.Now() + time.Minute)
		if !done {
			t.Fatal("register never finished")
		}
		return ok
	}
	if !register() {
		t.Fatal("first registration refused")
	}
	current.Nonce = "n2" // the replay window let n1 go
	if !register() {
		t.Fatal("refresh across a stale nonce refused")
	}
	want := []struct {
		seq   uint32
		nonce string
	}{{1, ""}, {2, "n1"}, {1, "n1"}, {2, "n2"}}
	if len(r.seen) != len(want) {
		t.Fatalf("registrar saw %d REGISTERs, want %d", len(r.seen), len(want))
	}
	for i, w := range want {
		if req := r.seen[i]; req.CSeq.Seq != w.seq || nonceOf(req) != w.nonce {
			t.Errorf("REGISTER %d: CSeq %d answering %q, want CSeq %d answering %q",
				i, req.CSeq.Seq, nonceOf(req), w.seq, w.nonce)
		}
	}
}

// TestRegisterAnswersOneChallenge: a 401 to the retry ends the attempt —
// one challenge is answered, not a loop of them.
func TestRegisterAnswersOneChallenge(t *testing.T) {
	n := 0
	r := newRegistrarStub(func(*Message) *DigestChallenge {
		n++
		return &DigestChallenge{Realm: "unb.br", Nonce: "n" + strconv.Itoa(n), Stale: n > 1}
	})
	alice := NewPhone(NewEndpoint(transport.NewSim(r.net, "alice:5060"), r.clock),
		PhoneConfig{User: "alice", Password: "pw-alice", Proxy: "pbx:5060"})
	var ok, done bool
	alice.Register(time.Hour, func(success bool) { ok, done = success, true })
	r.sched.Run(time.Minute)
	if !done || ok {
		t.Fatalf("register done=%v ok=%v, want a refusal", done, ok)
	}
	if len(r.seen) != 2 || r.seen[1].CSeq.Seq != 2 {
		t.Errorf("registrar saw %d REGISTERs, want the first and one retry at CSeq 2", len(r.seen))
	}
	if alice.Registered() {
		t.Error("a refused phone considers itself registered")
	}
}

// TestRegisterEntersEachResponse: every final response is handled
// inside enter, the retry reports the stale challenge it answered, and
// a response enter declines ends the exchange without done.
func TestRegisterEntersEachResponse(t *testing.T) {
	r := newRegistrarStub(func(req *Message) *DigestChallenge {
		if nonceOf(req) != "n2" {
			return &DigestChallenge{Realm: "unb.br", Nonce: "n2", Stale: req.Authorization != ""}
		}
		return nil
	})
	ep := NewEndpoint(transport.NewSim(r.net, "gen:5062"), r.clock)
	acct := &Account{User: "u0", Password: "pw-u0", challenge: DigestChallenge{Realm: "unb.br", Nonce: "n1"}}
	request := func() *Message {
		return NewRequest(REGISTER, AddrURI("", "pbx:5060"),
			NameAddr{URI: AddrURI("u0", "pbx:5060"), Tag: ep.NewTag()}, NameAddr{URI: AddrURI("u0", "pbx:5060")},
			ep.NewCallID(), 1)
	}

	entered, finals := 0, 0
	var stale bool
	enter := func(handle func()) { entered++; handle() }
	ep.Register("pbx:5060", request(), acct, enter, func(resp *Message, s bool) {
		finals++
		stale = s
		if resp.StatusCode != StatusOK {
			t.Errorf("final %d, want 200", resp.StatusCode)
		}
	})
	r.sched.Run(time.Minute)
	if entered != 2 || finals != 1 || !stale {
		t.Errorf("entered %d, done %d, stale %v: want the 401 and the 200 entered, one stale done", entered, finals, stale)
	}

	// With n2 cached the next exchange is one round trip; a declined
	// response ends it there.
	ep.Register("pbx:5060", request(), acct, func(func()) { entered++ }, func(*Message, bool) { finals++ })
	r.sched.Run(2 * time.Minute)
	if entered != 3 || finals != 1 || len(r.seen) != 3 {
		t.Errorf("entered %d, done %d, %d REGISTERs: want a declined 200 after one preemptive REGISTER",
			entered, finals, len(r.seen))
	}
}
