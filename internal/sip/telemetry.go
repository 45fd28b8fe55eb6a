package sip

import "repro/internal/telemetry"

// msgKind buckets SIP messages for the sip_messages_total{dir,kind}
// family: a fixed enum, so a scrape sums the endpoint's tallies into
// fourteen series without formatting a label value.
type msgKind int

const (
	kindInvite msgKind = iota
	kindAck
	kindBye
	kindCancel
	kindRegister
	kindMessage
	kindOptions
	kindOtherReq
	kind1xx
	kind2xx
	kind3xx
	kind4xx
	kind5xx
	kind6xx
	numMsgKinds
)

var msgKindNames = [numMsgKinds]string{
	"INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "MESSAGE", "OPTIONS",
	"other", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx",
}

// methodKind classifies a request method without allocating.
func methodKind(m Method) msgKind {
	switch m {
	case INVITE:
		return kindInvite
	case ACK:
		return kindAck
	case BYE:
		return kindBye
	case CANCEL:
		return kindCancel
	case REGISTER:
		return kindRegister
	case MESSAGE:
		return kindMessage
	case OPTIONS:
		return kindOptions
	}
	return kindOtherReq
}

// statusKind classifies a response by its status class.
func statusKind(code int) msgKind {
	switch c := code / 100; c {
	case 1, 2, 3, 4, 5, 6:
		return kind1xx + msgKind(c-1)
	}
	return kindOtherReq
}

// count sums the tally's messages of kind k.
func (t msgTally) count(k msgKind) uint64 {
	var n uint64
	for m, v := range t.req {
		if methodKind(m) == k {
			n += v
		}
	}
	for code, v := range t.resp {
		if statusKind(code) == k {
			n += v
		}
	}
	return n
}

// SIP telemetry family names.
const (
	mSIPRetrans   = "sip_retransmissions_total"
	mSIPTimeouts  = "sip_timeouts_total"
	mSIPParseErrs = "sip_parse_errors_total"
	mSIPStray     = "sip_stray_responses_total"
	mSIPMessages  = "sip_messages_total"
)

// UseTelemetry publishes the endpoint's Stats on reg as the sip_*
// families, read under the endpoint's lock at scrape time; another
// endpoint on the same registry adds to the same series. Call it once
// per endpoint: each call adds the endpoint's counts again.
func (ep *Endpoint) UseTelemetry(reg *telemetry.Registry) {
	read := func(field func() uint64) func() float64 {
		return func() float64 {
			ep.mu.Lock()
			defer ep.mu.Unlock()
			return float64(field())
		}
	}
	reg.CounterFunc(mSIPRetrans, "messages retransmitted or replayed by the transaction layer",
		read(ep.resent.total))
	reg.CounterFunc(mSIPTimeouts, "client transactions that timed out (synthesized 408)",
		read(func() uint64 { return ep.stats.Timeouts }))
	reg.CounterFunc(mSIPParseErrs, "inbound datagrams that failed to parse",
		read(func() uint64 { return ep.stats.ParseErrors }))
	reg.CounterFunc(mSIPStray, "responses matching no client transaction",
		read(func() uint64 { return ep.stats.StrayResponses }))
	for k := msgKind(0); k < numMsgKinds; k++ {
		reg.CounterFunc(mSIPMessages, "SIP messages by direction and kind",
			read(func() uint64 { return ep.sent.count(k) }),
			telemetry.L("dir", "sent"), telemetry.L("kind", msgKindNames[k]))
		reg.CounterFunc(mSIPMessages, "SIP messages by direction and kind",
			read(func() uint64 { return ep.recv.count(k) }),
			telemetry.L("dir", "recv"), telemetry.L("kind", msgKindNames[k]))
	}
}
