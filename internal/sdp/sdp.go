// Package sdp implements the minimal RFC 4566 Session Description
// Protocol subset the call path needs: audio session descriptions
// carrying a connection address, a media port, and the offered codec
// payload types, exchanged in INVITE/200 bodies for the offer/answer
// handshake (RFC 3264) that tells each side where to send RTP and
// which codec to speak. The payload-type name table mirrors the
// internal/codec registry, including the dynamic iLBC mapping that
// rtpmap parsing exists for.
package sdp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ContentType is the MIME type of SDP bodies in SIP messages.
const ContentType = "application/sdp"

// Session describes one audio session: where to send RTP and which
// payload types are on offer.
type Session struct {
	// Origin username (o= line); informational.
	Origin string
	// SessionID and Version from the o= line.
	SessionID int64
	Version   int64
	// Host is the connection address (c= line, may appear at session
	// or media level; we emit session level).
	Host string
	// Port is the audio media port (m=audio line).
	Port int
	// PayloadTypes lists offered RTP payload types in preference order.
	PayloadTypes []int
	// Rtpmap carries parsed a=rtpmap encoding names for payload types
	// in PayloadTypes, when the peer supplied any that differ from the
	// registry defaults (dynamic types must; static types may). Nil for
	// locally constructed sessions — Marshal falls back to the built-in
	// table.
	Rtpmap map[int]string
	// Ptime is the a=ptime packetization hint in milliseconds; zero
	// means unspecified (the G.711 default of 20 ms applies).
	Ptime int
}

// NewSessionWith returns an offer/answer session advertising the given
// payload types in preference order at host:port.
func NewSessionWith(origin, host string, port int, payloadTypes []int) *Session {
	return &Session{
		Origin:       origin,
		SessionID:    1,
		Version:      1,
		Host:         host,
		Port:         port,
		PayloadTypes: payloadTypes,
	}
}

// NewG711Session returns an offer for G.711 µ-law and A-law at
// host:port, the session the paper's endpoints negotiate.
func NewG711Session(origin, host string, port int) *Session {
	return NewSessionWith(origin, host, port, []int{0, 8})
}

// payloadNames maps the registered payload types to their rtpmap
// encodings (see internal/codec): the RFC 3551 static audio types plus
// the conventional dynamic iLBC assignment.
var payloadNames = map[int]string{
	0:  "PCMU/8000",
	3:  "GSM/8000",
	8:  "PCMA/8000",
	9:  "G722/8000",
	18: "G729/8000",
	97: "iLBC/8000",
}

// PayloadName returns the rtpmap encoding the session associates with
// pt: a parsed a=rtpmap entry when present, else the registry default.
func (s *Session) PayloadName(pt int) (string, bool) {
	if name, ok := s.Rtpmap[pt]; ok {
		return name, true
	}
	name, ok := payloadNames[pt]
	return name, ok
}

// Marshal renders the session in wire form.
func (s *Session) Marshal() []byte {
	origin := s.Origin
	if origin == "" {
		origin = "-"
	}
	// Sized for the usual two-codec offer, so the appends below
	// allocate once.
	b := make([]byte, 0, 160+len(origin)+2*len(s.Host))
	b = append(b, "v=0\r\no="...)
	b = append(b, origin...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, s.SessionID, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, s.Version, 10)
	b = append(b, " IN IP4 "...)
	b = append(b, s.Host...)
	b = append(b, "\r\ns=call\r\nc=IN IP4 "...)
	b = append(b, s.Host...)
	b = append(b, "\r\nt=0 0\r\nm=audio "...)
	b = strconv.AppendInt(b, int64(s.Port), 10)
	b = append(b, " RTP/AVP"...)
	for _, pt := range s.PayloadTypes {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(pt), 10)
	}
	b = append(b, "\r\n"...)
	for _, pt := range s.PayloadTypes {
		if name, ok := s.PayloadName(pt); ok {
			b = append(b, "a=rtpmap:"...)
			b = strconv.AppendInt(b, int64(pt), 10)
			b = append(b, ' ')
			b = append(b, name...)
			b = append(b, "\r\n"...)
		}
	}
	if s.Ptime > 0 {
		b = append(b, "a=ptime:"...)
		b = strconv.AppendInt(b, int64(s.Ptime), 10)
		b = append(b, "\r\n"...)
	}
	return b
}

// Errors returned by Parse.
var (
	ErrNoMedia      = errors.New("sdp: no audio media line")
	ErrNoConnection = errors.New("sdp: no connection line")
	ErrMalformed    = errors.New("sdp: malformed line")
)

// Parse decodes an SDP body. Unknown lines are skipped, per the
// robustness rule that SDP consumers ignore attributes they do not
// understand; the result must contain at least c= and m=audio.
func Parse(data []byte) (*Session, error) {
	s := &Session{}
	haveConn := false
	haveMedia := false
	var rtpmap map[int]string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return nil, fmt.Errorf("%w: %q", ErrMalformed, line)
		}
		value := line[2:]
		switch line[0] {
		case 'o':
			fields := strings.Fields(value)
			if len(fields) >= 6 {
				s.Origin = fields[0]
				s.SessionID, _ = strconv.ParseInt(fields[1], 10, 64)
				s.Version, _ = strconv.ParseInt(fields[2], 10, 64)
				if !haveConn {
					s.Host = fields[5]
				}
			}
		case 'c':
			fields := strings.Fields(value)
			if len(fields) != 3 || fields[0] != "IN" || fields[1] != "IP4" {
				return nil, fmt.Errorf("%w: %q", ErrMalformed, line)
			}
			s.Host = fields[2]
			haveConn = true
		case 'm':
			fields := strings.Fields(value)
			if len(fields) < 3 || fields[0] != "audio" {
				continue // ignore non-audio media
			}
			port, err := strconv.Atoi(fields[1])
			if err != nil || port < 0 || port > 65535 {
				return nil, fmt.Errorf("%w: %q", ErrMalformed, line)
			}
			s.Port = port
			s.PayloadTypes = s.PayloadTypes[:0]
			for _, f := range fields[3:] {
				pt, err := strconv.Atoi(f)
				// RTP payload types are 7-bit (RFC 3550); anything else
				// is a malformed media line, not a negotiable codec.
				if err != nil || pt < 0 || pt > 127 {
					return nil, fmt.Errorf("%w: %q", ErrMalformed, line)
				}
				s.PayloadTypes = append(s.PayloadTypes, pt)
			}
			haveMedia = true
		case 'a':
			switch {
			case strings.HasPrefix(value, "rtpmap:"):
				pt, name, ok := parseRtpmap(value[len("rtpmap:"):])
				if ok {
					if rtpmap == nil {
						rtpmap = make(map[int]string)
					}
					rtpmap[pt] = name
				}
			case strings.HasPrefix(value, "ptime:"):
				if n, err := strconv.Atoi(strings.TrimSpace(value[len("ptime:"):])); err == nil && n > 0 {
					s.Ptime = n
				}
			}
		}
	}
	if !haveMedia {
		return nil, ErrNoMedia
	}
	if !haveConn && s.Host == "" {
		return nil, ErrNoConnection
	}
	// Keep only mappings for payload types the media line actually
	// offers: rtpmap entries for absent types carry no negotiable
	// information, and dropping them makes Marshal∘Parse idempotent.
	for pt, name := range rtpmap {
		if containsPT(s.PayloadTypes, pt) {
			if s.Rtpmap == nil {
				s.Rtpmap = make(map[int]string)
			}
			s.Rtpmap[pt] = name
		}
	}
	return s, nil
}

// parseRtpmap decodes "PT encoding/clock[/channels]". A malformed
// entry is skipped rather than fatal (robustness rule), and an entry
// whose name cannot survive a marshal round-trip (embedded whitespace)
// is rejected.
func parseRtpmap(v string) (pt int, name string, ok bool) {
	ptStr, rest, found := strings.Cut(v, " ")
	if !found {
		return 0, "", false
	}
	pt, err := strconv.Atoi(ptStr)
	if err != nil || pt < 0 || pt > 127 {
		return 0, "", false
	}
	name = strings.TrimSpace(rest)
	if name == "" || strings.ContainsAny(name, " \t") {
		return 0, "", false
	}
	return pt, name, true
}

func containsPT(pts []int, pt int) bool {
	for _, p := range pts {
		if p == pt {
			return true
		}
	}
	return false
}

// Answer builds the answer to offer per RFC 3264: it selects the first
// payload type in the offerer's preference order that the answerer
// supports and binds the answerer's host:port. It returns an error if
// no codec is shared.
func (offer *Session) Answer(origin, host string, port int, supported []int) (*Session, error) {
	for _, pt := range offer.PayloadTypes {
		for _, sp := range supported {
			if pt == sp {
				a := &Session{
					Origin:       origin,
					SessionID:    offer.SessionID,
					Version:      offer.Version + 1,
					Host:         host,
					Port:         port,
					PayloadTypes: []int{pt},
				}
				if name, ok := offer.Rtpmap[pt]; ok {
					a.Rtpmap = map[int]string{pt: name}
				}
				return a, nil
			}
		}
	}
	return nil, errors.New("sdp: no codec in common")
}
