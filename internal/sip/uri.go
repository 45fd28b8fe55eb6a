// Package sip implements the subset of RFC 3261 (SIP: Session
// Initiation Protocol) that the paper's call flow exercises (Fig. 2):
// request/response messages, the INVITE and non-INVITE transaction
// state machines with retransmission timers, dialogs, digest
// authentication, and a user-agent core on which the softphone
// endpoints, the SIPp-style load generator and the Asterisk-style B2BUA
// are built.
//
// The wire format is real: messages serialize to and parse from the
// exact textual form a packet capture of the paper's testbed would
// show, so the monitor package can count "INVITE / 100 TRY / RING /
// ACK / BYE" rows of Table I off the wire rather than from internal
// counters.
package sip

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// URI is a SIP URI of the form sip:user@host:port;params.
// Only the components the call flow needs are modelled.
type URI struct {
	User string
	Host string
	Port int // 0 means unspecified (default 5060)
	// Params holds ;key=value URI parameters, order not preserved.
	Params map[string]string
}

// DefaultPort is the conventional SIP UDP port.
const DefaultPort = 5060

// NewURI builds a sip:user@host:port URI.
func NewURI(user, host string, port int) URI {
	return URI{User: user, Host: host, Port: port}
}

// HostPort returns "host:port" with the default port applied,
// suitable as a transport destination.
func (u URI) HostPort() string {
	p := u.Port
	if p == 0 {
		p = DefaultPort
	}
	var a [64]byte // on the stack: the string is the one allocation
	b := append(a[:0], u.Host...)
	b = append(b, ':')
	return string(strconv.AppendInt(b, int64(p), 10))
}

// AppendTo appends the wire form of the URI to dst.
func (u URI) AppendTo(dst []byte) []byte {
	dst = append(dst, "sip:"...)
	if u.User != "" {
		dst = append(dst, u.User...)
		dst = append(dst, '@')
	}
	dst = append(dst, u.Host...)
	if u.Port != 0 {
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(u.Port), 10)
	}
	for k, v := range u.Params {
		dst = append(dst, ';')
		dst = append(dst, k...)
		if v != "" {
			dst = append(dst, '=')
			dst = append(dst, v...)
		}
	}
	return dst
}

// String renders the URI in wire form.
func (u URI) String() string { return string(u.AppendTo(nil)) }

// ErrBadURI reports an unparsable SIP URI.
var ErrBadURI = errors.New("sip: malformed URI")

// ParseURI parses a sip: URI. The sips: scheme and IPv6 literals are
// out of scope and rejected.
func ParseURI(s string) (URI, error) {
	var u URI
	rest, ok := strings.CutPrefix(s, "sip:")
	if !ok {
		return u, fmt.Errorf("%w: missing sip scheme in %q", ErrBadURI, s)
	}
	// Split off URI parameters.
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		params := rest[i+1:]
		rest = rest[:i]
		u.Params = make(map[string]string)
		for _, p := range strings.Split(params, ";") {
			if p == "" {
				continue
			}
			k, v, _ := strings.Cut(p, "=")
			u.Params[k] = v
		}
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		u.User = rest[:i]
		rest = rest[i+1:]
	}
	if rest == "" {
		return u, fmt.Errorf("%w: empty host in %q", ErrBadURI, s)
	}
	if host, portStr, found := strings.Cut(rest, ":"); found {
		port, err := strconv.Atoi(portStr)
		if err != nil || port <= 0 || port > 65535 {
			return u, fmt.Errorf("%w: bad port in %q", ErrBadURI, s)
		}
		u.Host = host
		u.Port = port
	} else {
		u.Host = rest
	}
	if u.Host == "" {
		return u, fmt.Errorf("%w: empty host in %q", ErrBadURI, s)
	}
	// RFC 3261 hostnames never contain angle brackets, quotes or
	// whitespace; accepting them here breaks <sip:...> re-marshalling.
	if strings.ContainsAny(u.User, "<>\" \t") || strings.ContainsAny(u.Host, "<>\" \t") {
		return u, fmt.Errorf("%w: illegal character in %q", ErrBadURI, s)
	}
	return u, nil
}

// NameAddr is a From/To/Contact header value: an optional display
// name, a URI, and header parameters (most importantly ;tag=).
type NameAddr struct {
	Display string
	URI     URI
	Tag     string
}

// AppendTo appends the wire form of the name-addr to dst, always using
// the bracketed <> form so URI parameters cannot leak into header
// params.
func (n NameAddr) AppendTo(dst []byte) []byte {
	if n.Display != "" {
		dst = strconv.AppendQuote(dst, n.Display)
		dst = append(dst, ' ')
	}
	dst = append(dst, '<')
	dst = n.URI.AppendTo(dst)
	dst = append(dst, '>')
	if n.Tag != "" {
		dst = append(dst, ";tag="...)
		dst = append(dst, n.Tag...)
	}
	return dst
}

// String renders the name-addr in wire form.
func (n NameAddr) String() string { return string(n.AppendTo(nil)) }

// ParseNameAddr parses a From/To/Contact value.
func ParseNameAddr(s string) (NameAddr, error) {
	var n NameAddr
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "\"") {
		end := strings.Index(s[1:], "\"")
		if end < 0 {
			return n, fmt.Errorf("%w: unterminated display name in %q", ErrBadURI, s)
		}
		n.Display = s[1 : 1+end]
		s = strings.TrimSpace(s[end+2:])
	}
	var params string
	if strings.HasPrefix(s, "<") {
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return n, fmt.Errorf("%w: unterminated <> in %q", ErrBadURI, s)
		}
		uri, err := ParseURI(s[1:end])
		if err != nil {
			return n, err
		}
		n.URI = uri
		params = s[end+1:]
	} else {
		// Bare URI form: header params begin at the first semicolon.
		uriPart := s
		if i := strings.IndexByte(s, ';'); i >= 0 {
			uriPart, params = s[:i], s[i:]
		}
		uri, err := ParseURI(uriPart)
		if err != nil {
			return n, err
		}
		n.URI = uri
	}
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		k, v, _ := strings.Cut(strings.TrimSpace(p), "=")
		if strings.EqualFold(k, "tag") {
			n.Tag = v
		}
	}
	return n, nil
}
