package sip

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse errors.
var (
	ErrNotSIP       = errors.New("sip: not a SIP message")
	ErrBadStartLine = errors.New("sip: malformed start line")
	ErrBadHeader    = errors.New("sip: malformed header")
	ErrBodyLength   = errors.New("sip: body length mismatch")
)

// LooksLikeSIP reports whether data plausibly starts a SIP message —
// used by a tap (monitor.FlowTrace) to separate SIP from RTP on a
// shared wire, the way a protocol analyzer classifies packets. It runs
// on every packet tapped, so it works on the raw bytes without
// allocating, and rejects on the first byte what cannot match: every
// status line and method starts with 'A'–'Z', while RTP starts with
// 0x80–0xBF.
func LooksLikeSIP(data []byte) bool {
	if len(data) < 12 || data[0] < 'A' || data[0] > 'Z' {
		return false
	}
	if string(data[:8]) == "SIP/2.0 " {
		return true
	}
	// Request: "METHOD sip:... SIP/2.0"
	sp := bytes.IndexByte(data[:min(len(data), 64)], ' ')
	if sp <= 0 {
		return false
	}
	switch string(data[:sp]) {
	case "INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS", "MESSAGE":
		return true
	}
	return false
}

// Parse decodes a SIP message from wire form. Everything is copied
// (the message's string fields slice one private copy of data), so the
// caller may reuse data as soon as Parse returns.
func Parse(data []byte) (*Message, error) {
	// The single copy that decouples the message from the caller's
	// buffer; every header field below is a substring of it, so the
	// rest of the parse allocates only the Message and its slices.
	text := string(data)
	headerEnd := strings.Index(text, "\r\n\r\n")
	if headerEnd < 0 {
		return nil, fmt.Errorf("%w: missing header terminator", ErrNotSIP)
	}
	head := text[:headerEnd]
	body := text[headerEnd+4:]

	m := &Message{Expires: -1, ContactExpires: -1}
	startLine, rest, _ := strings.Cut(head, "\r\n")
	if err := parseStartLine(m, startLine); err != nil {
		return nil, err
	}

	contentLength := -1
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\r\n")
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrBadHeader, line)
		}
		name = strings.TrimSpace(name)
		value = strings.TrimSpace(value)
		switch {
		case headerIs(name, "via", "v"):
			v, err := parseVia(value)
			if err != nil {
				return nil, err
			}
			m.Via = append(m.Via, v)
		case headerIs(name, "from", "f"):
			na, err := ParseNameAddr(value)
			if err != nil {
				return nil, fmt.Errorf("%w: From: %v", ErrBadHeader, err)
			}
			m.From = na
		case headerIs(name, "to", "t"):
			na, err := ParseNameAddr(value)
			if err != nil {
				return nil, fmt.Errorf("%w: To: %v", ErrBadHeader, err)
			}
			m.To = na
		case headerIs(name, "call-id", "i"):
			m.CallID = value
		case headerIs(name, "cseq"):
			cs, err := parseCSeq(value)
			if err != nil {
				return nil, err
			}
			m.CSeq = cs
		case headerIs(name, "contact", "m"):
			if value == "*" {
				// RFC 3261 10.2.2 wildcard: no addr-spec to parse.
				m.ContactStar = true
				continue
			}
			addr, exp, err := splitContactExpires(value)
			if err != nil {
				return nil, err
			}
			na, err := ParseNameAddr(addr)
			if err != nil {
				return nil, fmt.Errorf("%w: Contact: %v", ErrBadHeader, err)
			}
			m.Contact = &na
			m.ContactExpires = exp
		case headerIs(name, "max-forwards"):
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: Max-Forwards %q", ErrBadHeader, value)
			}
			m.MaxForwards = n
		case headerIs(name, "expires"):
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: Expires %q", ErrBadHeader, value)
			}
			m.Expires = n
		case headerIs(name, "content-type", "c"):
			m.ContentType = value
		case headerIs(name, "retry-after"):
			// RFC 3261 20.33: delta-seconds, optionally followed by a
			// comment and a ;duration parameter; only the delta is kept.
			delta := value
			if i := strings.IndexAny(delta, " ;("); i >= 0 {
				delta = delta[:i]
			}
			n, err := strconv.Atoi(delta)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: Retry-After %q", ErrBadHeader, value)
			}
			m.RetryAfter = n
		case headerIs(name, "content-length", "l"):
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: Content-Length %q", ErrBadHeader, value)
			}
			contentLength = n
		case headerIs(name, "www-authenticate"):
			m.WWWAuthenticate = value
		case headerIs(name, "authorization"):
			m.Authorization = value
		case headerIs(name, "user-agent", "server"):
			m.UserAgent = value
		default:
			m.Other = append(m.Other, Header{Name: name, Value: value})
		}
	}

	if contentLength >= 0 {
		if contentLength > len(body) {
			return nil, fmt.Errorf("%w: declared %d, have %d", ErrBodyLength, contentLength, len(body))
		}
		body = body[:contentLength]
	}
	if len(body) > 0 {
		m.Body = []byte(body)
	}

	// Minimal mandatory-header validation (RFC 3261 8.1.1). From/To
	// must carry a URI: without them the message cannot be answered,
	// and a zero NameAddr would marshal as the unparsable "<sip:>".
	if m.CallID == "" {
		return nil, fmt.Errorf("%w: missing Call-ID", ErrBadHeader)
	}
	if m.CSeq.Method == "" {
		return nil, fmt.Errorf("%w: missing CSeq", ErrBadHeader)
	}
	if m.From.URI.Host == "" {
		return nil, fmt.Errorf("%w: missing From", ErrBadHeader)
	}
	if m.To.URI.Host == "" {
		return nil, fmt.Errorf("%w: missing To", ErrBadHeader)
	}
	return m, nil
}

// splitContactExpires pulls the per-Contact ";expires=" parameter
// (RFC 3261 10.2.1.1) off a Contact value, returning the addr-spec
// with that parameter removed and the expires seconds (-1 when
// absent). Only header parameters — after the closing ">" of a
// name-addr — are considered; inside brackets ";expires" would be a
// URI parameter, which this grammar does not use.
func splitContactExpires(value string) (addr string, expires int, err error) {
	expires = -1
	paramStart := 0
	if end := strings.LastIndexByte(value, '>'); end >= 0 {
		paramStart = end + 1
	} else if i := strings.IndexByte(value, ';'); i >= 0 {
		paramStart = i
	} else {
		return value, -1, nil
	}
	head, params := value[:paramStart], value[paramStart:]
	var kept strings.Builder
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		k, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(k), "expires") {
			n, aerr := strconv.Atoi(strings.TrimSpace(v))
			if aerr != nil || n < 0 {
				return "", 0, fmt.Errorf("%w: Contact expires %q", ErrBadHeader, v)
			}
			expires = n
			continue
		}
		kept.WriteByte(';')
		kept.WriteString(p)
	}
	return head + kept.String(), expires, nil
}

// headerIs reports whether name matches one of the given canonical or
// compact header forms, ASCII case-insensitively.
func headerIs(name string, forms ...string) bool {
	for _, f := range forms {
		if strings.EqualFold(name, f) {
			return true
		}
	}
	return false
}

func parseStartLine(m *Message, line string) error {
	if rest, ok := strings.CutPrefix(line, "SIP/2.0 "); ok {
		codeStr, reason, _ := strings.Cut(rest, " ")
		code, err := strconv.Atoi(codeStr)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("%w: %q", ErrBadStartLine, line)
		}
		m.StatusCode = code
		m.ReasonStr = reason
		return nil
	}
	method, rest, ok := strings.Cut(line, " ")
	uriStr, proto, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 || method == "" || proto != "SIP/2.0" {
		return fmt.Errorf("%w: %q", ErrBadStartLine, line)
	}
	uri, err := ParseURI(uriStr)
	if err != nil {
		return err
	}
	m.Method = Method(method)
	m.RequestURI = uri
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
