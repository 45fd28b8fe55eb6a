package sip

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDigestRoundTrip(t *testing.T) {
	ch := DigestChallenge{Realm: "unb.br", Nonce: "abc123"}
	parsed, ok := ParseDigestChallenge(ch.Header())
	if !ok || parsed != ch {
		t.Fatalf("challenge round trip: %+v ok=%v", parsed, ok)
	}
	creds := ch.Answer("alice", "s3cret", REGISTER, "sip:unb.br")
	parsedCreds, ok := ParseDigestCredentials(creds.Header())
	if !ok || parsedCreds != creds {
		t.Fatalf("credentials round trip: %+v ok=%v", parsedCreds, ok)
	}
	if !ch.Verify(parsedCreds, "s3cret", REGISTER) {
		t.Error("valid credentials rejected")
	}
}

func TestDigestRejectsWrongPassword(t *testing.T) {
	ch := DigestChallenge{Realm: "r", Nonce: "n"}
	creds := ch.Answer("alice", "right", REGISTER, "sip:r")
	if ch.Verify(creds, "wrong", REGISTER) {
		t.Error("wrong password accepted")
	}
}

func TestDigestRejectsWrongMethodOrNonce(t *testing.T) {
	ch := DigestChallenge{Realm: "r", Nonce: "n"}
	creds := ch.Answer("alice", "pw", REGISTER, "sip:r")
	if ch.Verify(creds, "pw", INVITE) {
		t.Error("method substitution accepted")
	}
	stale := DigestChallenge{Realm: "r", Nonce: "other"}
	if stale.Verify(creds, "pw", REGISTER) {
		t.Error("stale nonce accepted")
	}
	foreign := DigestChallenge{Realm: "r2", Nonce: "n"}
	if foreign.Verify(creds, "pw", REGISTER) {
		t.Error("foreign realm accepted")
	}
}

func TestDigestPropertyVerifyMatchesAnswer(t *testing.T) {
	f := func(u, p, nonce uint16) bool {
		ch := DigestChallenge{Realm: "realm", Nonce: string(rune('a'+nonce%26)) + "nonce"}
		user := "user" + string(rune('a'+u%26))
		pw := "pw" + string(rune('a'+p%26))
		creds := ch.Answer(user, pw, INVITE, "sip:pbx")
		return ch.Verify(creds, pw, INVITE) && !ch.Verify(creds, pw+"x", INVITE)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDigestGarbage(t *testing.T) {
	if _, ok := ParseDigestChallenge("Basic foo"); ok {
		t.Error("Basic accepted as Digest")
	}
	if _, ok := ParseDigestChallenge("Digest realm=\"r\""); ok {
		t.Error("challenge without nonce accepted")
	}
	if _, ok := ParseDigestCredentials("Digest realm=\"r\""); ok {
		t.Error("credentials without username/response accepted")
	}
}

// mapDigestParams is the parameter walk as it was written with a map,
// strings.Split and ToLower, kept as the reference for the one that
// allocates nothing.
func mapDigestParams(v string) (map[string]string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(v), "Digest ")
	if !ok {
		return nil, false
	}
	params := make(map[string]string)
	for _, part := range strings.Split(rest, ",") {
		k, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			continue
		}
		params[strings.ToLower(k)] = strings.Trim(val, `"`)
	}
	return params, true
}

func TestDigestParsersMatchMapReference(t *testing.T) {
	for _, v := range []string{
		`Digest realm="asterisk", nonce="n1-1", algorithm=MD5`,
		`Digest realm="asterisk", nonce="n1-1", algorithm=MD5, stale=true`,
		`Digest username="u0", realm="asterisk", nonce="n1-1", uri="sip:pbx:5060", response="deadbeef", algorithm=MD5`,
		// Keys in any case; the last duplicate wins, whatever its case.
		`Digest REALM="a", Nonce="b", STALE=TRUE, realm="c"`,
		`Digest username="x", USERNAME="y", response="1", Response="2"`,
		// Bare and half-quoted values, padding, empty values, no value.
		`  Digest username=u0,realm=asterisk,nonce=n,uri=sip:pbx,response=abc  `,
		`Digest username="u0, nonce=n", response=r"`,
		`Digest username = "u0", response= "r"`,
		`Digest username="u0", nonce=, response="xyz`,
		`Digest username, response="r", username="late"`,
		`Digest =x, username="u", response="r", =`,
		`Digest username="a=b", response="c==", uri="sip:a,b"`,
		`Digest ,,, username="u",, response="r",`,
		`Digest stale=false, realm="r", nonce="n", stale=tRuE, stale=no`,
		// Not Digest at all.
		``, `Digest`, `Digest `, `digest realm="r", nonce="n"`, `Basic dXNlcjpwdw==`, `DigestX realm="r"`,
	} {
		p, ok := mapDigestParams(v)
		wantCh := DigestChallenge{Realm: p["realm"], Nonce: p["nonce"], Stale: strings.EqualFold(p["stale"], "true")}
		wantChOK := ok && wantCh.Realm != "" && wantCh.Nonce != ""
		if ch, chOK := ParseDigestChallenge(v); ch != wantCh || chOK != wantChOK {
			t.Errorf("challenge %q:\n got %+v %v\nwant %+v %v", v, ch, chOK, wantCh, wantChOK)
		}
		wantCr := DigestCredentials{Username: p["username"], Realm: p["realm"], Nonce: p["nonce"], URI: p["uri"], Response: p["response"]}
		wantCrOK := ok && wantCr.Username != "" && wantCr.Response != ""
		if cr, crOK := ParseDigestCredentials(v); cr != wantCr || crOK != wantCrOK {
			t.Errorf("credentials %q:\n got %+v %v\nwant %+v %v", v, cr, crOK, wantCr, wantCrOK)
		}
	}
	hdr := DigestChallenge{Realm: "asterisk", Nonce: "n1-1"}.Answer("u0", "pw-u0", REGISTER, "sip:pbx:5060").Header()
	if n := testing.AllocsPerRun(100, func() { ParseDigestCredentials(hdr) }); n != 0 {
		t.Errorf("ParseDigestCredentials: %v allocs, want 0", n)
	}
}
