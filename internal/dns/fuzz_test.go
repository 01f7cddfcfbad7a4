package dns

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the wire parser with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode and re-decode to an
// equivalent message (idempotent canonicalization).
func FuzzDecode(f *testing.F) {
	seed := sampleMessage()
	wire, _ := seed.Encode()
	f.Add(wire)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer spam
	q := NewQuery(9, "пример.xn--p1ai.", TypeANY)
	if w, err := q.Encode(); err == nil {
		f.Add(w)
	}
	// Shapes the fault layer emits on a degraded wire: SERVFAIL flaps,
	// TC-stripped responses, and datagrams cut mid-record.
	flap := NewQuery(10, "flap.ru.", TypeA).Reply()
	flap.RCode = RCodeServFail
	if w, err := flap.Encode(); err == nil {
		f.Add(w)
	}
	full := sampleMessage()
	if w, err := Truncate(full).Encode(); err == nil {
		f.Add(w)
	}
	if w, err := full.Encode(); err == nil && len(w) > 12 {
		f.Add(w[:len(w)/2]) // cut inside a record
		f.Add(w[:12])       // header only, counts promise more
		garbled := bytes.Clone(w)
		garbled[4] ^= 0xFF // QDCOUNT scrambled
		f.Add(garbled)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re, err := m.Encode()
		if err != nil {
			// Messages with decoded-but-unencodable payloads (e.g. an A
			// record whose address failed to parse) are acceptable; they
			// must only fail cleanly.
			return
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		re2, err := m2.Encode()
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not idempotent:\n%x\n%x", re, re2)
		}
	})
}

// FuzzName drives name canonicalization and wire encoding together.
func FuzzName(f *testing.F) {
	for _, s := range []string{"example.ru", ".", "xn--p1ai", "a.b.c.d.e.f", "UPPER.RU."} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := TLD(s), labelsTLD(s); got != want {
			t.Fatalf("TLD(%q) = %q, Labels-based definition gives %q", s, got, want)
		}
		name := Canonical(s)
		if !ValidName(name) {
			return
		}
		b, err := appendName(nil, name)
		if err != nil {
			t.Fatalf("ValidName(%q) but appendName failed: %v", name, err)
		}
		if len(b) > 256 {
			t.Fatalf("wire form of %q is %d octets", name, len(b))
		}
	})
}
