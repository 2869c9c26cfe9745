package sig

import (
	"crypto/rand"
	"errors"
	"sort"
	"testing"
)

// schemes is every registered scheme, in name order; the loops below
// cover each one.
var schemes = []Scheme{ECDSAP256, Ed25519, RSAPSS2048}

func TestAllSchemesSignVerify(t *testing.T) {
	msg := []byte("long-term integrity needs rotation")
	for _, s := range schemes {
		signer, err := Get(s)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := signer.Generate(rand.Reader)
		if err != nil {
			t.Fatalf("%s generate: %v", s, err)
		}
		if kp.Scheme != s {
			t.Fatalf("%s: keypair scheme mismatch", s)
		}
		sigBytes, err := signer.Sign(kp, msg, rand.Reader)
		if err != nil {
			t.Fatalf("%s sign: %v", s, err)
		}
		if err := signer.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatalf("%s verify: %v", s, err)
		}
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	msg := []byte("authentic")
	for _, s := range schemes {
		signer, _ := Get(s)
		kp, _ := signer.Generate(rand.Reader)
		sigBytes, _ := signer.Sign(kp, msg, rand.Reader)
		if err := signer.Verify(kp.Public, []byte("forgery!!"), sigBytes); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("%s: tampered message accepted: %v", s, err)
		}
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	msg := []byte("authentic")
	for _, s := range schemes {
		signer, _ := Get(s)
		kp, _ := signer.Generate(rand.Reader)
		sigBytes, _ := signer.Sign(kp, msg, rand.Reader)
		sigBytes[0] ^= 1
		if err := signer.Verify(kp.Public, msg, sigBytes); err == nil {
			t.Fatalf("%s: tampered signature accepted", s)
		}
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	msg := []byte("authentic")
	for _, s := range schemes {
		signer, _ := Get(s)
		kp1, _ := signer.Generate(rand.Reader)
		kp2, _ := signer.Generate(rand.Reader)
		sigBytes, _ := signer.Sign(kp1, msg, rand.Reader)
		if err := signer.Verify(kp2.Public, msg, sigBytes); err == nil {
			t.Fatalf("%s: wrong key accepted", s)
		}
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := Get("dsa-512"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown scheme: %v", err)
	}
}

func TestBadPublicKey(t *testing.T) {
	for _, s := range schemes {
		signer, _ := Get(s)
		if err := signer.Verify([]byte{1, 2, 3}, []byte("m"), []byte("s")); err == nil {
			t.Fatalf("%s: garbage public key accepted", s)
		}
	}
}

func TestBreakSchedule(t *testing.T) {
	b := BreakSchedule{Ed25519: 100, ECDSAP256: 200}
	if b.BrokenAt(Ed25519, 99) {
		t.Fatal("broken before its break epoch")
	}
	if !b.BrokenAt(Ed25519, 100) {
		t.Fatal("not broken at its break epoch")
	}
	if !b.BrokenAt(Ed25519, 5000) {
		t.Fatal("not broken after its break epoch")
	}
	if b.BrokenAt(RSAPSS2048, 1<<40) {
		t.Fatal("unscheduled scheme reported broken")
	}
}

// TestSchemesDeterministicOrder pins the list the tests loop over to the
// registry, in name order, so a newly registered scheme cannot go
// untested.
func TestSchemesDeterministicOrder(t *testing.T) {
	var registered []Scheme
	for s := range registry {
		registered = append(registered, s)
	}
	sort.Slice(registered, func(i, j int) bool { return registered[i] < registered[j] })
	if len(registered) != len(schemes) {
		t.Fatalf("registry has %v, tests cover %v", registered, schemes)
	}
	for i := range registered {
		if registered[i] != schemes[i] {
			t.Fatalf("registry has %v, tests cover %v", registered, schemes)
		}
	}
}

func BenchmarkSignEd25519(b *testing.B) {
	signer, _ := Get(Ed25519)
	kp, _ := signer.Generate(rand.Reader)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Sign(kp, msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyEd25519(b *testing.B) {
	signer, _ := Get(Ed25519)
	kp, _ := signer.Generate(rand.Reader)
	msg := make([]byte, 256)
	s, _ := signer.Sign(kp, msg, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := signer.Verify(kp.Public, msg, s); err != nil {
			b.Fatal(err)
		}
	}
}
