// Package otp implements the One-Time Pad with a strict key-consumption
// ledger.
//
// The OTP is the simplest information-theoretically secure encryption
// (ε = 0 in the paper's Definition 2.1): c = m ⊕ k with k uniform and as
// long as m. Its security proof collapses instantly under key reuse, so
// this package wraps pad material in a Pad type whose ledger makes every
// byte single-use: Encrypt consumes pad bytes permanently and returns the
// interval used, and a consumed interval can never be handed out again.
//
// In the archival setting the OTP is the degenerate upper-left point of
// Figure 1 — perfect secrecy at 1× *ciphertext* cost plus 1× secret key
// that must itself be stored and protected, which is why secret sharing
// (which integrates the "pad" into the shares) dominates it in practice.
// The bsm and qkd packages both produce OTP key material as their output,
// and feed it to this package.
package otp

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Errors returned by this package.
var (
	ErrPadExhausted = errors.New("otp: pad exhausted")
	ErrBadInterval  = errors.New("otp: ciphertext interval invalid or already consumed differently")
	ErrEmpty        = errors.New("otp: empty message")
)

// Pad is a pool of one-time key material with single-use accounting.
// It is safe for concurrent use.
type Pad struct {
	mu   sync.Mutex
	key  []byte
	next int // first unconsumed offset
}

// NewPad wraps key material as a pad. The pad takes ownership of the
// slice; callers must not retain it.
func NewPad(key []byte) *Pad {
	return &Pad{key: key}
}

// NewRandomPad samples a pad of n bytes from rnd.
func NewRandomPad(n int, rnd io.Reader) (*Pad, error) {
	k := make([]byte, n)
	if _, err := io.ReadFull(rnd, k); err != nil {
		return nil, fmt.Errorf("otp: reading randomness: %w", err)
	}
	return NewPad(k), nil
}

// Remaining returns the number of unconsumed pad bytes.
func (p *Pad) Remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.key) - p.next
}

// Ciphertext is an OTP ciphertext together with the pad interval that
// encrypted it; the interval (not the key bytes) is what the receiver
// needs to locate the matching pad region on its own copy.
type Ciphertext struct {
	Offset int
	Body   []byte
}

// Encrypt consumes len(msg) pad bytes and returns the ciphertext.
// It fails with ErrPadExhausted when insufficient pad remains; pads do
// not stretch — that is the point.
func (p *Pad) Encrypt(msg []byte) (*Ciphertext, error) {
	if len(msg) == 0 {
		return nil, ErrEmpty
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.key)-p.next < len(msg) {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrPadExhausted, len(msg), len(p.key)-p.next)
	}
	off := p.next
	body := make([]byte, len(msg))
	for i := range msg {
		body[i] = msg[i] ^ p.key[off+i]
	}
	// Consume: zeroise the used key bytes so even a later memory
	// compromise cannot recover past traffic (forward secrecy of the pad).
	for i := 0; i < len(msg); i++ {
		p.key[off+i] = 0
	}
	p.next = off + len(msg)
	return &Ciphertext{Offset: off, Body: body}, nil
}

// Decrypt recovers the message using the receiver's copy of the pad.
// Unlike Encrypt it does not advance the ledger cursor — the two
// directions of a link hold separate pads in any real deployment — but it
// does zeroise the used interval, enforcing single use on this side too.
// The interval must lie within the pad and still contain live key bytes.
func (p *Pad) Decrypt(ct *Ciphertext) ([]byte, error) {
	if ct == nil || len(ct.Body) == 0 {
		return nil, ErrEmpty
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ct.Offset < 0 || ct.Offset+len(ct.Body) > len(p.key) {
		return nil, fmt.Errorf("%w: [%d, %d)", ErrBadInterval, ct.Offset, ct.Offset+len(ct.Body))
	}
	msg := make([]byte, len(ct.Body))
	for i := range ct.Body {
		msg[i] = ct.Body[i] ^ p.key[ct.Offset+i]
		p.key[ct.Offset+i] = 0
	}
	return msg, nil
}
