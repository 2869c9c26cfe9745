package cascade

import (
	"errors"
	"fmt"
	"io"
)

// Errors returned by the envelope layer.
var (
	ErrNoLayers    = errors.New("cascade: envelope has no layers")
	ErrKeyCount    = errors.New("cascade: key count does not match layer count")
	ErrKeyMismatch = errors.New("cascade: key does not match layer scheme")
)

// Layer records one applied cipher layer: the scheme and the public nonce.
// Innermost layer first. Keys are never stored in the envelope.
type Layer struct {
	Scheme Scheme
	Nonce  []byte
}

// Envelope is a cascade-encrypted object: the layer stack (innermost
// first) and the resulting ciphertext. Envelopes are what archival nodes
// store; the matching keys live with the owner (or a key-management
// sharing, per §4's HasDPSS discussion).
type Envelope struct {
	Layers []Layer
	Body   []byte
}

// LayerKey pairs a scheme with its key material, in layer order.
type LayerKey struct {
	Scheme Scheme
	Key    []byte
}

// GenerateKeys samples fresh independent keys for the given scheme stack.
// Key independence is what makes the cascade's security the OR of its
// layers; deriving layer keys from one master secret would collapse that.
func GenerateKeys(schemes []Scheme, rnd io.Reader) ([]LayerKey, error) {
	keys := make([]LayerKey, len(schemes))
	for i, s := range schemes {
		c, err := Get(s)
		if err != nil {
			return nil, err
		}
		k := make([]byte, c.KeySize())
		if _, err := io.ReadFull(rnd, k); err != nil {
			return nil, fmt.Errorf("cascade: reading randomness: %w", err)
		}
		keys[i] = LayerKey{Scheme: s, Key: k}
	}
	return keys, nil
}

// Encrypt applies the key stack in order (keys[0] innermost) with fresh
// nonces and returns the envelope.
func Encrypt(plaintext []byte, keys []LayerKey, rnd io.Reader) (*Envelope, error) {
	if len(keys) == 0 {
		return nil, ErrNoLayers
	}
	body := append([]byte(nil), plaintext...)
	env := &Envelope{Body: body, Layers: make([]Layer, 0, len(keys))}
	for _, lk := range keys {
		if err := wrapInPlace(env, lk, rnd); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// Wrap adds one outer layer to an existing envelope without decrypting —
// the ArchiveSafeLT response when inner layers are presumed weakened.
// The caller keeps the new key alongside the old ones; decryption now
// needs all of them.
func Wrap(env *Envelope, key LayerKey, rnd io.Reader) error {
	if len(env.Layers) == 0 {
		return ErrNoLayers
	}
	return wrapInPlace(env, key, rnd)
}

func wrapInPlace(env *Envelope, lk LayerKey, rnd io.Reader) error {
	c, err := Get(lk.Scheme)
	if err != nil {
		return err
	}
	if len(lk.Key) != c.KeySize() {
		return fmt.Errorf("%w: scheme %s", ErrKeyMismatch, lk.Scheme)
	}
	nonce := make([]byte, c.NonceSize())
	if _, err := io.ReadFull(rnd, nonce); err != nil {
		return fmt.Errorf("cascade: reading randomness: %w", err)
	}
	if err := c.XOR(env.Body, env.Body, lk.Key, nonce); err != nil {
		return err
	}
	env.Layers = append(env.Layers, Layer{Scheme: lk.Scheme, Nonce: nonce})
	return nil
}

// Decrypt strips all layers (outermost first) and returns the plaintext.
// keys must be in the same order as at encryption (innermost first) and
// match the envelope's layer schemes.
func Decrypt(env *Envelope, keys []LayerKey) ([]byte, error) {
	if len(env.Layers) == 0 {
		return nil, ErrNoLayers
	}
	if len(keys) != len(env.Layers) {
		return nil, fmt.Errorf("%w: %d keys for %d layers", ErrKeyCount, len(keys), len(env.Layers))
	}
	body := append([]byte(nil), env.Body...)
	for i := len(env.Layers) - 1; i >= 0; i-- {
		layer := env.Layers[i]
		lk := keys[i]
		if lk.Scheme != layer.Scheme {
			return nil, fmt.Errorf("%w: layer %d is %s, key is %s", ErrKeyMismatch, i, layer.Scheme, lk.Scheme)
		}
		c, err := Get(layer.Scheme)
		if err != nil {
			return nil, err
		}
		if err := c.XOR(body, body, lk.Key, layer.Nonce); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// StripBroken models cryptanalysis for the adversary simulator: it removes
// every layer whose scheme appears in broken (a break is modelled as key
// recovery, so the adversary can undo those layers), using keyOracle to
// obtain the recovered keys. It returns the residual body and the schemes
// of the layers that still protect it. If no layers remain, the return is
// the plaintext — the envelope has fallen.
func StripBroken(env *Envelope, broken map[Scheme]bool, keyOracle func(layer int, s Scheme) []byte) ([]byte, []Scheme, error) {
	body := append([]byte(nil), env.Body...)
	remaining := make([]Scheme, 0, len(env.Layers))
	// Layers can only be stripped outermost-inward; an unbroken outer
	// layer shields the broken layers beneath it (keystream alignment is
	// lost). Walk from the outside and stop at the first survivor.
	stopAt := -1
	for i := len(env.Layers) - 1; i >= 0; i-- {
		if !broken[env.Layers[i].Scheme] {
			stopAt = i
			break
		}
	}
	for i := len(env.Layers) - 1; i > stopAt; i-- {
		layer := env.Layers[i]
		c, err := Get(layer.Scheme)
		if err != nil {
			return nil, nil, err
		}
		key := keyOracle(i, layer.Scheme)
		if err := c.XOR(body, body, key, layer.Nonce); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i <= stopAt; i++ {
		remaining = append(remaining, env.Layers[i].Scheme)
	}
	return body, remaining, nil
}

// SecureAgainst reports whether the envelope still hides its plaintext
// when the given schemes are broken: true iff at least one layer's scheme
// survives. This is the cascade combiner property in decision form.
func (e *Envelope) SecureAgainst(broken map[Scheme]bool) bool {
	for _, l := range e.Layers {
		if !broken[l.Scheme] {
			return true
		}
	}
	return false
}
