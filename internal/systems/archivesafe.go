package systems

import (
	"crypto/sha256"
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/rs"
	"securearchive/internal/sec"
)

// ArchiveSafeLT models Sabry & Samavi's cascade-cipher archive: each
// object is wrapped in layers of ciphers from independent families, the
// envelope is erasure-coded across nodes, and when a layer's family is
// presumed weakened the archive wraps a NEW outer layer without
// decrypting (Renew). The cascade is secure while at least one layer
// survives; storage cost stays low; and the harvest-now-decrypt-later
// adversary wins only after every family in a harvested envelope's stack
// has fallen.
type ArchiveSafeLT struct {
	Cluster *cluster.Cluster
	Code    *rs.Code
	Stack   []cascade.Scheme
	// keys is the owner's keyring: object → layer keys (never on nodes).
	keys   map[string][]cascade.LayerKey
	layers map[string][]cascade.Layer
	ctLen  map[string]int
	// digests[object][i] is the SHA-256 of shard i as last written:
	// reads discard a shard that no longer matches and fetch another.
	digests map[string][][sha256.Size]byte
}

// NewArchiveSafeLT builds the system with the given layer stack and
// k-of-(k+m) dispersal.
func NewArchiveSafeLT(c *cluster.Cluster, stack []cascade.Scheme, dataShards, parityShards int) (*ArchiveSafeLT, error) {
	if len(stack) == 0 {
		stack = cascade.Schemes()
	}
	code, err := rs.New(dataShards, parityShards)
	if err != nil {
		return nil, err
	}
	if code.TotalShards() > c.Size() {
		return nil, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, code.TotalShards())
	}
	return &ArchiveSafeLT{
		Cluster: c,
		Code:    code,
		Stack:   stack,
		keys:    make(map[string][]cascade.LayerKey),
		layers:  make(map[string][]cascade.Layer),
		ctLen:   make(map[string]int),
		digests: make(map[string][][sha256.Size]byte),
	}, nil
}

// Name implements Archive.
func (s *ArchiveSafeLT) Name() string { return "ArchiveSafeLT" }

// Store implements Archive.
func (s *ArchiveSafeLT) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	keys, err := cascade.GenerateKeys(s.Stack, rnd)
	if err != nil {
		return nil, err
	}
	env, err := cascade.Encrypt(data, keys, rnd)
	if err != nil {
		return nil, err
	}
	shards, err := s.Code.Encode(env.Body)
	if err != nil {
		return nil, err
	}
	if err := putShards(s.Cluster, object, shards); err != nil {
		return nil, err
	}
	s.keys[object] = keys
	s.layers[object] = env.Layers
	s.ctLen[object] = len(env.Body)
	s.digests[object] = core.ShardDigests(shards)
	return &Ref{System: s.Name(), Object: object, PlainLen: len(data)}, nil
}

// envelope rebuilds the stored envelope from the first k shards that
// still match their digests.
func (s *ArchiveSafeLT) envelope(ref *Ref) (*cascade.Envelope, error) {
	layers, ok := s.layers[ref.Object]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	shards, err := getShardsDegraded(s.Cluster, ref.Object, s.Code.TotalShards(), s.Code.DataShards(), committed(s.digests[ref.Object]))
	if err != nil {
		return nil, err
	}
	if err := s.Code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
	}
	body, err := s.Code.Join(shards, s.ctLen[ref.Object])
	if err != nil {
		return nil, err
	}
	return &cascade.Envelope{Layers: layers, Body: body}, nil
}

// Retrieve implements Archive.
func (s *ArchiveSafeLT) Retrieve(ref *Ref) ([]byte, error) {
	env, err := s.envelope(ref)
	if err != nil {
		return nil, err
	}
	return cascade.Decrypt(env, s.keys[ref.Object])
}

// Renew implements Archive: the ArchiveSafeLT response to a weakening
// layer — read the envelope, wrap one fresh outer layer (a cipher family
// chosen round-robin), and re-store. No decryption happens, but the full
// envelope IS read and rewritten: the I/O bill of §3.2 applies.
func (s *ArchiveSafeLT) Renew(ref *Ref, rnd io.Reader) error {
	env, err := s.envelope(ref)
	if err != nil {
		return err
	}
	next := s.Stack[len(s.layers[ref.Object])%len(s.Stack)]
	nk, err := cascade.GenerateKeys([]cascade.Scheme{next}, rnd)
	if err != nil {
		return err
	}
	if err := cascade.Wrap(env, nk[0], rnd); err != nil {
		return err
	}
	shards, err := s.Code.Encode(env.Body)
	if err != nil {
		return err
	}
	if err := putShards(s.Cluster, ref.Object, shards); err != nil {
		return err
	}
	s.keys[ref.Object] = append(s.keys[ref.Object], nk[0])
	s.layers[ref.Object] = env.Layers
	s.ctLen[ref.Object] = len(env.Body)
	s.digests[ref.Object] = core.ShardDigests(shards)
	return nil
}

// Classify implements Archive.
func (s *ArchiveSafeLT) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational,
		RestClass:    sec.Computational,
	}
}

// Breach implements Archive. The envelope falls only when the adversary
// holds enough shards AND every layer family in the stack it harvested is
// broken; any surviving layer shields everything beneath it.
func (s *ArchiveSafeLT) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	layers, ok := s.layers[ref.Object]
	if !ok {
		return BreachResult{Reason: "object unknown"}
	}
	have := adv.MaxAnyEpochShards(ref.Object)
	if have < s.Code.DataShards() {
		return BreachResult{Reason: fmt.Sprintf("only %d/%d shards harvested", have, s.Code.DataShards())}
	}
	broken := make(map[cascade.Scheme]bool)
	for _, l := range layers {
		if breaks.CipherBrokenAt(l.Scheme, epoch) {
			broken[l.Scheme] = true
		}
	}
	env := &cascade.Envelope{Layers: layers}
	if env.SecureAgainst(broken) {
		return BreachResult{Reason: "at least one cascade layer survives"}
	}
	// Every layer broken: cryptanalysis recovers each layer key in turn.
	full, err := s.envelope(ref)
	if err != nil {
		return BreachResult{Violated: true, Reason: "all layers broken; ciphertext partially lost"}
	}
	keys := s.keys[ref.Object]
	pt, remaining, err := cascade.StripBroken(full, broken, func(layer int, _ cascade.Scheme) []byte {
		return keys[layer].Key
	})
	if err != nil || len(remaining) != 0 {
		return BreachResult{Violated: true, Reason: "all layers broken; strip failed"}
	}
	return BreachResult{Violated: true, Full: true, Recovered: pt,
		Reason: "harvested envelope + every cascade family broken"}
}
