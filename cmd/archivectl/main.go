// Command archivectl archives files with any of the framework's
// encodings, writing one shard per simulated storage node directory plus
// a manifest. It demonstrates the crypto-agile put/get path end to end on
// real files, including recovery from lost nodes.
//
// Usage:
//
//	archivectl put   -in secret.pdf -store ./store -encoding shamir -n 8 -t 4
//	archivectl get   -manifest ./store/secret.pdf.manifest.json -out recovered.pdf
//	archivectl info  -manifest ./store/secret.pdf.manifest.json
//	archivectl scrub -manifest ./store/secret.pdf.manifest.json [-repair]
//	archivectl stats -encoding erasure -n 8 -t 4 -objects 32 [-offline 2] [-transient 0.2]
//	archivectl serve -encoding erasure -n 8 -t 4 [-offline 2] [-transient 0.2] [-addr 127.0.0.1:8080] [-cache-bytes 67108864]
//
// stats and serve run the vault's integrity chain on the library default,
// group.Default() (2048-bit p, 256-bit q).
//
// Encodings: replication, erasure, aes, cascade, entropic, aont, shamir,
// packed, lrss. After put, delete up to n−min node directories and get
// still succeeds; at or below the privacy threshold, the shards reveal
// nothing (for the ITS encodings, unconditionally).
package main

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"securearchive/internal/core"
)

type manifest struct {
	Encoding     string `json:"encoding"`
	N            int    `json:"n"`
	Min          int    `json:"min"`
	T            int    `json:"t"`
	K            int    `json:"k"`
	PlainLen     int    `json:"plain_len"`
	Object       string `json:"object"`
	Store        string `json:"store"`
	PublicMeta   string `json:"public_meta,omitempty"`
	ClientSecret string `json:"client_secret,omitempty"` // kept by the owner, NOT on nodes
	// ShardDigests are SHA-256 digests of each shard, for scrubbing.
	ShardDigests []string `json:"shard_digests"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "put":
		cmdPut(os.Args[2:])
	case "get":
		cmdGet(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "scrub":
		cmdScrub(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: archivectl put|get|info|scrub|stats|serve [flags]")
	fmt.Fprintln(os.Stderr, "  stats and serve use the production 2048-bit commitment group")
	os.Exit(2)
}

func buildEncoding(name string, n, t, k int) (core.Encoding, error) {
	switch name {
	case "replication":
		return core.Replication{N: n}, nil
	case "erasure":
		return core.Erasure{K: t, N: n}, nil
	case "aes":
		return core.TraditionalEncryption{K: t, N: n}, nil
	case "cascade":
		return core.CascadeEncryption{K: t, N: n}, nil
	case "entropic":
		return core.EntropicEncryption{K: t, N: n, AssumedEntropyBits: 0}, nil
	case "aont":
		return core.AONTRS{K: t, N: n}, nil
	case "shamir":
		return core.SecretSharing{T: t, N: n}, nil
	case "packed":
		return core.PackedSharing{T: t, K: k, N: n}, nil
	case "lrss":
		return core.LRSS{T: t, N: n}, nil
	default:
		return nil, fmt.Errorf("unknown encoding %q", name)
	}
}

func cmdPut(args []string) {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	store := fs.String("store", "./store", "store directory (one subdir per node)")
	encName := fs.String("encoding", "shamir", "encoding scheme")
	n := fs.Int("n", 8, "total shards / nodes")
	t := fs.Int("t", 4, "threshold (privacy or decode, per encoding)")
	k := fs.Int("k", 3, "pack factor (packed encoding only)")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("put: -in required"))
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	enc, err := buildEncoding(*encName, *n, *t, *k)
	if err != nil {
		fatal(err)
	}
	e, err := enc.Encode(data, rand.Reader)
	if err != nil {
		fatal(err)
	}
	total, min := enc.Shards()
	m := &manifest{
		Encoding: *encName,
		N:        total,
		Min:      min,
		T:        *t,
		K:        *k,
		PlainLen: e.PlainLen,
		Object:   filepath.Base(*in),
		Store:    *store,
	}
	mpath := filepath.Join(*store, m.Object+".manifest.json")
	if err := m.write(mpath, e); err != nil {
		fatal(err)
	}
	fmt.Printf("archived %s: %d bytes → %d shards (%s), any %d reconstruct\n",
		m.Object, len(data), total, *encName, min)
	fmt.Printf("stored bytes: %d (%.2fx)\nmanifest: %s\n", e.StoredBytes(), e.Overhead(), mpath)
	if len(e.ClientSecret) > 0 {
		fmt.Printf("NOTE: manifest contains %d bytes of client-side key material — guard it\n", len(e.ClientSecret))
	}
}

func (m *manifest) shardPath(i int) string {
	return filepath.Join(m.Store, fmt.Sprintf("node-%02d", i), m.Object+".shard")
}

// write stores e's shards, one per node directory, and then the manifest
// at path describing them: put's initial write and a scrub repair's
// rewrite.
func (m *manifest) write(path string, e *core.Encoded) error {
	for i, sh := range e.Shards {
		if err := os.MkdirAll(filepath.Dir(m.shardPath(i)), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(m.shardPath(i), sh, 0o644); err != nil {
			return err
		}
	}
	m.ShardDigests = nil
	for _, d := range core.ShardDigests(e.Shards) {
		m.ShardDigests = append(m.ShardDigests, base64.StdEncoding.EncodeToString(d[:]))
	}
	m.PublicMeta = base64.StdEncoding.EncodeToString(e.PublicMeta)
	m.ClientSecret = base64.StdEncoding.EncodeToString(e.ClientSecret)
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, mb, 0o600)
}

// shardSet is one object's shards as read from the node directories,
// classified against the manifest's digests by core.CheckShards — the
// check the vault runs on every read. Corrupt shards are dropped, so
// nothing ever decodes from rotted bytes.
type shardSet struct {
	shards                    [][]byte
	healthy, missing, corrupt []int
}

// readShards reads every node's shard of m's object and checks it.
func (m *manifest) readShards() (*shardSet, error) {
	digests := make([][sha256.Size]byte, len(m.ShardDigests))
	for i, d := range m.ShardDigests {
		raw, err := base64.StdEncoding.DecodeString(d)
		if err != nil || len(raw) != sha256.Size {
			return nil, fmt.Errorf("manifest digest %d malformed", i)
		}
		copy(digests[i][:], raw)
	}
	s := &shardSet{shards: make([][]byte, m.N)}
	for i := range s.shards {
		if b, err := os.ReadFile(m.shardPath(i)); err == nil {
			s.shards[i] = b
		}
	}
	s.healthy, s.missing, s.corrupt = core.CheckShards(s.shards, digests)
	for _, i := range s.corrupt {
		s.shards[i] = nil
	}
	return s, nil
}

// decode rebuilds m's object from the healthy shards, refusing outright
// when fewer than m.Min of them remain.
func (m *manifest) decode(enc core.Encoding, s *shardSet) ([]byte, error) {
	if len(s.healthy) < m.Min {
		return nil, fmt.Errorf("%s: %d/%d healthy shards (%d missing, %d corrupt), need %d",
			m.Object, len(s.healthy), m.N, len(s.missing), len(s.corrupt), m.Min)
	}
	meta, err := base64.StdEncoding.DecodeString(m.PublicMeta)
	if err != nil {
		return nil, err
	}
	secret, err := base64.StdEncoding.DecodeString(m.ClientSecret)
	if err != nil {
		return nil, err
	}
	data, err := enc.Decode(&core.Encoded{
		PlainLen: m.PlainLen, Shards: s.shards, PublicMeta: meta, ClientSecret: secret,
	})
	if err != nil {
		return nil, fmt.Errorf("decode from %d/%d healthy shards: %w", len(s.healthy), m.N, err)
	}
	return data, nil
}

// openManifest loads the manifest at path and rebuilds its encoding.
func openManifest(path string) (*manifest, core.Encoding, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, nil, err
	}
	enc, err := buildEncoding(m.Encoding, m.N, m.T, m.K)
	if err != nil {
		return nil, nil, err
	}
	return m, enc, nil
}

func cmdGet(args []string) {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	mpath := fs.String("manifest", "", "manifest file")
	out := fs.String("out", "", "output file")
	fs.Parse(args)
	if *mpath == "" || *out == "" {
		fatal(fmt.Errorf("get: -manifest and -out required"))
	}
	if err := get(*mpath, *out); err != nil {
		fatal(fmt.Errorf("get: %w", err))
	}
}

// get recovers the object the manifest at mpath describes into out.
func get(mpath, out string) error {
	m, enc, err := openManifest(mpath)
	if err != nil {
		return err
	}
	s, err := m.readShards()
	if err != nil {
		return err
	}
	data, err := m.decode(enc, s)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("recovered %s: %d bytes from %d/%d healthy shards → %s\n", m.Object, len(data), len(s.healthy), m.N, out)
	return nil
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	mpath := fs.String("manifest", "", "manifest file")
	fs.Parse(args)
	if *mpath == "" {
		fatal(fmt.Errorf("info: -manifest required"))
	}
	m, enc, err := openManifest(*mpath)
	if err != nil {
		fatal(err)
	}
	s, err := m.readShards()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("object:     %s (%d bytes)\n", m.Object, m.PlainLen)
	fmt.Printf("encoding:   %s (%s, leakage-resilient: %v)\n", enc.Name(), enc.Class(), enc.LeakageResilient())
	fmt.Printf("dispersal:  %d shards, any %d reconstruct\n", m.N, m.Min)
	fmt.Printf("shards:     %d/%d healthy (%d missing, %d corrupt) — %s\n",
		len(s.healthy), m.N, len(s.missing), len(s.corrupt), healthWord(len(s.healthy), m.Min))
}

// cmdScrub verifies every shard against its manifest digest and, with
// -repair, rebuilds missing or corrupt shards by decoding from the
// healthy ones and re-encoding. Re-encoding draws fresh randomness, so
// for the sharing-based encodings a repair doubles as a share refresh;
// the manifest is rewritten to match.
func cmdScrub(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	mpath := fs.String("manifest", "", "manifest file")
	repair := fs.Bool("repair", false, "rebuild bad/missing shards")
	fs.Parse(args)
	if *mpath == "" {
		fatal(fmt.Errorf("scrub: -manifest required"))
	}
	m, enc, err := openManifest(*mpath)
	if err != nil {
		fatal(err)
	}
	s, err := m.readShards()
	if err != nil {
		fatal(fmt.Errorf("scrub: %w", err))
	}
	for _, i := range s.missing {
		fmt.Printf("node-%02d: MISSING\n", i)
	}
	for _, i := range s.corrupt {
		fmt.Printf("node-%02d: CORRUPT (digest mismatch)\n", i)
	}
	healthy, bad := len(s.healthy), len(s.missing)+len(s.corrupt)
	fmt.Printf("scrub: %d healthy, %d bad of %d shards — %s\n", healthy, bad, m.N, healthWord(healthy, m.Min))
	if bad == 0 || !*repair {
		if bad > 0 {
			fmt.Println("run with -repair to rebuild")
		}
		return
	}
	// Repair: decode from healthy shards, re-encode, rewrite everything.
	data, err := m.decode(enc, s)
	if err != nil {
		fatal(fmt.Errorf("repair: %w", err))
	}
	e, err := enc.Encode(data, rand.Reader)
	if err != nil {
		fatal(err)
	}
	if err := m.write(*mpath, e); err != nil {
		fatal(err)
	}
	fmt.Printf("repaired: %d shards rewritten (shares re-randomised), manifest updated\n", len(e.Shards))
}

func healthWord(present, min int) string {
	switch {
	case present >= min+1:
		return "healthy"
	case present >= min:
		return "DEGRADED: at minimum, repair now"
	default:
		return "LOST: below reconstruction threshold"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "archivectl:", err)
	os.Exit(1)
}
