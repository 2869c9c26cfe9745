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
	object := filepath.Base(*in)
	for i, sh := range e.Shards {
		dir := filepath.Join(*store, fmt.Sprintf("node-%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, object+".shard"), sh, 0o644); err != nil {
			fatal(err)
		}
	}
	total, min := enc.Shards()
	fresh := core.ShardDigests(e.Shards)
	digests := make([]string, len(fresh))
	for i, d := range fresh {
		digests[i] = base64.StdEncoding.EncodeToString(d[:])
	}
	m := manifest{
		Encoding:     *encName,
		N:            total,
		Min:          min,
		T:            *t,
		K:            *k,
		PlainLen:     e.PlainLen,
		Object:       object,
		Store:        *store,
		PublicMeta:   base64.StdEncoding.EncodeToString(e.PublicMeta),
		ClientSecret: base64.StdEncoding.EncodeToString(e.ClientSecret),
		ShardDigests: digests,
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err)
	}
	mpath := filepath.Join(*store, object+".manifest.json")
	if err := os.WriteFile(mpath, mb, 0o600); err != nil {
		fatal(err)
	}
	fmt.Printf("archived %s: %d bytes → %d shards (%s), any %d reconstruct\n",
		object, len(data), total, *encName, min)
	fmt.Printf("stored bytes: %d (%.2fx)\nmanifest: %s\n", e.StoredBytes(), e.Overhead(), mpath)
	if len(e.ClientSecret) > 0 {
		fmt.Printf("NOTE: manifest contains %d bytes of client-side key material — guard it\n", len(e.ClientSecret))
	}
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func cmdGet(args []string) {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	mpath := fs.String("manifest", "", "manifest file")
	out := fs.String("out", "", "output file")
	fs.Parse(args)
	if *mpath == "" || *out == "" {
		fatal(fmt.Errorf("get: -manifest and -out required"))
	}
	m, err := loadManifest(*mpath)
	if err != nil {
		fatal(err)
	}
	enc, err := buildEncoding(m.Encoding, m.N, m.T, m.K)
	if err != nil {
		fatal(err)
	}
	shards := make([][]byte, m.N)
	available := 0
	for i := 0; i < m.N; i++ {
		p := filepath.Join(m.Store, fmt.Sprintf("node-%02d", i), m.Object+".shard")
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		shards[i] = b
		available++
	}
	meta, err := base64.StdEncoding.DecodeString(m.PublicMeta)
	if err != nil {
		fatal(err)
	}
	secret, err := base64.StdEncoding.DecodeString(m.ClientSecret)
	if err != nil {
		fatal(err)
	}
	e := &core.Encoded{
		Scheme:       m.Encoding,
		PlainLen:     m.PlainLen,
		Shards:       shards,
		PublicMeta:   meta,
		ClientSecret: secret,
	}
	data, err := enc.Decode(e)
	if err != nil {
		fatal(fmt.Errorf("decode with %d/%d shards: %w", available, m.N, err))
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("recovered %s: %d bytes from %d/%d shards → %s\n", m.Object, len(data), available, m.N, *out)
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	mpath := fs.String("manifest", "", "manifest file")
	fs.Parse(args)
	if *mpath == "" {
		fatal(fmt.Errorf("info: -manifest required"))
	}
	m, err := loadManifest(*mpath)
	if err != nil {
		fatal(err)
	}
	enc, err := buildEncoding(m.Encoding, m.N, m.T, m.K)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("object:     %s (%d bytes)\n", m.Object, m.PlainLen)
	fmt.Printf("encoding:   %s (%s, leakage-resilient: %v)\n", enc.Name(), enc.Class(), enc.LeakageResilient())
	fmt.Printf("dispersal:  %d shards, any %d reconstruct\n", m.N, m.Min)
	present := 0
	for i := 0; i < m.N; i++ {
		p := filepath.Join(m.Store, fmt.Sprintf("node-%02d", i), m.Object+".shard")
		if _, err := os.Stat(p); err == nil {
			present++
		}
	}
	fmt.Printf("shards:     %d/%d present — %s\n", present, m.N, healthWord(present, m.Min))
}

// cmdScrub verifies every shard against its manifest digest and, with
// -repair, rebuilds missing or corrupt shards by decoding from the
// healthy ones and re-encoding. The digest classification is the
// library's (core.CheckShards — the same logic Vault.Scrub runs against
// the cluster). Re-encoding draws fresh randomness, so for the
// sharing-based encodings a repair doubles as a share refresh; the
// manifest is rewritten to match.
func cmdScrub(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	mpath := fs.String("manifest", "", "manifest file")
	repair := fs.Bool("repair", false, "rebuild bad/missing shards")
	fs.Parse(args)
	if *mpath == "" {
		fatal(fmt.Errorf("scrub: -manifest required"))
	}
	m, err := loadManifest(*mpath)
	if err != nil {
		fatal(err)
	}
	enc, err := buildEncoding(m.Encoding, m.N, m.T, m.K)
	if err != nil {
		fatal(err)
	}
	digests := make([][sha256.Size]byte, len(m.ShardDigests))
	for i, d := range m.ShardDigests {
		raw, err := base64.StdEncoding.DecodeString(d)
		if err != nil || len(raw) != sha256.Size {
			fatal(fmt.Errorf("scrub: manifest digest %d malformed", i))
		}
		copy(digests[i][:], raw)
	}
	shards := make([][]byte, m.N)
	for i := 0; i < m.N; i++ {
		p := filepath.Join(m.Store, fmt.Sprintf("node-%02d", i), m.Object+".shard")
		if b, err := os.ReadFile(p); err == nil {
			shards[i] = b
		}
	}
	healthyIdx, missing, corrupt := core.CheckShards(shards, digests)
	for _, i := range missing {
		fmt.Printf("node-%02d: MISSING\n", i)
	}
	for _, i := range corrupt {
		fmt.Printf("node-%02d: CORRUPT (digest mismatch)\n", i)
		shards[i] = nil // never decode from rotted bytes
	}
	healthy, bad := len(healthyIdx), len(missing)+len(corrupt)
	fmt.Printf("scrub: %d healthy, %d bad of %d shards — %s\n", healthy, bad, m.N, healthWord(healthy, m.Min))
	if bad == 0 || !*repair {
		if bad > 0 {
			fmt.Println("run with -repair to rebuild")
		}
		return
	}
	// Repair: decode from healthy shards, re-encode, rewrite everything.
	meta, _ := base64.StdEncoding.DecodeString(m.PublicMeta)
	secret, _ := base64.StdEncoding.DecodeString(m.ClientSecret)
	data, err := enc.Decode(&core.Encoded{
		Scheme: m.Encoding, PlainLen: m.PlainLen,
		Shards: shards, PublicMeta: meta, ClientSecret: secret,
	})
	if err != nil {
		fatal(fmt.Errorf("repair: cannot decode from %d healthy shards: %w", healthy, err))
	}
	e, err := enc.Encode(data, rand.Reader)
	if err != nil {
		fatal(err)
	}
	for i, sh := range e.Shards {
		dir := filepath.Join(m.Store, fmt.Sprintf("node-%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.Object+".shard"), sh, 0o644); err != nil {
			fatal(err)
		}
	}
	fresh := core.ShardDigests(e.Shards)
	b64 := make([]string, len(fresh))
	for i, d := range fresh {
		b64[i] = base64.StdEncoding.EncodeToString(d[:])
	}
	m.PublicMeta = base64.StdEncoding.EncodeToString(e.PublicMeta)
	m.ClientSecret = base64.StdEncoding.EncodeToString(e.ClientSecret)
	m.ShardDigests = b64
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*mpath, mb, 0o600); err != nil {
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
