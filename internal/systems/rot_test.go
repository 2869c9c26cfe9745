package systems

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
)

// rot flips one byte of the live shard at key on its node. It writes a
// damaged copy: the bytes a read returns belong to the store.
func rot(t *testing.T, c *cluster.Cluster, key cluster.ShardKey, at int) {
	t.Helper()
	sh, err := c.GetCtx(context.Background(), key.Index, key)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), sh.Data...)
	b[at] ^= 0xFF
	overwrite(t, c, key.Index, key, b)
}

// TestOneRottedShardNeverReadsWrong flips one byte of shard 0, then of
// shard 1, of a 20,000-byte object in every Table 1 system and every
// PASIS mode. Five or more healthy shards remain, so every system must
// read the exact bytes back.
func TestOneRottedShardNeverReadsWrong(t *testing.T) {
	key := []byte("a 28-byte master key secret!")
	obj := make([]byte, 20000)
	rand.Read(obj)
	type rotCase struct {
		name  string
		data  []byte
		build func(c *cluster.Cluster) (Archive, error)
	}
	cases := []rotCase{
		{"ArchiveSafeLT", obj, func(c *cluster.Cluster) (Archive, error) { return NewArchiveSafeLT(c, nil, 4, 2) }},
		{"AONT-RS", obj, func(c *cluster.Cluster) (Archive, error) { return NewAONTRS(c, 4, 6) }},
		{"HasDPSS", key, func(c *cluster.Cluster) (Archive, error) { return NewHasDPSS(c, 6, 3, group.Test()) }},
		{"LINCOS", obj, func(c *cluster.Cluster) (Archive, error) { return NewLINCOS(c, 6, 3, group.Test(), 1) }},
		{"POTSHARDS", obj, func(c *cluster.Cluster) (Archive, error) { return NewPOTSHARDS(c, 6, 3) }},
		{"VSR", obj, func(c *cluster.Cluster) (Archive, error) { return NewVSRArchive(c, 6, 3) }},
		{"CloudAES", obj, func(c *cluster.Cluster) (Archive, error) { return NewCloudAES(c, 4, 2) }},
	}
	for _, mode := range []PASISMode{PASISReplication, PASISErasure, PASISEncryptEC, PASISSecretShare} {
		cases = append(cases, rotCase{"PASIS-" + mode.String(), obj,
			func(c *cluster.Cluster) (Archive, error) { return NewPASIS(c, mode, 6, 3) }})
	}
	for _, tc := range cases {
		for _, shard := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/shard%d", tc.name, shard), func(t *testing.T) {
				c := cluster.New(8, nil)
				sys, err := tc.build(c)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sys.Store("obj", tc.data, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				rot(t, c, cluster.ShardKey{Object: "obj", Index: shard}, 5)
				got, err := sys.Retrieve(ref)
				switch {
				case err == nil && !bytes.Equal(got, tc.data):
					t.Fatal("wrong bytes with a nil error")
				case err != nil:
					t.Fatalf("read failed with %d healthy shards left: %v", c.Size()-1, err)
				}
			})
		}
	}
}

// TestArchiveSafeLTRoutesAroundRotAcrossRenew: a rotted data or parity
// shard is skipped by Retrieve and by the read inside Renew, whose
// rewrite then replaces it.
func TestArchiveSafeLTRoutesAroundRotAcrossRenew(t *testing.T) {
	obj := make([]byte, 20000)
	rand.Read(obj)
	for _, shard := range []int{0, 1, 5} {
		c := cluster.New(8, nil)
		asl, err := NewArchiveSafeLT(c, nil, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := asl.Store("obj", obj, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		rot(t, c, cluster.ShardKey{Object: "obj", Index: shard}, 5)
		wantRetrieve(t, asl, ref, obj)
		if err := asl.Renew(ref, rand.Reader); err != nil {
			t.Fatalf("shard %d rotted: renew: %v", shard, err)
		}
		wantRetrieve(t, asl, ref, obj)
	}
}
