package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/trajectory"
)

// FuzzOpenManifest feeds arbitrary bytes to the two JSON files a durable
// store trusts when it opens: a delta index's MANIFEST, beside the
// snapshot its store wrote, and a sharded router's router.json, each in a
// fresh data directory. Either open must fail or give a store that closes;
// neither may panic. The seeds are the files OpenOrCreate wrote for a
// router whose shards were compacted once.
func FuzzOpenManifest(f *testing.F) {
	full := testDataset(f, 48)
	base := full.Sample(40)
	cfg := Config{Shards: 2, Delta: delta.Config{CompactThreshold: -1}}
	dir := f.TempDir()
	dcfg := cfg
	dcfg.Durability = delta.Durability{Dir: dir}
	r, _, err := OpenOrCreate(base, dcfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range full.Trajs[40:] {
		if _, err := r.Insert(trajectory.Trajectory{Pts: tr.Pts}); err != nil {
			f.Fatal(err)
		}
	}
	if err := r.CompactAll(); err != nil {
		f.Fatal(err)
	}
	if err := r.Close(); err != nil {
		f.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	shardDir := filepath.Join(dir, shardDirName(0))
	names, err := os.ReadDir(shardDir)
	if err != nil {
		f.Fatal(err)
	}
	snaps := map[string][]byte{}
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps[e.Name()] = read(filepath.Join(shardDir, e.Name()))
		}
	}
	if len(snaps) == 0 {
		f.Fatal("the compacted shard wrote no snapshot")
	}
	f.Add(read(filepath.Join(dir, routerManifestName)))
	f.Add(read(filepath.Join(shardDir, "MANIFEST")))
	f.Add([]byte(`{"version":1,"snapshot":"../router.json","last_seq":0}`))
	f.Add([]byte(`{"version":1,"shards":2,"partition_depth":8,"side":-1,"cuts":[0],"base_n":40}`))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ddir := t.TempDir()
		for name, b := range snaps {
			if err := os.WriteFile(filepath.Join(ddir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(ddir, "MANIFEST"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, _, err := delta.OpenOrCreate(base, delta.Config{CompactThreshold: -1, Durability: delta.Durability{Dir: ddir}})
		if err == nil {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}

		rdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(rdir, routerManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Durability = delta.Durability{Dir: rdir}
		r, _, err := OpenOrCreate(base, rcfg)
		if err == nil {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
