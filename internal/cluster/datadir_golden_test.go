package cluster

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"activitytraj/internal/delta"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

// dirDigests lists every file under root as "relative/path sha256", in path
// order.
func dirDigests(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		out = append(out, fmt.Sprintf("%s %x", filepath.ToSlash(rel), sha256.Sum256(data)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDataDirGolden pins the on-disk format of all three durable tiers (it
// lives here because this package imports the other two): each row runs a
// short scripted program — inserts across several 256-byte segment rotations,
// a delete, a re-delete, a compaction where the tier has one — closes, and
// compares the data directory's file list and every file's SHA-256 with
// digests recorded at 0a22871. Segment framing, the three record codecs,
// MANIFEST, router.json and snapshot naming cannot move without failing it;
// a deliberate format change re-records the row it touches.
func TestDataDirGolden(t *testing.T) {
	ds := testDataset(t, 150)
	l := testLayout(t, ds, 2)
	donors := ds.Trajs[:12]
	cases := []struct {
		name string
		run  func(t *testing.T, dir string)
		want []string
	}{
		{"delta", func(t *testing.T, dir string) {
			d, _, err := delta.OpenOrCreate(ds, delta.Config{
				CompactThreshold: -1,
				Durability:       delta.Durability{Dir: dir, SegmentBytes: 256},
			})
			must(t, err)
			for i, tr := range donors {
				_, err := d.Insert(trajectory.Trajectory{Pts: tr.Pts})
				must(t, err)
				if i == 7 {
					must(t, d.Delete(3))
					must(t, d.Delete(3)) // a no-op: not logged
					must(t, d.CompactNow())
				}
			}
			must(t, d.Close())
		}, []string{
			"MANIFEST 65e039fa8e98ac8468c1d8700e1f8896dce89aecec68e5c9d14c366e223e098d",
			"snap-00000000000000000009.atrj 90be9f28073c7c345fe61e5610b522cbdd8c5bb37126d4f82d2cd9c3c8e65df0",
			"wal-00000000000000000009.seg c6f6fcd3c9b55cc2c9351d1dbd023cccce90d944d523b68870f9f080e0dc3098",
			"wal-00000000000000000011.seg ddde6630a828c47c7267e8d6e30282a4ccd51b3a0cec5754ad73e66ec17744b0",
			"wal-00000000000000000012.seg 08e5d289ecacf3dee6ba98dc8171476f8d3678bbf721ae2a0cec5d0d42e23a4d",
			"wal-00000000000000000013.seg ac4a09f1d7718b8abff0555698ba40110330265081eec51da550b44df941850b",
		}},
		{"router", func(t *testing.T, dir string) {
			r, _, err := shard.OpenOrCreate(ds, shard.Config{
				Shards:     2,
				Delta:      delta.Config{CompactThreshold: -1},
				Durability: delta.Durability{Dir: dir, SegmentBytes: 256},
			})
			must(t, err)
			for i, tr := range donors {
				_, err := r.Insert(trajectory.Trajectory{Pts: tr.Pts})
				must(t, err)
				if i == 7 {
					must(t, r.Delete(3))
					must(t, r.Delete(3))
					must(t, r.CompactAll())
				}
			}
			must(t, r.Close())
		}, []string{
			"journal/wal-00000000000000000001.seg 1d1dabad6a2aedd258f4248b483c8f81adb100a5c1e90a5e18b04386abae8a92",
			"router.json e20b909811ec7b44b40f698f5568058afe3cab99fae5c2986e6349ce9447c439",
			"shard-000/MANIFEST 57bcdc52519576f8e51efe3668f4d71d423cf79472fda0e08ccf5bfff0864420",
			"shard-000/snap-00000000000000000007.atrj 75c970288540674abf133758d3a179fb447ec00768ffca134d8eee7247c94170",
			"shard-000/wal-00000000000000000007.seg 349c8edfd1ec7c892db46f1b131b836704e8f47d75861c7372bfdc4eeba17601",
			"shard-000/wal-00000000000000000009.seg af01c872e3593df240e3b319f4526d58812554a58e990f648339be3d75dc31b6",
			"shard-000/wal-00000000000000000010.seg 792098ded08ca5fa7f7c7560e1749b9b820682d11845ab57949c474a744316f6",
			"shard-001/MANIFEST f926e60ce9e8ad415c84d50c9b811f7de75bd7bb87ee90931b6f3308993be1a1",
			"shard-001/snap-00000000000000000002.atrj 821b1bb8477363fff37dae1d925ed0f7b24ee131182c7482837fd5c5c29b06d0",
			"shard-001/wal-00000000000000000002.seg 78db69f7f7da39498e76bd33807ae9a226f9f1f13270716f7da5dab0b6f22097",
			"shard-001/wal-00000000000000000003.seg 681906927dbf138f251c0b21db9405ac0df845ca3be5b3ac6e6cbdd40f5aac97",
		}},
		{"node", func(t *testing.T, dir string) {
			n, _, err := OpenNode(ds, l, NodeConfig{Shard: 0, Durability: delta.Durability{Dir: dir, SegmentBytes: 256}})
			must(t, err)
			muts := mutationsFor(t, ds, l, 0, 6)
			gids := make([]trajectory.TrajID, 0, len(muts))
			for gid := range muts {
				gids = append(gids, gid)
			}
			slices.Sort(gids)
			for i, gid := range gids {
				_, err := n.Insert(gid, muts[gid])
				must(t, err)
				if i == 3 {
					must(t, n.Delete(gids[0]))
					must(t, n.Delete(gids[0])) // a no-op that still logs
				}
			}
			must(t, n.Close())
		}, []string{
			"wal-00000000000000000001.seg 4f176c26f62e477f9f6dbf967fcbe99c2d545f71cee90c5dc103e08ec89e7de1",
			"wal-00000000000000000002.seg 79734f604ec868049471461963306c75ada12ab08a428fb632f65b02fec1a5bc",
			"wal-00000000000000000003.seg e483369831ae68c86b0074661a5748390b63072e413500829c9d938656386c24",
			"wal-00000000000000000006.seg 74cf7bca6ba62aa16bcc5df971b1ee3b1161fb5537c09666bf367333426b4bc2",
			"wal-00000000000000000007.seg 7dad98f09ba17e5b96f30e56884cd6048cae5d4ac2e966dc7a176d5ed65c55be",
			"wal-00000000000000000008.seg 95ef5a15528d07036ca638f85aa5076a3a0078fcfabdd5347c057a467c64ae24",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.run(t, dir)
			got := dirDigests(t, dir)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("data directory moved:\n got:\n%s\nwant:\n%s", lines(got), lines(tc.want))
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func lines(ss []string) string {
	var out string
	for _, s := range ss {
		out += fmt.Sprintf("\t%q,\n", s)
	}
	return out
}
