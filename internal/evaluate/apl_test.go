package evaluate

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"activitytraj/internal/dataset"
	"activitytraj/internal/geo"
	"activitytraj/internal/invindex"
	"activitytraj/internal/trajectory"
)

// encodeAPL encodes tr's APL segment as BuildTrajStore does — sorted
// (activity, point) pairs through entryScratch.encodeAPL — for tests that
// need a segment of one trajectory.
func encodeAPL(dst []byte, tr *trajectory.Trajectory) ([]byte, int) {
	var sc entryScratch
	for pi, p := range tr.Pts {
		for _, a := range p.Acts {
			sc.pairs = append(sc.pairs, uint64(a)<<32|uint64(pi))
		}
	}
	slices.Sort(sc.pairs)
	return sc.encodeAPL(dst)
}

// encodeAPLOracle is the map-based APL encoder: per activity the points
// carrying it, collected in a map, the activities sorted, then the blocks
// and the header. It is what the segment format was first written with.
func encodeAPLOracle(dst []byte, tr *trajectory.Trajectory) ([]byte, int) {
	postings := make(map[trajectory.ActivityID][]uint32)
	for pi, p := range tr.Pts {
		for _, a := range p.Acts {
			postings[a] = append(postings[a], uint32(pi))
		}
	}
	acts := make([]trajectory.ActivityID, 0, len(postings))
	for a := range postings {
		acts = append(acts, a)
	}
	slices.Sort(acts)

	var body []byte
	lens := make([]uint32, len(acts))
	for i, a := range acts {
		n := len(body)
		body = invindex.PostingList(postings[a]).AppendEncoded(body)
		lens[i] = uint32(len(body) - n)
	}

	hdrStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(acts)))
	prev := uint64(0)
	for i, a := range acts {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(a))
		} else {
			dst = binary.AppendUvarint(dst, uint64(a)-prev)
		}
		prev = uint64(a)
	}
	for _, l := range lens {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	hdrLen := len(dst) - hdrStart
	return append(dst, body...), hdrLen
}

// checkAPLBytes builds a store over ds and holds every trajectory's APL to
// the oracle: the segment the store holds and the header length the
// encoder returns after appendEntry's sort, byte for byte.
func checkAPLBytes(t *testing.T, ds *trajectory.Dataset) {
	t.Helper()
	ts, err := BuildTrajStore(ds, TrajStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	// appendEntry grows its store's directory; give it one of its own.
	dir := &TrajStore{lat: newLattice(ds.Bounds())}
	var sc entryScratch
	for i := range ds.Trajs {
		tr := &ds.Trajs[i]
		want, wantHdr := encodeAPLOracle(nil, tr)
		stored, err := ts.store.Read(ts.aplRefs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, want) {
			t.Fatalf("%s trajectory %d: stored APL %x, oracle %x", ds.Name, i, stored, want)
		}
		if err := dir.appendEntry(tr, &sc); err != nil {
			t.Fatal(err)
		}
		got, hdr := sc.encodeAPL([]byte{0xAA}) // a non-empty dst: the header length is the segment's own
		if !bytes.Equal(got[1:], want) || hdr != wantHdr {
			t.Fatalf("%s trajectory %d: encoded %x (header %d), oracle %x (header %d)", ds.Name, i, got[1:], hdr, want, wantHdr)
		}
	}
}

// TestAPLMatchesOracle: the APL encoded from appendEntry's sorted pairs is
// byte-identical, header length included, to the map-based encoder's, for
// every trajectory of the LA presets and for random trajectories with empty
// activity sets, one point, no point, and activities repeated across points
// and within one.
func TestAPLMatchesOracle(t *testing.T) {
	scales := []float64{0.02, 0.125}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		ds, err := dataset.Generate(dataset.LA(scale))
		if err != nil {
			t.Fatal(err)
		}
		checkAPLBytes(t, ds)
	}

	rng := rand.New(rand.NewSource(50))
	ds := &trajectory.Dataset{Name: "random"}
	for i := 0; i < 400; i++ {
		nPts := rng.Intn(40)
		switch i % 5 {
		case 0:
			nPts = 1
		case 1:
			nPts = 0
		}
		tr := trajectory.Trajectory{ID: trajectory.TrajID(i), Pts: make([]trajectory.Point, nPts)}
		vocab := 1 + rng.Intn(1<<uint(rng.Intn(21)))
		for j := range tr.Pts {
			tr.Pts[j].Loc = geo.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
			if i%7 == 3 {
				continue // no activity anywhere
			}
			for n := rng.Intn(5); n > 0; n-- {
				tr.Pts[j].Acts = append(tr.Pts[j].Acts, trajectory.ActivityID(rng.Intn(vocab)))
			}
			slices.Sort(tr.Pts[j].Acts)
			if i%3 != 0 { // a third keep an activity listed twice in one point
				tr.Pts[j].Acts = slices.Compact(tr.Pts[j].Acts)
			}
		}
		ds.Trajs = append(ds.Trajs, tr)
	}
	checkAPLBytes(t, ds)
}
