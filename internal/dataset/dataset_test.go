package dataset

import (
	"testing"
	"time"

	"activitytraj/internal/trajectory"
)

func genSmall(t testing.TB, seed int64) *trajectory.Dataset {
	t.Helper()
	ds, err := Generate(Config{
		Name: "t", Seed: seed, NumTrajectories: 300, NumVenues: 700,
		VocabSize: 400, RegionW: 30, RegionH: 30, Clusters: 6, TrajLenMean: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	a := genSmall(t, 7)
	if err := a.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	b := genSmall(t, 7)
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("same seed, different stats: %+v vs %+v", sa, sb)
	}
	// Deep determinism: first trajectory must match point for point.
	ta, tb := a.Trajs[0], b.Trajs[0]
	if len(ta.Pts) != len(tb.Pts) {
		t.Fatalf("trajectory shapes differ")
	}
	for i := range ta.Pts {
		if ta.Pts[i].Loc != tb.Pts[i].Loc || !ta.Pts[i].Acts.Equal(tb.Pts[i].Acts) {
			t.Fatalf("point %d differs across identical seeds", i)
		}
	}
	c := genSmall(t, 8)
	if c.Stats() == sa {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

func TestGenerateShape(t *testing.T) {
	ds := genSmall(t, 3)
	st := ds.Stats()
	if st.Trajectories != 300 {
		t.Fatalf("trajectories = %d", st.Trajectories)
	}
	if st.AvgPointsPerTraj < 5 || st.AvgPointsPerTraj > 30 {
		t.Fatalf("avg points/traj = %v, want near 15", st.AvgPointsPerTraj)
	}
	if st.AvgActsPerPoint < 1 || st.AvgActsPerPoint > 5 {
		t.Fatalf("avg acts/point = %v", st.AvgActsPerPoint)
	}
	b := ds.Bounds()
	if b.Width() > 30.01 || b.Height() > 30.01 {
		t.Fatalf("points escape the region: %+v", b)
	}
	// Frequency ranking: ID 0 must be the most frequent activity.
	if ds.Vocab.Freq(0) < ds.Vocab.Freq(trajectory.ActivityID(ds.Vocab.Size()-1)) {
		t.Fatal("vocabulary not frequency-ranked")
	}
}

// TestHeadDominance: the category head of the vocabulary must carry a
// large share of tokens — the property that makes conjunctive multi-point
// queries answerable (see Config.Categories).
func TestHeadDominance(t *testing.T) {
	ds := genSmall(t, 9)
	var head, total int64
	for id := 0; id < ds.Vocab.Size(); id++ {
		f := ds.Vocab.Freq(trajectory.ActivityID(id))
		total += f
		if id < 60 {
			head += f
		}
	}
	if total == 0 || float64(head)/float64(total) < 0.4 {
		t.Fatalf("head share = %v, want >= 0.4", float64(head)/float64(total))
	}
}

func TestPresetCalibration(t *testing.T) {
	for _, preset := range []struct {
		name string
		cfg  Config
		// Table IV ratios at any scale.
		tokensPerTraj float64
	}{
		{"LA", LA(0.02), float64(LAActivities) / float64(LATrajectories)},
		{"NY", NY(0.02), float64(NYActivities) / float64(NYTrajectories)},
	} {
		ds, err := Generate(preset.cfg)
		if err != nil {
			t.Fatalf("%s: %v", preset.name, err)
		}
		st := ds.Stats()
		got := float64(st.ActivityTokens) / float64(st.Trajectories)
		if got < preset.tokensPerTraj*0.7 || got > preset.tokensPerTraj*1.3 {
			t.Errorf("%s: tokens/trajectory = %.1f, Table IV target %.1f (±30%%)",
				preset.name, got, preset.tokensPerTraj)
		}
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", preset.name, err)
		}
	}
}

func TestScalePreset(t *testing.T) {
	full := NY(1)
	if full.NumTrajectories != NYTrajectories {
		t.Fatalf("scale 1 must keep Table IV cardinality, got %d", full.NumTrajectories)
	}
	tenth := NY(0.1)
	if tenth.NumTrajectories != NYTrajectories/10 {
		t.Fatalf("scale 0.1 trajectories = %d", tenth.NumTrajectories)
	}
	if tenth.VocabSize >= full.VocabSize || tenth.VocabSize < full.VocabSize/20 {
		t.Fatalf("vocab scaling suspicious: %d vs %d", tenth.VocabSize, full.VocabSize)
	}
	// Out-of-range scales clamp to 1.
	if LA(-3).NumTrajectories != LATrajectories || LA(7).NumTrajectories != LATrajectories {
		t.Fatal("invalid scales must clamp to full size")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
	if _, err := Generate(Config{NumTrajectories: -1, NumVenues: 10, VocabSize: 10}); err == nil {
		t.Fatal("negative cardinality must be rejected")
	}
}

// TestGenerateClampsVenueProfiles: a venue profile asking for more distinct
// words than the head or the tail of the vocabulary holds is clamped to
// what exists, so Generate returns instead of drawing forever.
func TestGenerateClampsVenueProfiles(t *testing.T) {
	for _, cfg := range []Config{
		{NumTrajectories: 1, NumVenues: 1, VocabSize: 10, Categories: 3, CatsPerVenueMin: 4, CatsPerVenueMax: 4},
		{NumTrajectories: 3, NumVenues: 5, VocabSize: 10, Categories: 7, VenueActsMin: 5, VenueActsMax: 9},
		{NumTrajectories: 2, NumVenues: 2, VocabSize: 2, CatsPerVenueMin: 3, VenueActsMin: 3},
	} {
		done := make(chan error, 1)
		go func() {
			ds, err := Generate(cfg)
			if err == nil {
				err = ds.Validate()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v: Generate did not return within 5 s", cfg)
		}
	}
	if _, err := Generate(Config{NumTrajectories: 1, NumVenues: 1, VocabSize: 1}); err == nil {
		t.Fatal("a one-word vocabulary must be rejected")
	}
}
