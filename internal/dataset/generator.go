// Package dataset synthesizes Foursquare-style activity trajectory
// datasets. The paper evaluates on crawled check-in histories of Los
// Angeles and New York (Table IV); those crawls are not redistributable, so
// this generator reproduces the properties the algorithms are sensitive to:
//
//   - spatial clustering of venues (Gaussian mixture around city centers),
//   - a heavily skewed activity vocabulary (Zipf-distributed draws),
//   - venues with coherent activity profiles (check-ins at a venue sample
//     from its profile, correlating activities with locations),
//   - user trajectories as venue walks biased to the user's home cluster,
//   - the published cardinalities (trajectories, check-in points, activity
//     tokens, distinct activities), preserved proportionally at any scale.
//
// Everything is driven by a single seed; generation is fully deterministic.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"activitytraj/internal/geo"
	"activitytraj/internal/trajectory"
)

// Config parameterizes generation.
type Config struct {
	Name            string
	Seed            int64
	NumTrajectories int
	NumVenues       int
	// VocabSize is the number of distinct activity words available; the
	// realized distinct count is lower and reported by Dataset.Stats.
	VocabSize int
	// Categories is the size of the head of the vocabulary: frequent,
	// category-like words ("food", "coffee", "nightlife") every venue
	// profile samples from. Real tip vocabularies are dominated by such
	// words, which is what makes multi-activity queries answerable at all.
	Categories int
	// ZipfS is the Zipf exponent for tail-word popularity (> 1).
	ZipfS float64
	// CatZipfS is the Zipf exponent for category popularity (> 1).
	CatZipfS float64
	// RegionW and RegionH are the city extents in kilometres.
	RegionW, RegionH float64
	// Clusters is the number of venue clusters (neighbourhoods).
	Clusters int
	// ClusterStdKm is the venue scatter around a cluster center.
	ClusterStdKm float64
	// CatsPerVenueMin/Max bound the category words per venue profile.
	CatsPerVenueMin, CatsPerVenueMax int
	// VenueActsMin/Max bound the tail words per venue profile.
	VenueActsMin, VenueActsMax int
	// TrajLenMean/Std shape the (clipped normal) points-per-trajectory
	// distribution; the minimum is 2.
	TrajLenMean, TrajLenStd float64
	// CatCheckinProb is the probability a check-in mentions each category
	// word of the venue; TailCheckinProb likewise for tail words. At least
	// one activity is always mentioned.
	CatCheckinProb, TailCheckinProb float64
	// HomeBias is the probability a walk step stays in the home cluster.
	HomeBias float64
}

func (c Config) validated() (Config, error) {
	if c.NumTrajectories <= 0 || c.NumVenues <= 0 || c.VocabSize <= 0 {
		return c, fmt.Errorf("dataset: cardinalities must be positive (%+v)", c)
	}
	if c.VocabSize < 2 {
		return c, fmt.Errorf("dataset: VocabSize %d leaves no room for both category and tail words", c.VocabSize)
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.05
	}
	if c.CatZipfS <= 1 {
		c.CatZipfS = 1.1
	}
	if c.Categories <= 0 {
		c.Categories = 60
	}
	if c.Categories >= c.VocabSize {
		c.Categories = c.VocabSize / 2
	}
	if c.RegionW <= 0 {
		c.RegionW = 60
	}
	if c.RegionH <= 0 {
		c.RegionH = 60
	}
	if c.Clusters <= 0 {
		c.Clusters = 12
	}
	if c.ClusterStdKm <= 0 {
		c.ClusterStdKm = 2.5
	}
	if c.CatsPerVenueMin <= 0 {
		c.CatsPerVenueMin = 1
	}
	if c.CatsPerVenueMax < c.CatsPerVenueMin {
		c.CatsPerVenueMax = c.CatsPerVenueMin + 1
	}
	if c.VenueActsMin <= 0 {
		c.VenueActsMin = 2
	}
	if c.VenueActsMax < c.VenueActsMin {
		c.VenueActsMax = c.VenueActsMin + 2
	}
	// A venue profile draws distinct words, so it can hold no more category
	// words than there are categories, nor more tail words than the tail.
	c.CatsPerVenueMax = min(c.CatsPerVenueMax, c.Categories)
	c.CatsPerVenueMin = min(c.CatsPerVenueMin, c.CatsPerVenueMax)
	c.VenueActsMax = min(c.VenueActsMax, c.VocabSize-c.Categories)
	c.VenueActsMin = min(c.VenueActsMin, c.VenueActsMax)
	if c.TrajLenMean <= 0 {
		c.TrajLenMean = 20
	}
	if c.TrajLenStd <= 0 {
		c.TrajLenStd = c.TrajLenMean / 2
	}
	if c.CatCheckinProb <= 0 || c.CatCheckinProb > 1 {
		c.CatCheckinProb = 0.9
	}
	if c.TailCheckinProb <= 0 || c.TailCheckinProb > 1 {
		c.TailCheckinProb = 0.35
	}
	if c.HomeBias <= 0 || c.HomeBias > 1 {
		c.HomeBias = 0.8
	}
	return c, nil
}

type venue struct {
	loc     geo.Point
	cluster int
	cats    []uint32 // category activity ranks (head of the vocabulary)
	tails   []uint32 // tail activity ranks
}

// Generate produces a dataset per cfg.
func Generate(cfg Config) (*trajectory.Dataset, error) {
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	catZipf := rand.NewZipf(rng, cfg.CatZipfS, 1, uint64(cfg.Categories-1))
	tailZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.VocabSize-cfg.Categories-1))

	// Cluster centers with population weights.
	centers := make([]geo.Point, cfg.Clusters)
	weights := make([]float64, cfg.Clusters)
	var wsum float64
	for i := range centers {
		centers[i] = geo.Point{
			X: rng.Float64() * cfg.RegionW,
			Y: rng.Float64() * cfg.RegionH,
		}
		weights[i] = 0.2 + rng.Float64()
		wsum += weights[i]
	}
	pickCluster := func() int {
		r := rng.Float64() * wsum
		for i, w := range weights {
			if r -= w; r <= 0 {
				return i
			}
		}
		return cfg.Clusters - 1
	}

	// Venues.
	venues := make([]venue, cfg.NumVenues)
	byCluster := make([][]int, cfg.Clusters)
	for i := range venues {
		c := pickCluster()
		v := venue{
			cluster: c,
			loc: geo.Point{
				X: clamp(centers[c].X+rng.NormFloat64()*cfg.ClusterStdKm, 0, cfg.RegionW),
				Y: clamp(centers[c].Y+rng.NormFloat64()*cfg.ClusterStdKm, 0, cfg.RegionH),
			},
		}
		nc := cfg.CatsPerVenueMin + rng.Intn(cfg.CatsPerVenueMax-cfg.CatsPerVenueMin+1)
		nt := cfg.VenueActsMin + rng.Intn(cfg.VenueActsMax-cfg.VenueActsMin+1)
		seen := make(map[uint32]bool, nc+nt)
		for len(v.cats) < nc {
			a := uint32(catZipf.Uint64())
			if !seen[a] {
				seen[a] = true
				v.cats = append(v.cats, a)
			}
		}
		for len(v.tails) < nt {
			a := uint32(cfg.Categories) + uint32(tailZipf.Uint64())
			if !seen[a] {
				seen[a] = true
				v.tails = append(v.tails, a)
			}
		}
		venues[i] = v
		byCluster[c] = append(byCluster[c], i)
	}

	// Trajectories over activity ranks; the real vocabulary is assigned
	// afterwards from realized frequencies so IDs are frequency-ranked,
	// which every dataset, and every answer recorded from one, depends on.
	type rawPoint struct {
		loc   geo.Point
		ranks []uint32
	}
	rawTrajs := make([][]rawPoint, cfg.NumTrajectories)
	rankCount := make(map[uint32]int64)
	for ti := range rawTrajs {
		home := pickCluster()
		n := int(cfg.TrajLenMean + rng.NormFloat64()*cfg.TrajLenStd)
		if n < 2 {
			n = 2
		}
		pts := make([]rawPoint, 0, n)
		for p := 0; p < n; p++ {
			c := home
			if rng.Float64() > cfg.HomeBias {
				c = pickCluster()
			}
			vs := byCluster[c]
			if len(vs) == 0 {
				vs = byCluster[home]
			}
			if len(vs) == 0 {
				// Degenerate tiny configs: fall back to any venue.
				vs = []int{rng.Intn(len(venues))}
			}
			v := venues[vs[rng.Intn(len(vs))]]
			var ranks []uint32
			for _, a := range v.cats {
				if rng.Float64() < cfg.CatCheckinProb {
					ranks = append(ranks, a)
				}
			}
			for _, a := range v.tails {
				if rng.Float64() < cfg.TailCheckinProb {
					ranks = append(ranks, a)
				}
			}
			if len(ranks) == 0 {
				ranks = append(ranks, v.cats[rng.Intn(len(v.cats))])
			}
			for _, a := range ranks {
				rankCount[a]++
			}
			pts = append(pts, rawPoint{loc: v.loc, ranks: ranks})
		}
		rawTrajs[ti] = pts
	}

	// Vocabulary from realized frequencies.
	vb := trajectory.NewVocabularyBuilder()
	for rank, n := range rankCount {
		vb.AddN(rankName(rank), n)
	}
	vocab := vb.Build()

	ds := &trajectory.Dataset{
		Name:  cfg.Name,
		Vocab: vocab,
		Trajs: make([]trajectory.Trajectory, cfg.NumTrajectories),
	}
	for ti, pts := range rawTrajs {
		tr := trajectory.Trajectory{ID: trajectory.TrajID(ti), Pts: make([]trajectory.Point, len(pts))}
		for pi, rp := range pts {
			ids := make([]trajectory.ActivityID, 0, len(rp.ranks))
			for _, rank := range rp.ranks {
				ids = append(ids, vocab.MustID(rankName(rank)))
			}
			tr.Pts[pi] = trajectory.Point{Loc: rp.loc, Acts: trajectory.NewActivitySet(ids...)}
		}
		ds.Trajs[ti] = tr
	}
	return ds, nil
}

// MustGenerate is Generate for known-good configurations.
func MustGenerate(cfg Config) *trajectory.Dataset {
	ds, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

func rankName(rank uint32) string { return fmt.Sprintf("act%06d", rank) }

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
