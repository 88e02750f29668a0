package trajectory

import (
	"fmt"

	"activitytraj/internal/geo"
)

// TrajID identifies a trajectory within a Dataset; IDs are dense in
// [0, len(Dataset.Trajs)).
type TrajID uint32

// Point is one element of an activity trajectory: a location with the
// (possibly empty) set of activities performed there (Definition 2).
type Point struct {
	Loc  geo.Point
	Acts ActivitySet
}

// Trajectory is a sequence of activity-tagged points.
type Trajectory struct {
	ID  TrajID
	Pts []Point
}

// Len returns the number of points.
func (t *Trajectory) Len() int { return len(t.Pts) }

// ActivityUnion returns the union of all activity sets along the trajectory,
// i.e. the aggregate used by the IL baseline and the activity directory.
func (t *Trajectory) ActivityUnion() ActivitySet {
	var total int
	for _, p := range t.Pts {
		total += len(p.Acts)
	}
	ids := make(ActivitySet, 0, total)
	for _, p := range t.Pts {
		ids = append(ids, p.Acts...)
	}
	ids.Normalize()
	return ids
}

// Bounds returns the bounding rectangle of the trajectory's points.
func (t *Trajectory) Bounds() geo.Rect {
	pts := make([]geo.Point, len(t.Pts))
	for i, p := range t.Pts {
		pts[i] = p.Loc
	}
	return geo.BoundingRect(pts)
}

// Dataset is an activity trajectory database D together with its vocabulary.
type Dataset struct {
	Name  string
	Vocab *Vocabulary
	Trajs []Trajectory
}

// Stats summarizes a dataset with the four quantities of the paper's
// Table IV plus derived averages.
type Stats struct {
	Trajectories     int
	Points           int // "#venue" in Table IV counts check-in points
	ActivityTokens   int // total activity occurrences across all points
	DistinctActs     int
	AvgPointsPerTraj float64
	AvgActsPerPoint  float64
}

// Stats computes dataset statistics in a single pass.
func (d *Dataset) Stats() Stats {
	var s Stats
	s.Trajectories = len(d.Trajs)
	seen := make(map[ActivityID]struct{})
	for _, tr := range d.Trajs {
		s.Points += len(tr.Pts)
		for _, p := range tr.Pts {
			s.ActivityTokens += len(p.Acts)
			for _, a := range p.Acts {
				seen[a] = struct{}{}
			}
		}
	}
	s.DistinctActs = len(seen)
	if s.Trajectories > 0 {
		s.AvgPointsPerTraj = float64(s.Points) / float64(s.Trajectories)
	}
	if s.Points > 0 {
		s.AvgActsPerPoint = float64(s.ActivityTokens) / float64(s.Points)
	}
	return s
}

// Bounds returns the bounding rectangle of every point in the dataset.
func (d *Dataset) Bounds() geo.Rect {
	var r geo.Rect
	first := true
	for _, tr := range d.Trajs {
		for _, p := range tr.Pts {
			if first {
				r = geo.RectFromPoint(p.Loc)
				first = false
			} else {
				r = r.ExtendPoint(p.Loc)
			}
		}
	}
	return r
}

// Validate checks structural invariants: dense trajectory IDs, normalized
// activity sets, and activity IDs within the vocabulary. It returns the
// first violation found.
func (d *Dataset) Validate() error {
	vsize := 0
	if d.Vocab != nil {
		vsize = d.Vocab.Size()
	}
	for i, tr := range d.Trajs {
		if tr.ID != TrajID(i) {
			return fmt.Errorf("trajectory %d has ID %d (IDs must be dense)", i, tr.ID)
		}
		for j, p := range tr.Pts {
			for k, a := range p.Acts {
				if k > 0 && p.Acts[k-1] >= a {
					return fmt.Errorf("trajectory %d point %d: activity set not normalized", i, j)
				}
				if d.Vocab != nil && int(a) >= vsize {
					return fmt.Errorf("trajectory %d point %d: activity %d outside vocabulary (size %d)", i, j, a, vsize)
				}
			}
		}
	}
	return nil
}

// Sample returns a new dataset containing the first n trajectories (re-IDed
// densely), sharing the vocabulary. It is how the scalability experiment
// (Fig. 7) derives 10K..50K subsets of the NY dataset.
func (d *Dataset) Sample(n int) *Dataset {
	if n > len(d.Trajs) {
		n = len(d.Trajs)
	}
	out := &Dataset{Name: fmt.Sprintf("%s[0:%d]", d.Name, n), Vocab: d.Vocab, Trajs: make([]Trajectory, n)}
	for i := 0; i < n; i++ {
		out.Trajs[i] = Trajectory{ID: TrajID(i), Pts: d.Trajs[i].Pts}
	}
	return out
}
